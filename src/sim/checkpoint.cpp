#include "sim/checkpoint.h"

#include <iterator>
#include <optional>
#include <sstream>
#include <utility>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/num_io.h"
#include "common/record.h"
#include "obs/obs.h"

namespace rit::sim {

namespace {

constexpr const char* kHeader = "ritcs-checkpoint v1";
constexpr const char* kAbortedHeader = "ritcs-aborted v1";

// Field-coverage guard mirroring metrics.cpp: the tables below list every
// AggregateMetrics field, so a shape change must extend them or resumed
// sweeps would silently drop the new field.
static_assert(sizeof(AggregateMetrics) ==
                  8 * sizeof(stats::OnlineStats) + 5 * sizeof(std::uint64_t),
              "AggregateMetrics changed shape: update kCounters/kStats in "
              "checkpoint.cpp (and this static_assert)");

using Agg = AggregateMetrics;
// The `agg` line's counters and the `stat` lines, in file order.
constexpr std::uint64_t Agg::*kCounters[] = {
    &Agg::trials, &Agg::successes, &Agg::degraded_trials,
    &Agg::failed_trials, &Agg::quarantined_trials};
constexpr std::pair<const char*, stats::OnlineStats Agg::*> kStats[] = {
    {"avg_utility_auction", &Agg::avg_utility_auction},
    {"avg_utility_rit", &Agg::avg_utility_rit},
    {"total_payment_auction", &Agg::total_payment_auction},
    {"total_payment_rit", &Agg::total_payment_rit},
    {"runtime_auction_ms", &Agg::runtime_auction_ms},
    {"runtime_rit_ms", &Agg::runtime_rit_ms},
    {"solicitation_premium", &Agg::solicitation_premium},
    {"tasks_allocated", &Agg::tasks_allocated}};
// One worker is at least 11 lines: its index, agg, the stats and faults.
constexpr std::size_t kWorkerLines = 3 + std::size(kStats);

void write_agg(std::ostream& os, const Agg& a) {
  os << "agg";
  for (const auto field : kCounters) os << ' ' << a.*field;
  os << "\n";
  for (const auto& [name, field] : kStats) {
    const stats::OnlineStats& s = a.*field;
    os << "stat " << name << ' ' << s.count();
    for (double v : {s.raw_mean(), s.raw_m2(), s.raw_min(), s.raw_max()}) {
      os << ' ' << format_hex_double(v);
    }
    os << "\n";
  }
}

Agg read_agg(RecordReader& r) {
  Agg a;
  const auto t = r.tokens("agg");
  if (t.size() != std::size(kCounters)) r.fail("'agg' wants five counters");
  for (std::size_t i = 0; i < t.size(); ++i) {
    a.*kCounters[i] = r.as_u64(t[i], "agg");
  }
  for (const auto& [name, field] : kStats) {
    const auto w = r.tokens("stat");
    if (w.size() != 6 || w[0] != name) {
      r.fail(std::string("expected stat '") + name + "'");
    }
    a.*field = stats::OnlineStats::restore(
        static_cast<std::size_t>(r.as_u64(w[1], name)),
        r.as_double(w[2], name), r.as_double(w[3], name),
        r.as_double(w[4], name), r.as_double(w[5], name));
  }
  return a;
}

void write_faults(std::ostream& os, const FaultLedger& ledger) {
  os << "faults " << ledger.entries.size() << "\n";
  for (const TrialFault& f : ledger.entries) {
    os << "fault " << f.trial << ' ' << f.seed << ' ' << to_string(f.kind)
       << ' ' << (f.phase.empty() ? "-" : f.phase) << ' ' << f.reason << "\n";
  }
}

FaultLedger read_faults(RecordReader& r) {
  const std::uint64_t count = r.count(r.u64("faults"), "faults");
  FaultLedger ledger;
  ledger.entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    // trial seed kind phase, then the free-text reason after one space.
    const std::string_view rest = r.line("fault");
    const auto t = split_words(rest);
    if (t.size() < 4) r.fail("malformed fault entry");
    std::string_view reason = rest.substr(
        static_cast<std::size_t>(t[3].data() + t[3].size() - rest.data()));
    if (!reason.empty() && reason.front() == ' ') reason.remove_prefix(1);
    ledger.entries.push_back(TrialFault{
        r.as_u64(t[0], "fault trial"), r.as_u64(t[1], "fault seed"),
        parse_fault_kind(std::string(t[2])),
        t[3] == "-" ? std::string() : std::string(t[3]), std::string(reason)});
  }
  return ledger;
}

void write_workers(std::ostream& os, const char* key,
                   const std::vector<WorkerCheckpoint>& workers) {
  for (std::size_t i = 0; i < workers.size(); ++i) {
    os << key << ' ' << i << "\n";
    write_agg(os, workers[i].agg);
    write_faults(os, workers[i].faults);
  }
}

/// `n` workers, each after a `<key> <index>` line.
std::vector<WorkerCheckpoint> read_workers(RecordReader& r, std::uint64_t n,
                                           const char* key) {
  std::vector<WorkerCheckpoint> workers;
  workers.reserve(r.count(n, key, kWorkerLines));
  for (std::uint64_t i = 0; i < n; ++i) {
    if (r.u64(key) != i) r.fail(std::string(key) + "s out of order");
    workers.push_back(WorkerCheckpoint{read_agg(r), read_faults(r)});
  }
  return workers;
}

}  // namespace

std::string serialize_checkpoint(const CheckpointData& data) {
  std::ostringstream os;
  os << kHeader << "\n";
  os << "config " << data.config_hash << "\n";
  os << "seed " << data.seed << "\n";
  os << "threads " << data.threads << "\n";
  os << "trials " << data.trials << "\n";
  os << "every " << data.every << "\n";
  os << "completed " << data.completed.size() << "\n";
  write_workers(os, "point", data.completed);
  if (data.has_partial) {
    os << "partial " << data.partial_point << ' ' << data.partial_cursor
       << ' ' << data.partial_workers.size() << "\n";
    write_workers(os, "worker", data.partial_workers);
  }
  return seal(os.str());
}

CheckpointData parse_checkpoint(std::string_view content,
                                const std::string& path_for_errors) {
  const std::string label = "checkpoint '" + path_for_errors + "'";
  try {
    // Checksum first: a truncated or bit-flipped file is rejected with one
    // clear message before the structured parse sees it.
    RecordReader r(unseal(content, label), label);
    r.header(kHeader);
    CheckpointData data;
    data.config_hash = r.u64("config");
    data.seed = r.u64("seed");
    data.threads = r.u32("threads");
    data.trials = r.u64("trials");
    data.every = r.u64("every");
    data.completed = read_workers(r, r.u64("completed"), "point");
    if (r.done()) return data;
    const auto t = r.tokens("partial");
    if (t.size() < 3) r.fail("'partial' wants point, cursor and workers");
    data.has_partial = true;
    data.partial_point = r.as_u64(t[0], "partial point");
    data.partial_cursor = r.as_u64(t[1], "partial cursor");
    if (data.partial_point != data.completed.size()) {
      r.fail("partial point out of order");
    }
    data.partial_workers =
        read_workers(r, r.as_u64(t[2], "partial workers"), "worker");
    if (!r.done()) r.fail("trailing data after partial state");
    return data;
  } catch (const CheckFailure& e) {
    throw CheckFailure(std::string(e.what()) + "; refusing to resume");
  }
}

AbortedRecord parse_aborted(std::string_view content,
                            const std::string& path_for_errors) {
  RecordReader r(content, "aborted record '" + path_for_errors + "'");
  r.header(kAbortedHeader);
  AbortedRecord rec;
  rec.point = r.u64("point");
  rec.reason = std::string(r.line("reason"));
  const CheckpointData data = parse_checkpoint(r.rest(), path_for_errors);
  if (data.completed.size() != 1) r.fail("wants exactly one partial result");
  rec.partial.metrics = data.completed[0].agg;
  rec.partial.faults = data.completed[0].faults;
  return rec;
}

namespace {

void check_binding(const std::string& path, const char* what,
                   std::uint64_t file_value, std::uint64_t run_value) {
  RIT_CHECK_MSG(file_value == run_value,
                "checkpoint '" << path << "': " << what << " mismatch (file "
                               << file_value << ", run " << run_value
                               << "); refusing to resume");
}

}  // namespace

CheckpointSession::CheckpointSession(Params params)
    : params_(std::move(params)) {
  RIT_CHECK_MSG(!params_.path.empty(), "checkpoint: empty path");
  RIT_CHECK_MSG(params_.threads >= 1, "checkpoint: threads must be >= 1");
  remove_stale_temps(params_.path);
  data_.config_hash = params_.config_hash;
  data_.seed = params_.seed;
  data_.threads = params_.threads;
  data_.trials = params_.trials;
  data_.every = params_.every;
  if (!params_.resume) return;
  const std::optional<std::string> text = slurp_file(params_.path);
  if (!text) return;  // --resume with no file yet: fresh start
  CheckpointData loaded = parse_checkpoint(*text, params_.path);
  // The file must describe the exact run being resumed: same config, same
  // seed, same thread count (the strided partition — and hence bit-exact
  // per-worker state — is a function of it), same trial count + interval.
  check_binding(params_.path, "config hash", loaded.config_hash,
                params_.config_hash);
  check_binding(params_.path, "seed", loaded.seed, params_.seed);
  check_binding(params_.path, "thread count", loaded.threads,
                params_.threads);
  check_binding(params_.path, "trials per point", loaded.trials,
                params_.trials);
  check_binding(params_.path, "checkpoint interval", loaded.every,
                params_.every);
  data_ = std::move(loaded);
  RIT_COUNTER_INC("sim.checkpoints_resumed");
}

bool CheckpointSession::completed_point(std::uint64_t point,
                                        GuardedResult* out) const {
  if (point >= data_.completed.size()) return false;
  const WorkerCheckpoint& w = data_.completed[point];
  out->metrics = w.agg;
  out->faults = w.faults;
  return true;
}

bool CheckpointSession::partial_state(
    std::uint64_t point, std::uint64_t* cursor,
    std::vector<WorkerCheckpoint>* workers) const {
  if (!data_.has_partial || data_.partial_point != point) return false;
  *cursor = data_.partial_cursor;
  *workers = data_.partial_workers;
  return true;
}

void CheckpointSession::save_partial(std::uint64_t point,
                                     std::uint64_t cursor,
                                     std::vector<WorkerCheckpoint> workers) {
  RIT_CHECK_MSG(point == data_.completed.size(),
                "checkpoint: partial point " << point << " out of order ("
                                             << data_.completed.size()
                                             << " completed)");
  data_.has_partial = true;
  data_.partial_point = point;
  data_.partial_cursor = cursor;
  data_.partial_workers = std::move(workers);
  save();
}

void CheckpointSession::complete_point(std::uint64_t point,
                                       const GuardedResult& result) {
  RIT_CHECK_MSG(point == data_.completed.size(),
                "checkpoint: completed point " << point << " out of order ("
                                               << data_.completed.size()
                                               << " completed)");
  data_.completed.push_back(WorkerCheckpoint{result.metrics, result.faults});
  data_.has_partial = false;
  data_.partial_workers.clear();
  save();
}

void CheckpointSession::save_aborted(std::uint64_t point,
                                     const GuardedResult& partial,
                                     const std::string& reason) const {
  // One completed-point image carries the partial merge; the surrounding
  // header pins the point index and the human-readable reason. The reason
  // is flattened to one line (the record is line-oriented).
  CheckpointData data = data_;  // this run's bindings
  data.completed = {WorkerCheckpoint{partial.metrics, partial.faults}};
  data.has_partial = false;
  data.partial_workers.clear();
  std::ostringstream os;
  os << kAbortedHeader << "\n"
     << "point " << point << "\n"
     << "reason " << one_line(reason) << "\n"
     << serialize_checkpoint(data);
  write_file_atomic(aborted_path(), os.str());
  RIT_COUNTER_INC("sim.aborts_flushed");
}

void CheckpointSession::save() {
  RIT_TRACE_SPAN("sim.checkpoint_save");
  write_file_atomic(params_.path, serialize_checkpoint(data_));
  ++written_;
  RIT_COUNTER_INC("sim.checkpoints_written");
  if (after_save_) after_save_(written_);
}

}  // namespace rit::sim
