#include "platform/shard_worker.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstddef>
#include <exception>
#include <memory>

#include "common/check.h"
#include "common/record.h"

namespace rit::platform {

namespace {

// NUL-terminated bounded copy into the breadcrumb phase buffer. Must not
// allocate: it runs between the seqlock edges and on the trial hot path.
void copy_phase(char* dst, const char* label) {
  std::size_t i = 0;
  for (; label[i] != '\0' && i < sizeof(BreadcrumbPage::phase) - 1; ++i) {
    dst[i] = label[i];
  }
  dst[i] = '\0';
}

BreadcrumbPage* g_current_breadcrumb = nullptr;

}  // namespace

void BreadcrumbPage::begin_trial(std::uint64_t global_trial,
                                 std::uint64_t trial_seed) {
  const std::uint64_t v = seq.load(std::memory_order_relaxed);
  seq.store(v + 1, std::memory_order_release);  // odd: write in flight
  trial = global_trial;
  seed = trial_seed;
  copy_phase(phase, "trial");
  seq.store(v + 2, std::memory_order_release);
  heartbeat.fetch_add(1, std::memory_order_relaxed);
  done.fetch_add(1, std::memory_order_relaxed);
}

void BreadcrumbPage::note_phase(const char* label) {
  const std::uint64_t v = seq.load(std::memory_order_relaxed);
  seq.store(v + 1, std::memory_order_release);
  copy_phase(phase, label);
  seq.store(v + 2, std::memory_order_release);
  heartbeat.fetch_add(1, std::memory_order_relaxed);
}

void BreadcrumbPage::snapshot(std::uint64_t* out_trial,
                              std::uint64_t* out_seed,
                              std::string* out_phase) const {
  // Bounded seqlock read: a child killed mid-write leaves seq odd forever,
  // so after enough retries the parent accepts a possibly-torn snapshot —
  // forensics are best-effort by nature, a hang here would not be.
  char buf[sizeof(phase)];
  for (int tries = 0; tries < 1000; ++tries) {
    const std::uint64_t s1 = seq.load(std::memory_order_acquire);
    *out_trial = trial;
    *out_seed = seed;
    for (std::size_t i = 0; i < sizeof(buf); ++i) buf[i] = phase[i];
    const std::uint64_t s2 = seq.load(std::memory_order_acquire);
    if (s1 == s2 && (s1 & 1u) == 0) break;
  }
  buf[sizeof(buf) - 1] = '\0';
  *out_phase = buf;
}

BreadcrumbPage* current_breadcrumb() { return g_current_breadcrumb; }

void set_current_breadcrumb(BreadcrumbPage* page) {
  g_current_breadcrumb = page;
}

void note_phase(const char* label) {
  if (g_current_breadcrumb != nullptr) g_current_breadcrumb->note_phase(label);
}

std::uint64_t shard_trial_count(std::uint64_t trials, unsigned shard,
                                unsigned shard_count) {
  RIT_CHECK(shard_count >= 1 && shard < shard_count);
  if (shard >= trials) return 0;
  return (trials - shard - 1) / shard_count + 1;
}

std::string serialize_shard_result(const sim::GuardedResult& result) {
  // Reuse the checksummed checkpoint format: one completed point carries
  // the shard's merged aggregate + ledger, so the pipe payload gets the
  // same torn/corrupt detection the on-disk format has.
  sim::CheckpointData data;
  data.completed.push_back(
      sim::WorkerCheckpoint{result.metrics, result.faults});
  return std::string("ritcs-shard-result v1\n") + sim::serialize_checkpoint(data);
}

std::string serialize_shard_error(const std::string& what) {
  return "ritcs-shard-error v1\n" + one_line(what) + "\n";
}

ShardPayload parse_shard_payload(const std::string& content) {
  ShardPayload out;
  const std::string result_header = "ritcs-shard-result v1\n";
  const std::string error_header = "ritcs-shard-error v1\n";
  if (content.compare(0, result_header.size(), result_header) == 0) {
    const sim::CheckpointData data = sim::parse_checkpoint(
        content.substr(result_header.size()), "<shard result pipe>");
    RIT_CHECK_MSG(data.completed.size() == 1 && !data.has_partial,
                  "shard result payload wants exactly one completed point");
    out.ok = true;
    out.result.metrics = data.completed[0].agg;
    out.result.faults = data.completed[0].faults;
    return out;
  }
  if (content.compare(0, error_header.size(), error_header) == 0) {
    const std::size_t end = content.find('\n', error_header.size());
    out.error = content.substr(error_header.size(), end - error_header.size());
    return out;
  }
  out.error = "malformed shard payload (" +
              std::to_string(content.size()) + " bytes)";
  return out;
}

namespace {

void write_all(int fd, const std::string& content) {
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // parent gone (EPIPE): the exit status still tells the story
    }
    off += static_cast<std::size_t>(n);
  }
}

void apply_rlimits(const ShardJob& job) {
  // No core dumps: a death-matrix test that segfaults on purpose must not
  // litter the working directory (the forensics live in the ledger).
  struct rlimit core = {0, 0};
  ::setrlimit(RLIMIT_CORE, &core);
  if (job.mem_mb > 0) {
    // RLIMIT_AS, not RLIMIT_RSS: Linux accounts but does not enforce RSS,
    // so the address-space budget is the enforceable stand-in.
    const rlim_t bytes = static_cast<rlim_t>(job.mem_mb) << 20;
    struct rlimit as = {bytes, bytes};
    ::setrlimit(RLIMIT_AS, &as);
  }
  if (job.cpu_s > 0) {
    const auto secs = static_cast<rlim_t>(job.cpu_s);
    // Soft == hard: the first SIGXCPU is already fatal (default
    // disposition terminates), which is the budget semantics we want.
    struct rlimit cpu = {secs, secs};
    ::setrlimit(RLIMIT_CPU, &cpu);
  }
}

}  // namespace

void run_shard_child(const ShardJob& job) {
  // Die with the supervisor: if the parent is SIGKILLed (the check.sh
  // smoke leg does exactly that), the kernel reaps this child too instead
  // of leaving an orphan burning CPU. The getppid re-check closes the race
  // where the parent died before the prctl landed.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != job.parent_pid) ::_exit(kShardError);
  apply_rlimits(job);
  set_current_breadcrumb(job.page);

  int exit_code = kShardOk;
  std::string payload;
  try {
    const std::uint64_t local_trials =
        shard_trial_count(job.trials, job.shard, job.shard_count);
    const unsigned shard = job.shard;
    const unsigned count = job.shard_count;
    const sim::TrialBody& body = *job.body;
    const sim::TrialSeedFn& seed_of = *job.seed_of;

    // Local index i runs global trial g = s + i*K: the body sees g, as it
    // would in process, so whatever it derives from the index (its seed,
    // an injected fault) matches an in-process run bit for bit.
    const sim::TrialBody local_body =
        [&](std::uint64_t local, core::RitWorkspace& ws, std::string* phase) {
          const std::uint64_t g = shard + local * count;
          job.page->begin_trial(g, seed_of ? seed_of(g) : g);
          return body(g, ws, phase);
        };
    const sim::TrialSeedFn local_seed = [&](std::uint64_t local) {
      const std::uint64_t g = shard + local * count;
      return seed_of ? seed_of(g) : g;
    };

    std::unique_ptr<sim::CheckpointSession> session;
    if (job.use_session) {
      session = std::make_unique<sim::CheckpointSession>(job.session);
    }
    sim::GuardedResult result = sim::run_trials_guarded(
        local_trials, /*threads=*/1, job.policy, local_body, local_seed,
        session.get(), /*point=*/0);
    // Ledger entries were recorded with local indices by the inner runner;
    // rewrite to global so the supervisor's shard-order merge reproduces
    // the exact ledger an in-process run at threads=K builds.
    for (sim::TrialFault& f : result.faults.entries) {
      f.trial = shard + f.trial * count;
    }
    payload = serialize_shard_result(result);
  } catch (const rit::CheckFailure& e) {
    payload = serialize_shard_error(e.what());
    exit_code = kShardCheckFailure;
  } catch (const std::exception& e) {
    payload = serialize_shard_error(e.what());
    exit_code = kShardError;
  }
  write_all(job.result_fd, payload);
  // _exit, not exit: the child shares the parent's stdio buffers and exit
  // handlers; flushing or running them here would duplicate parent output.
  ::_exit(exit_code);
}

}  // namespace rit::platform
