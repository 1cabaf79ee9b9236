// Deterministic sweep checkpoints: versioned, checksummed, atomic.
//
// A sweep's durable progress is (per grid point) either a completed
// aggregate or a partial cut: the next-trial cursor plus every worker's
// Welford/ledger state. Because the guarded runner's strided partition and
// worker-order merge are pure functions of (trials, threads), restoring
// those worker states and continuing produces bit-identical final
// aggregates to an uninterrupted run — see docs/robustness.md.
//
// Format "ritcs-checkpoint v1" (codec: common/record.h): line-oriented
// text, doubles as C hex-floats (%a, bit-exact), a header binding the file
// to (config hash, seed, threads, trials, checkpoint interval), and an
// FNV-1a checksum footer. Files are only ever replaced via write-fsync-rename
// (common/atomic_file.h), so a killed process leaves the previous complete
// checkpoint, never a torn one. Loading validates version, checksum, and
// every header binding; any mismatch refuses to resume with a clear error.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/fault.h"
#include "sim/metrics.h"

namespace rit::sim {

/// One worker's resumable state at a checkpoint cut (also the shape of a
/// completed point: its merged aggregate + ledger).
struct WorkerCheckpoint {
  AggregateMetrics agg;
  FaultLedger faults;
};

/// The aggregate + fault ledger a guarded run returns (and a completed
/// checkpoint point stores).
struct GuardedResult {
  AggregateMetrics metrics;
  FaultLedger faults;
};

/// In-memory image of a checkpoint file.
struct CheckpointData {
  std::uint64_t config_hash{0};
  std::uint64_t seed{0};
  unsigned threads{1};
  std::uint64_t trials{0};  // trials per grid point
  std::uint64_t every{0};   // checkpoint interval in trials (0 = per point)
  /// Completed grid points, in sweep order (index == point index).
  std::vector<WorkerCheckpoint> completed;
  /// At most one in-flight point: trials [0, partial_cursor) are folded
  /// into partial_workers (one entry per worker, index order).
  bool has_partial{false};
  std::uint64_t partial_point{0};
  std::uint64_t partial_cursor{0};
  std::vector<WorkerCheckpoint> partial_workers;
};

/// Serializes/parses the format (exposed for tests; parse validates the
/// checksum and structure, throwing CheckFailure on any corruption).
std::string serialize_checkpoint(const CheckpointData& data);
CheckpointData parse_checkpoint(std::string_view content,
                                const std::string& path_for_errors);

/// Forensic record of an aborted sweep point: the partial aggregate and
/// fault ledger the run had folded when it gave up, plus why. Written to
/// `<checkpoint path>.aborted` — deliberately NOT a resumable cut (at
/// abort time the per-worker states are mid-chunk and no cursor describes
/// them consistently), just the evidence an operator needs.
struct AbortedRecord {
  std::uint64_t point{0};
  std::string reason;
  GuardedResult partial;
};

/// Parses the `.aborted` artifact (header + reason + a checksummed
/// checkpoint body carrying the partial result); throws CheckFailure on
/// any corruption.
AbortedRecord parse_aborted(std::string_view content,
                            const std::string& path_for_errors);

/// One sweep's checkpoint lifecycle: load-or-create, per-point queries,
/// atomic saves. Construction with resume=true validates an existing file
/// against the run's bindings and refuses to resume on mismatch; with
/// resume=false any existing file is superseded by the first save. Either
/// way construction removes the `<path>.tmp.<pid>` staging files of saves
/// whose process is gone (killed mid-write); a live writer's stays.
class CheckpointSession {
 public:
  struct Params {
    std::string path;
    std::uint64_t config_hash{0};
    std::uint64_t seed{0};
    unsigned threads{1};
    std::uint64_t trials{0};
    std::uint64_t every{0};
    bool resume{false};
  };

  explicit CheckpointSession(Params params);

  /// True (and fills *out) when `point` already completed in the loaded
  /// checkpoint — the runner skips it entirely.
  bool completed_point(std::uint64_t point, GuardedResult* out) const;

  /// True when `point` has a partial cut to resume from; fills the
  /// next-trial cursor and the per-worker states.
  bool partial_state(std::uint64_t point, std::uint64_t* cursor,
                     std::vector<WorkerCheckpoint>* workers) const;

  /// Records a mid-point cut and writes the file atomically.
  void save_partial(std::uint64_t point, std::uint64_t cursor,
                    std::vector<WorkerCheckpoint> workers);

  /// Marks `point` complete (clearing any partial cut) and writes.
  void complete_point(std::uint64_t point, const GuardedResult& result);

  /// Flushes a forensic `.aborted` artifact next to the checkpoint file
  /// (see AbortedRecord): the partial aggregate + fault ledger at the
  /// moment the run gave up, and the abort reason. Does not touch the
  /// checkpoint file itself.
  void save_aborted(std::uint64_t point, const GuardedResult& partial,
                    const std::string& reason) const;

  /// The `.aborted` sibling path this session writes.
  std::string aborted_path() const { return params_.path + ".aborted"; }

  std::uint64_t checkpoints_written() const { return written_; }
  const Params& params() const { return params_; }

  /// Called after every checkpoint write with the running write count;
  /// empty in production. What it throws propagates out of the save (the
  /// kill/resume tests model a process death at a boundary this way).
  void set_after_save(std::function<void(std::uint64_t written)> hook) {
    after_save_ = std::move(hook);
  }

 private:
  void save();

  Params params_;
  CheckpointData data_;
  std::uint64_t written_{0};
  std::function<void(std::uint64_t)> after_save_;
};

}  // namespace rit::sim
