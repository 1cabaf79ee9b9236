#include "platform/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <new>
#include <optional>
#include <sstream>
#include <vector>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/record.h"
#include "obs/obs.h"
#include "platform/shard_worker.h"
#include "sim/runner.h"
#include "stats/timer.h"

namespace rit::platform {

namespace {

/// Base relaunch delay: attempt n waits kBackoffMs * 2^(n-1).
constexpr std::uint64_t kBackoffMs = 100;

/// Stable signal names for the forensic ledger (strsignal() is
/// locale-shaped; the tests grep for these exact tokens).
const char* signal_name(int sig) {
  switch (sig) {
    case SIGKILL: return "SIGKILL";
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGTERM: return "SIGTERM";
    case SIGXCPU: return "SIGXCPU";
    default: return nullptr;
  }
}

/// mmap'd MAP_SHARED|MAP_ANONYMOUS breadcrumb pages, one per shard,
/// created before the first fork so parent and every child share them.
struct SharedPages {
  BreadcrumbPage* pages{nullptr};
  std::size_t bytes{0};

  explicit SharedPages(unsigned count) {
    bytes = static_cast<std::size_t>(count) * sizeof(BreadcrumbPage);
    void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    RIT_CHECK_MSG(mem != MAP_FAILED,
                  "mmap of " << bytes << " breadcrumb bytes failed: "
                             << std::strerror(errno));
    pages = static_cast<BreadcrumbPage*>(mem);
    for (unsigned i = 0; i < count; ++i) new (pages + i) BreadcrumbPage();
  }
  SharedPages(const SharedPages&) = delete;
  SharedPages& operator=(const SharedPages&) = delete;
  ~SharedPages() {
    if (pages != nullptr) ::munmap(pages, bytes);
  }
};

/// One shard's supervision state across launches.
struct ShardSlot {
  unsigned shard{0};
  std::uint64_t local_trials{0};
  BreadcrumbPage* page{nullptr};

  // Durable state ("" = checkpointing off for this run).
  std::string path;
  std::uint64_t shard_hash{0};

  // Current attempt (0-based launch counter).
  unsigned attempt{0};
  pid_t pid{-1};
  int read_fd{-1};
  std::string buffer;

  // Watchdog state for the running attempt.
  std::uint64_t last_heartbeat{0};
  stats::Timer beat_timer;
  bool hang_killed{false};

  // Relaunch scheduling.
  bool pending{true};
  double backoff_wait_ms{0.0};
  stats::Timer backoff_timer;

  // Outcome.
  bool completed{false};
  sim::GuardedResult result;
};

/// A worker-death forensic entry plus its (shard, attempt) sort key: deaths
/// land in temporal order during the run, but the final ledger must be
/// deterministic-ish in presentation, so they are appended sorted.
struct DeathRecord {
  unsigned shard{0};
  unsigned attempt{0};
  sim::TrialFault fault;
};

/// Kills and reaps every still-running child when the supervisor unwinds
/// (normal return, CheckFailure abort, or any other exception).
struct FleetGuard {
  std::vector<ShardSlot>* slots;
  ~FleetGuard() {
    if (slots == nullptr) return;
    for (ShardSlot& s : *slots) {
      if (s.pid > 0) {
        ::kill(s.pid, SIGKILL);
        ::waitpid(s.pid, nullptr, 0);
        s.pid = -1;
      }
      if (s.read_fd >= 0) {
        ::close(s.read_fd);
        s.read_fd = -1;
      }
    }
  }
};

std::uint64_t shard_config_hash(const sim::CheckpointSession::Params& sweep,
                                std::uint64_t point, unsigned shard,
                                unsigned shard_count, std::uint64_t trials) {
  std::ostringstream os;
  os << "shard " << shard << "/" << shard_count << " point " << point
     << " trials " << trials << " hash " << sweep.config_hash << " seed "
     << sweep.seed;
  return fnv1a64(os.str());
}

/// Pre-validates shard k's durable file: absent -> fresh, matching
/// bindings -> resume, stale bindings (a previous grid point or sweep
/// shape) -> unlink and start fresh. A *corrupt* file still throws — torn
/// state is evidence of a bug, the same refusal the parent checkpoint has.
void prepare_shard_file(const ShardSlot& slot,
                        const sim::CheckpointSession::Params& sweep) {
  if (!sweep.resume) {
    ::unlink(slot.path.c_str());
    return;
  }
  const std::optional<std::string> content = slurp_file(slot.path);
  if (!content) return;  // nothing durable yet
  const sim::CheckpointData data = sim::parse_checkpoint(*content, slot.path);
  if (data.config_hash != slot.shard_hash || data.seed != sweep.seed ||
      data.threads != 1 || data.trials != slot.local_trials) {
    ::unlink(slot.path.c_str());
  }
}

/// The params of shard k's own session: one worker over its residue class,
/// under the sweep's seed and interval. Resumes whatever cut the file holds.
sim::CheckpointSession::Params shard_params(
    const ShardSlot& slot, const sim::CheckpointSession::Params& sweep) {
  sim::CheckpointSession::Params p;
  p.path = slot.path;
  p.config_hash = slot.shard_hash;
  p.seed = sweep.seed;
  p.threads = 1;
  p.trials = slot.local_trials;
  p.every = sweep.every;
  p.resume = true;
  return p;
}

/// How many of its trials shard k's durable file already holds: all of
/// them once complete, the partial cursor mid-way, 0 without a file.
std::uint64_t restored_trials(const ShardSlot& slot) {
  if (slot.path.empty()) return 0;
  const std::optional<std::string> content = slurp_file(slot.path);
  if (!content) return 0;
  const sim::CheckpointData data = sim::parse_checkpoint(*content, slot.path);
  if (!data.completed.empty()) return slot.local_trials;
  return data.has_partial ? data.partial_cursor : 0;
}

/// Seeds shard k's file from the parent session's in-process partial cut
/// at global `cursor`: worker k there holds shard k's state after its
/// first shard_trial_count(cursor, k, K) trials. Keeps the shard's own
/// file when that is at least as far along.
void seed_shard_file(const ShardSlot& slot,
                     const sim::CheckpointSession::Params& sweep,
                     unsigned shard_count, std::uint64_t cursor,
                     sim::WorkerCheckpoint worker) {
  const std::uint64_t local = shard_trial_count(cursor, slot.shard,
                                                shard_count);
  if (local <= restored_trials(slot)) return;
  // The in-process ledger holds global trial indices; the shard file
  // holds local ones (run_shard_child maps them back).
  for (sim::TrialFault& f : worker.faults.entries) {
    f.trial = (f.trial - slot.shard) / shard_count;
  }
  sim::CheckpointSession shard(shard_params(slot, sweep));
  shard.save_partial(/*point=*/0, local, {std::move(worker)});
}

/// Drains whatever the pipe holds right now into the slot's buffer
/// (O_NONBLOCK read end; never blocks). Returns false once EOF is seen.
bool drain_pipe(ShardSlot& slot) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(slot.read_fd, buf, sizeof(buf));
    if (n > 0) {
      slot.buffer.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;  // EOF: writer closed
    if (errno == EINTR) continue;
    return true;  // EAGAIN: nothing more right now
  }
}

void launch_shard(ShardSlot& slot, std::uint64_t trials, unsigned shard_count,
                  const SupervisorOptions& opts,
                  const sim::CheckpointSession* sweep,
                  const sim::GuardPolicy& policy, const sim::TrialBody& body,
                  const sim::TrialSeedFn& seed_of) {
  int fds[2];
  RIT_CHECK_MSG(::pipe(fds) == 0,
                "pipe() for shard " << slot.shard
                                    << " failed: " << std::strerror(errno));

  // Reset the attempt-scoped shared fields before the child exists; the
  // breadcrumb triple (trial/seed/phase) is left alone so a pre-first-trial
  // death still shows the previous attempt's last position. The child
  // resumes from its file's cut, so progress counts those trials as done.
  slot.page->done.store(restored_trials(slot), std::memory_order_relaxed);
  slot.page->oom.store(0, std::memory_order_relaxed);
  slot.buffer.clear();
  slot.hang_killed = false;

  ShardJob job;
  job.trials = trials;
  job.shard = slot.shard;
  job.shard_count = shard_count;
  job.policy = policy;
  job.body = &body;
  job.seed_of = &seed_of;
  if (sweep != nullptr) {
    job.use_session = true;
    // Always resume inside the child: the parent already discarded stale
    // or unwanted files, so whatever survives is this run's own cut.
    job.session = shard_params(slot, sweep->params());
  }
  job.page = slot.page;
  job.result_fd = fds[1];
  job.parent_pid = static_cast<int>(::getpid());
  job.mem_mb = opts.shard_mem_mb;
  job.cpu_s = opts.shard_cpu_s;

  const pid_t child = ::fork();
  RIT_CHECK_MSG(child >= 0,
                "fork() for shard " << slot.shard
                                    << " failed: " << std::strerror(errno));
  if (child == 0) {
    ::close(fds[0]);
    run_shard_child(job);  // [[noreturn]]
  }
  ::close(fds[1]);
  const int flags = ::fcntl(fds[0], F_GETFL, 0);
  ::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK);

  slot.pid = child;
  slot.read_fd = fds[0];
  slot.pending = false;
  slot.last_heartbeat = slot.page->heartbeat.load(std::memory_order_relaxed);
  slot.beat_timer.reset();
  RIT_COUNTER_INC("platform.shards_launched");
}

std::string death_reason(const ShardSlot& slot, int status,
                         const SupervisorOptions& opts) {
  std::uint64_t crumb_trial = 0;
  std::uint64_t crumb_seed = 0;
  std::string crumb_phase;
  slot.page->snapshot(&crumb_trial, &crumb_seed, &crumb_phase);
  const bool oom_flagged =
      slot.page->oom.load(std::memory_order_relaxed) != 0;

  std::ostringstream os;
  os << "shard " << slot.shard << " attempt " << slot.attempt << ": ";
  if (slot.hang_killed) {
    os << "hung (heartbeat stalled for " << opts.heartbeat_timeout_ms
       << " ms), killed by the watchdog";
  } else if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = signal_name(sig);
    os << "killed by ";
    if (name != nullptr) {
      os << name;
    } else {
      os << "signal " << sig;
    }
    if (sig == SIGXCPU && opts.shard_cpu_s > 0) {
      os << " (RLIMIT_CPU budget of " << opts.shard_cpu_s << " s exhausted)";
    } else if (oom_flagged) {
      os << " (OOM: allocation failed under the " << opts.shard_mem_mb
         << " MB address-space budget)";
    }
  } else if (oom_flagged) {
    // ASan and friends turn the abort into a plain exit; the oom flag set
    // just before the bomb detonated still attributes it.
    os << "died out-of-memory (exit status " << WEXITSTATUS(status)
       << ", allocation failed under the " << opts.shard_mem_mb
       << " MB address-space budget)";
  } else {
    os << "exited with unexpected status " << WEXITSTATUS(status);
  }
  os << "; last breadcrumb: trial " << crumb_trial << " (seed " << crumb_seed
     << ", phase " << (crumb_phase.empty() ? "-" : crumb_phase) << ")";
  return os.str();
}

}  // namespace

sim::GuardedResult run_trials_supervised(std::uint64_t trials, unsigned threads,
                                         const SupervisorOptions& opts,
                                         const sim::GuardPolicy& policy,
                                         const sim::TrialBody& body,
                                         const sim::TrialSeedFn& seed_of,
                                         sim::CheckpointSession* session,
                                         std::uint64_t point,
                                         const sim::ProgressFn& progress) {
  const unsigned shard_count = rit::resolve_threads(threads, trials);
  if (session != nullptr) {
    // Same contract as the in-process runner: the partition — and so the
    // resumable/checkable state — binds to the resolved shard count.
    RIT_CHECK_MSG(session->params().threads == shard_count,
                  "checkpoint session bound to " << session->params().threads
                                                 << " worker(s), supervised "
                                                    "run has "
                                                 << shard_count);
    RIT_CHECK_MSG(session->params().trials == trials,
                  "checkpoint session bound to " << session->params().trials
                                                 << " trial(s), run has "
                                                 << trials);
    sim::GuardedResult done;
    if (session->completed_point(point, &done)) return done;
  }
  std::uint64_t cursor = 0;
  std::vector<sim::WorkerCheckpoint> cut;
  const bool has_partial =
      session != nullptr && session->partial_state(point, &cursor, &cut);
  RIT_CHECK_MSG(!has_partial || cut.size() == shard_count,
                "checkpoint partial state has " << cut.size()
                                                << " worker(s), run has "
                                                << shard_count);

  SharedPages pages(shard_count);
  std::vector<ShardSlot> slots(shard_count);
  for (unsigned k = 0; k < shard_count; ++k) {
    ShardSlot& s = slots[k];
    s.shard = k;
    s.local_trials = shard_trial_count(trials, k, shard_count);
    s.page = pages.pages + k;
    if (session != nullptr) {
      s.path = session->params().path + ".shard" + std::to_string(k);
      s.shard_hash = shard_config_hash(session->params(), point, k,
                                       shard_count, trials);
      prepare_shard_file(s, session->params());
      if (has_partial) {
        seed_shard_file(s, session->params(), shard_count, cursor,
                        std::move(cut[k]));
      }
    }
  }

  FleetGuard guard{&slots};
  std::vector<DeathRecord> deaths;

  // Flushes the merged evidence-so-far before an abort surfaces, mirroring
  // the in-process runner's `.aborted` artifact.
  const auto abort_sweep = [&](const std::string& reason) {
    if (session != nullptr) {
      sim::GuardedResult partial;
      for (const ShardSlot& s : slots) {
        if (s.completed) {
          partial.metrics.merge(s.result.metrics);
          partial.faults.merge(s.result.faults);
        }
      }
      std::sort(deaths.begin(), deaths.end(),
                [](const DeathRecord& a, const DeathRecord& b) {
                  return a.shard != b.shard ? a.shard < b.shard
                                            : a.attempt < b.attempt;
                });
      for (const DeathRecord& d : deaths) {
        partial.faults.entries.push_back(d.fault);
      }
      session->save_aborted(point, partial, reason);
    }
    throw rit::CheckFailure(reason);
  };

  std::uint64_t reported = 0;
  const auto report_progress = [&]() {
    if (!progress) return;
    std::uint64_t done = 0;
    for (const ShardSlot& s : slots) {
      done += s.completed
                  ? s.local_trials
                  : std::min(s.local_trials,
                             s.page->done.load(std::memory_order_relaxed));
    }
    done = std::min(done, trials);
    if (done > reported) {
      reported = done;
      progress(done, trials);
    }
  };

  for (;;) {
    bool all_completed = true;
    for (ShardSlot& s : slots) {
      if (!s.completed) all_completed = false;
      // Launch (or relaunch once the backoff elapsed) every due shard.
      if (!s.completed && s.pid < 0 && s.pending &&
          s.backoff_timer.elapsed_ms() >= s.backoff_wait_ms) {
        launch_shard(s, trials, shard_count, opts, session, policy, body,
                     seed_of);
      }
    }
    if (all_completed) break;

    std::vector<struct pollfd> fds;
    fds.reserve(slots.size());
    for (const ShardSlot& s : slots) {
      if (s.pid > 0 && s.read_fd >= 0) {
        fds.push_back(pollfd{s.read_fd, POLLIN, 0});
      }
    }
    // With no child running (every survivor waiting out its backoff) the
    // empty poll is just the loop's sleep.
    ::poll(fds.empty() ? nullptr : fds.data(), fds.size(),
           /*timeout_ms=*/20);

    for (ShardSlot& s : slots) {
      if (s.pid <= 0) continue;
      // Keep the pipe drained while the child runs: a shard result larger
      // than the pipe capacity would otherwise deadlock child against
      // parent (child blocked in write, parent blocked in waitpid).
      drain_pipe(s);

      // Heartbeat watchdog.
      if (opts.heartbeat_timeout_ms > 0 && !s.hang_killed) {
        const std::uint64_t beat =
            s.page->heartbeat.load(std::memory_order_relaxed);
        if (beat != s.last_heartbeat) {
          s.last_heartbeat = beat;
          s.beat_timer.reset();
        } else if (s.beat_timer.elapsed_ms() >
                   static_cast<double>(opts.heartbeat_timeout_ms)) {
          s.hang_killed = true;
          ::kill(s.pid, SIGKILL);
          RIT_COUNTER_INC("platform.shards_hang_killed");
        }
      }

      int status = 0;
      const pid_t reaped = ::waitpid(s.pid, &status, WNOHANG);
      if (reaped != s.pid) continue;
      s.pid = -1;

      // Child gone: collect the remainder of the payload and close.
      while (drain_pipe(s)) {
      }
      ::close(s.read_fd);
      s.read_fd = -1;

      const bool clean_exit = WIFEXITED(status) && !s.hang_killed;
      const int code = clean_exit ? WEXITSTATUS(status) : -1;
      if (clean_exit && code == kShardOk) {
        ShardPayload payload = parse_shard_payload(s.buffer);
        if (!payload.ok) {
          abort_sweep("shard " + std::to_string(s.shard) +
                      " exited cleanly with a bad payload: " + payload.error);
        }
        s.completed = true;
        s.result = std::move(payload.result);
        RIT_COUNTER_INC("platform.shards_completed");
        continue;
      }
      if (clean_exit &&
          (code == kShardCheckFailure || code == kShardError)) {
        // Deterministic failure inside the shard (failure budget exhausted,
        // binding mismatch, escaped exception): retrying cannot help.
        const ShardPayload payload = parse_shard_payload(s.buffer);
        abort_sweep("shard " + std::to_string(s.shard) + " failed: " +
                    (payload.error.empty() ? "no reason transmitted"
                                           : payload.error));
      }
      // Everything else is a worker death: signal, hang kill, or an exit
      // status no shard ever uses (e.g. a sanitizer turning SIGSEGV into
      // exit 1). Record forensics and decide retry vs quarantine.
      const std::string reason = death_reason(s, status, opts);
      DeathRecord death;
      death.shard = s.shard;
      death.attempt = s.attempt;
      std::uint64_t crumb_trial = 0;
      std::uint64_t crumb_seed = 0;
      std::string crumb_phase;
      s.page->snapshot(&crumb_trial, &crumb_seed, &crumb_phase);
      death.fault.trial = crumb_trial;
      death.fault.seed = crumb_seed;
      death.fault.kind = sim::FaultKind::kWorkerDeath;
      death.fault.phase = crumb_phase.empty() ? "trial" : crumb_phase;
      death.fault.reason = reason;
      deaths.push_back(death);
      RIT_COUNTER_INC("platform.shards_died");

      if (s.attempt >= opts.shard_retries) {
        abort_sweep("shard " + std::to_string(s.shard) +
                    " quarantined after " + std::to_string(s.attempt + 1) +
                    " attempt(s); last death: " + reason);
      }
      ++s.attempt;
      s.pending = true;
      s.backoff_wait_ms = static_cast<double>(kBackoffMs) *
                          static_cast<double>(std::uint64_t{1}
                                              << (s.attempt - 1));
      s.backoff_timer.reset();
      RIT_COUNTER_INC("platform.shards_retried");
    }

    report_progress();
  }

  // Merge in shard-index order: identical to the in-process runner's
  // worker-index merge at threads == shard_count, so undisturbed (and
  // recovered) supervised runs are bit-identical to it.
  sim::GuardedResult out;
  for (const ShardSlot& s : slots) {
    out.metrics.merge(s.result.metrics);
    out.faults.merge(s.result.faults);
  }

  // Each shard enforced the failure budget against its local count (a
  // local crossing implies a global one); this catches the cross-shard sum
  // crossing the budget even though no single shard did.
  const std::uint64_t contained =
      out.metrics.failed_trials + out.metrics.quarantined_trials;
  if (contained > policy.max_trial_failures) {
    std::ostringstream os;
    os << contained << " contained fault(s) across " << shard_count
       << " shard(s) > --max-trial-failures=" << policy.max_trial_failures
       << " — failure budget exhausted";
    abort_sweep(os.str());
  }

  // Worker deaths the fleet recovered from are part of the record: append
  // them (sorted for determinism of presentation) after the bit-identical
  // contained-fault ledger.
  std::sort(deaths.begin(), deaths.end(),
            [](const DeathRecord& a, const DeathRecord& b) {
              return a.shard != b.shard ? a.shard < b.shard
                                        : a.attempt < b.attempt;
            });
  for (const DeathRecord& d : deaths) out.faults.entries.push_back(d.fault);

  if (progress && reported < trials) progress(trials, trials);
  if (session != nullptr) session->complete_point(point, out);
  // The shard files served their purpose once the parent's own checkpoint
  // (or the caller) owns the completed point. So did the temps of a killed
  // run's shards, which can outlive the opening of this run's sessions.
  for (const ShardSlot& s : slots) {
    if (s.path.empty()) continue;
    ::unlink(s.path.c_str());
    remove_stale_temps(s.path);
  }
  return out;
}

sim::TrialBody scenario_body(const sim::Scenario& scenario) {
  return [&scenario](std::uint64_t t, core::RitWorkspace& ws,
                     std::string* phase) {
    *phase = "make_instance";
    note_phase("make_instance");
    const sim::TrialInstance inst = sim::make_instance(scenario, t);
    *phase = "run_trial";
    note_phase("run_trial");
    return sim::run_trial(scenario, inst, ws);
  };
}

sim::GuardedResult run_many(const sim::Scenario& scenario,
                            std::uint64_t trials, unsigned threads,
                            const sim::GuardPolicy& policy,
                            const SupervisorOptions* isolate,
                            sim::CheckpointSession* session,
                            std::uint64_t point,
                            const sim::ProgressFn& progress) {
  const sim::TrialBody body = scenario_body(scenario);
  const sim::TrialSeedFn seed_of = [&scenario](std::uint64_t t) {
    return sim::mechanism_seed_of(scenario, t);
  };
  if (isolate == nullptr) {
    return sim::run_trials_guarded(trials, threads, policy, body, seed_of,
                                   session, point, progress);
  }
  return run_trials_supervised(trials, threads, *isolate, policy, body,
                               seed_of, session, point, progress);
}

}  // namespace rit::platform
