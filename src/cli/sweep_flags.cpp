#include "cli/sweep_flags.h"

#include "common/check.h"
#include "common/parallel.h"

namespace rit::cli {

namespace {

// The shard budgets mean nothing to an in-process run.
constexpr const char* kIsolationFlags[] = {
    "shard-mem-mb", "shard-cpu-s", "shard-retries", "heartbeat-timeout-ms"};

}  // namespace

SweepFlags read_sweep_flags(Args& args) {
  SweepFlags f;
  f.policy.max_trial_failures = args.get_u64("max-trial-failures", 0);
  f.policy.trial_timeout_ms = args.get_double("trial-timeout-ms", 0.0);
  f.checkpoint_path = args.get_string("checkpoint", "");
  f.checkpoint_every = args.get_u64("checkpoint-every", 0);
  f.resume = args.get_bool("resume", false);
  platform::SupervisorOptions isolate;
  isolate.shard_mem_mb = args.get_u64("shard-mem-mb", 0);
  isolate.shard_cpu_s = args.get_u64("shard-cpu-s", 0);
  isolate.shard_retries = args.get_u32("shard-retries", 2);
  isolate.heartbeat_timeout_ms = args.get_u64("heartbeat-timeout-ms", 0);
  if (args.get_bool("supervised", false)) f.isolate = isolate;

  require_usage(!f.checkpoint_path.empty() || !f.resume,
                "--resume requires --checkpoint=PATH");
  require_usage(!f.checkpoint_path.empty() || f.checkpoint_every == 0,
                "--checkpoint-every requires --checkpoint=PATH");
  require_usage(f.policy.trial_timeout_ms >= 0.0,
                "--trial-timeout-ms must be >= 0");
  for (const char* flag : kIsolationFlags) {
    require_usage(f.isolate || !args.has(flag),
                  std::string("--") + flag + " requires --supervised");
  }
  return f;
}

void refuse_sweep_flags(const Args& args, const std::string& reason) {
  for (const char* flag :
       {"trials", "threads", "max-trial-failures", "trial-timeout-ms",
        "checkpoint", "checkpoint-every", "resume", "supervised"}) {
    require_usage(!args.has(flag), std::string("--") + flag + " " + reason);
  }
  for (const char* flag : kIsolationFlags) {
    require_usage(!args.has(flag), std::string("--") + flag + " " + reason);
  }
}

std::unique_ptr<sim::CheckpointSession> open_session(const SweepFlags& flags,
                                                     std::uint64_t config_hash,
                                                     std::uint64_t seed,
                                                     unsigned threads,
                                                     std::uint64_t trials) {
  if (flags.checkpoint_path.empty()) return nullptr;
  sim::CheckpointSession::Params p;
  p.path = flags.checkpoint_path;
  p.config_hash = config_hash;
  p.seed = seed;
  // The partition, and so every resumable cut, is a function of the
  // resolved worker count; in-process workers and supervised shards share
  // it, so either engine resumes the other's checkpoint at one --threads.
  p.threads = rit::resolve_threads(threads, trials);
  p.trials = trials;
  p.every = flags.checkpoint_every;
  p.resume = flags.resume;
  return std::make_unique<sim::CheckpointSession>(std::move(p));
}

}  // namespace rit::cli
