// ritcs-fuzz: the differential fuzz harness over the full mechanism.
//
// Modes (see docs/testing.md for the workflow):
//
//   ritcs-fuzz --seed=S --iterations=N [--corpus-dir=DIR] [--isolate]
//       Iteration-budgeted fuzz loop: generate/mutate cases, run
//       production vs the naive oracle vs the paper invariants on each,
//       and persist a deterministic corpus (manifest + periodic case
//       snapshots + one repro file per failure) under DIR. The loop is
//       keyed on the iteration budget only — never wall clock — so the
//       same seed yields the same corpus byte for byte on any machine.
//
//   ritcs-fuzz --repro=FILE [--isolate]
//       Replay one committed repro file.
//
//   ritcs-fuzz --repro=FILE --shrink --out=OUT [--max-shrink-checks=K]
//       Minimize a failing repro while preserving its signature class.
//
//   ritcs-fuzz --determinism-check --seed=S --iterations=N --corpus-dir=DIR
//       Run the loop twice (DIR/a, DIR/b) and byte-compare the corpora.
//
// --isolate routes every case check through the process-isolating sweep
// supervisor (platform/supervisor.h): a check that segfaults or wedges is
// reported as the stable signature class "crash" instead of taking the
// fuzzer down.
//
// Exit status is the gate (the fuzz_smoke_* ctests assert it):
//   0  expectations met (no failures; or --expect-failures/--expect-repro
//      was satisfied; or the determinism check matched)
//   1  unexpected failure found (fuzz loop or repro replay)
//   2  usage/contract violation: --expect-failures with a clean run,
//      --expect-repro on a passing or differently-classed repro, corrupt
//      repro file, shrinking a passing case, determinism divergence
//
// Self-test hook: building this binary against core objects compiled with
// -DRIT_TESTKIT_INJECT_BUG=<id> (targets ritcs-fuzz-bug<id>) plants a
// known bug; the ctest smoke legs assert each planted bug is caught
// within the smoke iteration budget (--expect-failures=true).
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/args.h"
#include "common/atomic_file.h"
#include "common/check.h"
#include "common/num_io.h"
#include "common/record.h"
#include "platform/supervisor.h"
#include "rng/rng.h"
#include "sim/guarded.h"
#include "sim/metrics.h"
#include "testkit/fuzz_case.h"
#include "testkit/harness.h"
#include "testkit/mutate.h"
#include "testkit/shrink.h"

namespace {

using rit::testkit::CaseOutcome;
using rit::testkit::FuzzCase;

/// Separates the signature class from the details inside the exception the
/// isolated check body throws (the supervisor round-trips it as a
/// single-line fault reason).
constexpr const char* kReasonSep = " :: ";

std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

/// Filesystem-safe slug of a signature class ("oracle-mismatch:payment" ->
/// "oracle-mismatch-payment").
std::string slug(const std::string& signature) {
  std::string out;
  for (char c : signature) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                      c == '-' || (c >= 'A' && c <= 'Z');
    out.push_back(keep ? c : '-');
  }
  return out;
}

std::string pad6(std::uint64_t v) {
  std::string digits = rit::format_u64(v);
  while (digits.size() < 6) digits.insert(digits.begin(), '0');
  return digits;
}

/// Direct in-process check.
CaseOutcome direct_check(const FuzzCase& c) {
  return rit::testkit::check_case(c);
}

/// Supervised check: the case runs as a 1-trial, 1-shard supervised sweep
/// in a forked worker. A thrown failure comes back through the fault
/// ledger; a worker death (segfault/OOM/wedge) aborts the supervised run
/// and is classified as the fixed signature "crash" (fixed so the corpus
/// stays deterministic — a crash reason would carry addresses).
CaseOutcome isolated_check(const FuzzCase& c) {
  CaseOutcome outcome;
  rit::sim::GuardPolicy policy;
  policy.max_trial_failures = 1;
  rit::platform::SupervisorOptions opts;
  opts.shard_retries = 0;
  const rit::sim::TrialBody body = [&c](std::uint64_t /*trial*/,
                                        rit::core::RitWorkspace& /*ws*/,
                                        std::string* phase) {
    if (phase != nullptr) *phase = "check-case";
    const CaseOutcome inner = rit::testkit::check_case(c);
    if (!inner.ok) {
      throw std::runtime_error(inner.signature + kReasonSep + inner.details);
    }
    return rit::sim::TrialMetrics{};
  };
  try {
    const rit::sim::GuardedResult result =
        rit::platform::run_trials_supervised(
            1, /*threads=*/1, opts, policy, body,
            [&c](std::uint64_t) { return c.mech_seed; });
    if (!result.faults.empty()) {
      const std::string& reason = result.faults.entries.front().reason;
      const std::size_t sep = reason.find(kReasonSep);
      outcome.ok = false;
      if (sep == std::string::npos) {
        outcome.signature = reason;
      } else {
        outcome.signature = reason.substr(0, sep);
        outcome.details = reason.substr(sep + std::string(kReasonSep).size());
      }
    }
  } catch (const rit::CheckFailure&) {
    outcome.ok = false;
    outcome.signature = "crash";
    outcome.details = "supervised check worker died";
  }
  return outcome;
}

CaseOutcome run_check(const FuzzCase& c, bool isolate) {
  return isolate ? isolated_check(c) : direct_check(c);
}

struct LoopResult {
  std::uint64_t iterations{0};
  std::uint64_t failures{0};
  std::map<std::string, std::uint64_t> by_signature;
};

/// Save a corpus snapshot this often (deterministic replay seeds for
/// future sessions; also gives the determinism check real file contents
/// to compare).
constexpr std::uint64_t kSnapshotEvery = 25;
constexpr std::size_t kPoolCap = 64;

/// `stop_after_failures` > 0 short-circuits the budget once that many
/// failures are on disk (the bug smoke legs only need the first catch).
LoopResult run_loop(std::uint64_t seed, std::uint64_t iterations,
                    const std::string& corpus_dir, bool isolate,
                    std::uint64_t stop_after_failures = 0) {
  std::filesystem::create_directories(corpus_dir);
  rit::rng::Rng root(seed);
  std::vector<FuzzCase> pool;
  LoopResult result;
  std::ostringstream manifest;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    rit::rng::Rng iter_rng = root.split();
    FuzzCase c;
    if (pool.empty() || i % 4 == 0) {
      c = rit::testkit::random_case(iter_rng);
    } else {
      const std::size_t pick = iter_rng.uniform_index(pool.size());
      c = rit::testkit::mutate(pool[pick], iter_rng);
    }
    const std::uint64_t hash = rit::testkit::case_hash(c);
    const CaseOutcome outcome = run_check(c, isolate);
    manifest << "iter " << rit::format_u64(i) << " case " << hex16(hash)
             << " " << (outcome.ok ? "ok" : outcome.signature) << "\n";
    if (outcome.ok) {
      if (pool.size() < kPoolCap) {
        pool.push_back(c);
      } else {
        pool[static_cast<std::size_t>(i % kPoolCap)] = c;
      }
      if (i % kSnapshotEvery == 0) {
        rit::testkit::write_case_file(
            corpus_dir + "/case-" + pad6(i) + "-" + hex16(hash) + ".ritcase",
            c);
      }
    } else {
      ++result.failures;
      ++result.by_signature[outcome.signature];
      FuzzCase repro = c;
      repro.signature = outcome.signature;
      rit::testkit::write_case_file(corpus_dir + "/repro-" +
                                        slug(outcome.signature) + "-" +
                                        hex16(hash) + ".ritcase",
                                    repro);
      std::cout << "FAIL iter=" << rit::format_u64(i) << " case="
                << hex16(hash) << " sig=" << outcome.signature
                << (outcome.details.empty() ? "" : " | " + outcome.details)
                << "\n";
      if (stop_after_failures != 0 &&
          result.failures >= stop_after_failures) {
        result.iterations = i + 1;
        rit::write_file_atomic(corpus_dir + "/manifest.txt", manifest.str());
        return result;
      }
    }
  }
  result.iterations = iterations;
  rit::write_file_atomic(corpus_dir + "/manifest.txt", manifest.str());
  return result;
}

void print_loop_summary(const LoopResult& r) {
  std::cout << rit::format_u64(r.iterations) << " iteration(s), "
            << rit::format_u64(r.failures) << " failure(s)\n";
  for (const auto& [sig, count] : r.by_signature) {
    std::cout << "  " << sig << ": " << rit::format_u64(count) << "\n";
  }
}

/// Byte-compares the a/ and b/ corpora of a determinism check. Returns
/// true when both directories hold identical file sets with identical
/// contents.
bool corpora_identical(const std::string& dir_a, const std::string& dir_b) {
  const auto list = [](const std::string& dir) {
    std::map<std::string, std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      files[entry.path().filename().string()] =
          rit::slurp_file(entry.path().string()).value_or("");
    }
    return files;
  };
  const auto a = list(dir_a);
  const auto b = list(dir_b);
  if (a.size() != b.size()) {
    std::cout << "determinism: file counts differ (" << a.size() << " vs "
              << b.size() << ")\n";
    return false;
  }
  for (const auto& [name, content] : a) {
    const auto it = b.find(name);
    if (it == b.end()) {
      std::cout << "determinism: " << name << " only in first run\n";
      return false;
    }
    if (it->second != content) {
      std::cout << "determinism: " << name << " differs between runs\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    rit::cli::Args args(argc, argv);
    const std::uint64_t seed = args.get_u64("seed", 1);
    const std::uint64_t iterations = args.get_u64("iterations", 200);
    const std::string corpus_dir =
        args.get_string("corpus-dir", "fuzz-corpus");
    const bool isolate = args.get_bool("isolate", false);
    const std::string repro_path = args.get_string("repro", "");
    const bool do_shrink = args.get_bool("shrink", false);
    const std::string out_path = args.get_string("out", "");
    const bool expect_failures = args.get_bool("expect-failures", false);
    const bool expect_repro = args.get_bool("expect-repro", false);
    const bool determinism_check = args.get_bool("determinism-check", false);
    const std::uint64_t max_shrink_checks =
        args.get_u64("max-shrink-checks", 2000);
    args.finish();

    if (determinism_check) {
      const LoopResult first =
          run_loop(seed, iterations, corpus_dir + "/a", isolate);
      const LoopResult second =
          run_loop(seed, iterations, corpus_dir + "/b", isolate);
      print_loop_summary(first);
      if (first.failures != second.failures ||
          !corpora_identical(corpus_dir + "/a", corpus_dir + "/b")) {
        std::cerr << "determinism check FAILED: the two runs diverged\n";
        return 2;
      }
      std::cout << "determinism check passed: corpora are bit-identical\n";
      return 0;
    }

    if (!repro_path.empty()) {
      const std::optional<FuzzCase> loaded =
          rit::testkit::load_case_file(repro_path);
      if (!loaded) {
        std::cerr << "error: cannot load repro file " << repro_path
                  << " (missing, corrupt, or checksum mismatch)\n";
        return 2;
      }
      const CaseOutcome outcome = run_check(*loaded, isolate);

      if (do_shrink) {
        if (outcome.ok) {
          std::cerr << "error: " << repro_path
                    << " passes; nothing to shrink\n";
          return 2;
        }
        if (out_path.empty()) {
          std::cerr << "error: --shrink requires --out=FILE\n";
          return 2;
        }
        const rit::testkit::ShrinkResult shrunk = rit::testkit::shrink(
            *loaded, outcome.signature,
            [isolate](const FuzzCase& cand) {
              return run_check(cand, isolate).signature;
            },
            static_cast<std::uint32_t>(max_shrink_checks));
        rit::testkit::write_case_file(out_path, shrunk.best);
        std::cout << "shrunk " << rit::format_u64(loaded->asks.size())
                  << " -> " << rit::format_u64(shrunk.best.asks.size())
                  << " participant(s) in "
                  << rit::format_u64(shrunk.checks_used) << " check(s); "
                  << "wrote " << out_path << "\n";
        return 0;
      }

      if (outcome.ok) {
        if (expect_repro) {
          std::cerr << "error: expected " << repro_path
                    << " to reproduce a failure, but it passed\n";
          return 2;
        }
        std::cout << "repro passed: " << repro_path << "\n";
        return 0;
      }
      std::cout << "repro failed with " << outcome.signature
                << (outcome.details.empty() ? "" : " | " + outcome.details)
                << "\n";
      if (expect_repro) {
        if (!loaded->signature.empty() &&
            loaded->signature != outcome.signature) {
          std::cerr << "error: repro reproduced " << outcome.signature
                    << " but the file records " << loaded->signature << "\n";
          return 2;
        }
        return 0;
      }
      return 1;
    }

    const LoopResult result = run_loop(seed, iterations, corpus_dir, isolate,
                                       expect_failures ? 1 : 0);
    print_loop_summary(result);
    if (expect_failures) {
      if (result.failures == 0) {
        std::cerr << "error: expected the planted bug to be caught within "
                  << rit::format_u64(iterations)
                  << " iteration(s), but every case passed\n";
        return 2;
      }
      std::cout << "planted bug caught as expected\n";
      return 0;
    }
    return result.failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
