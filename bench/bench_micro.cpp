// Micro-benchmarks (google-benchmark) for the hot paths: consensus
// rounding, one CRA round, Extract, the auction phase, the payment phase
// (fast vs reference), the substrate generators, and the tracer's own
// overhead (baseline vs idle-span vs active-span — the idle pair is the
// <2% guarantee from docs/observability.md).
//
// Besides the google-benchmark flags, accepts the output flags every bench
// takes: --out=DIR (default bench_results, "none" writes no file) for
// BENCH_micro.json, and --trace. Tracing is off by default here so span
// recording cannot perturb the numbers; --trace turns it on and writes
// micro.trace.json. The bench's own report (phase breakdown, artifact paths)
// goes to stderr, so --benchmark_format=json leaves one JSON document on
// stdout.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "bench_support.h"
#include "common/check.h"
#include "core/cra.h"
#include "core/extract.h"
#include "core/payment.h"
#include "core/rit.h"
#include "graph/generators.h"
#include "obs/obs.h"
#include "obs/perf_counters.h"
#include "rng/lanes.h"
#include "rng/rng.h"
#include "sim/runner.h"
#include "tree/builders.h"

namespace {

using namespace rit;

// Heap allocations per call of `call`, averaged over `calls` calls outside
// the timed loop. The allocation hook (rit_obs_alloc_hook) counts only
// while the perf counters are armed, and armed counters make every span
// sample, so they are armed here and never around a timed loop. The armed
// warm-up calls let the per-thread span table grow its entries first.
template <typename Call>
double heap_allocs_per_call(benchmark::IterationCount calls, Call&& call) {
  if (calls == 0) return 0.0;
  obs::start_perf_counters();
  for (int warm = 0; warm < 8; ++warm) call();
  const std::uint64_t before = obs::perf_run_totals().alloc_count;
  for (benchmark::IterationCount i = 0; i < calls; ++i) call();
  const std::uint64_t after = obs::perf_run_totals().alloc_count;
  obs::stop_perf_counters();
  return static_cast<double>(after - before) / static_cast<double>(calls);
}

/// Makes `book` complete (core::complete_book), with its value order
/// sorted here once, so an arm times the round without the gather and
/// bucket sorts an Extract book does as it goes.
void complete_sorted(core::ExtractedRuns& book) {
  std::vector<std::uint32_t>& by_value = book.by_value;
  by_value.resize(book.runs.size());
  std::iota(by_value.begin(), by_value.end(), 0u);
  std::stable_sort(by_value.begin(), by_value.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return book.runs[a].value < book.runs[b].value;
                   });
  core::complete_book(book);
}

void BM_ConsensusRoundDown(benchmark::State& state) {
  rng::Rng rng(1);
  std::uint64_t count = 1;
  for (auto _ : state) {
    count = 1 + (count * 2862933555777941757ULL + 3037000493ULL) % (1 << 20);
    benchmark::DoNotOptimize(
        core::consensus_round_down(count, 0.37));
  }
}
BENCHMARK(BM_ConsensusRoundDown);

// The raw-draw scans of one CRA round at paper_sweep's size (about 8k
// users of a type, k ~ U{1..20}): phase 1's Bernoulli(1/(q+m_i)) sample
// with q + m_i = 10000 and the tie-shuffle skip with lcm(2..20). Each runs
// on the CPU's lane kernel (rng/lanes.h) and, in the *Avx2 and *Plain
// arms, on the 4-lane kernel and on the one-draw-at-a-time loop, which
// make the same draws. An arm whose kernel the CPU lacks is skipped.
bool kernel_runs(benchmark::State& state, rng::detail::LaneKernel kernel) {
  if (rng::detail::supports(kernel)) return true;
  state.SkipWithError("this CPU lacks the kernel's instruction set");
  return false;
}

void rng_bits(benchmark::State& state, rng::detail::LaneKernel kernel) {
  if (!kernel_runs(state, kernel)) return;
  const auto count = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t t = rng::Rng::bernoulli_threshold(1.0 / 10000.0);
  rng::Xoshiro256StarStar engine(3);
  std::vector<std::uint64_t> bits;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rng::detail::bernoulli_bits(engine, count, t, bits, kernel));
  }
}

void rng_skip(benchmark::State& state, rng::detail::LaneKernel kernel) {
  if (!kernel_runs(state, kernel)) return;
  const auto count = static_cast<std::uint64_t>(state.range(0));
  rng::Xoshiro256StarStar engine(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rng::detail::skip_filtered(engine, count, 232792560, kernel));
  }
}

void BM_RngBernoulliBits(benchmark::State& state) {
  rng_bits(state, rng::detail::host_kernel());
}
void BM_RngBernoulliBitsAvx2(benchmark::State& state) {
  rng_bits(state, rng::detail::LaneKernel::kAvx2);
}
void BM_RngBernoulliBitsPlain(benchmark::State& state) {
  rng_bits(state, rng::detail::LaneKernel::kPlain);
}
void BM_RngSkipUniformIndices(benchmark::State& state) {
  rng_skip(state, rng::detail::host_kernel());
}
void BM_RngSkipUniformIndicesAvx2(benchmark::State& state) {
  rng_skip(state, rng::detail::LaneKernel::kAvx2);
}
void BM_RngSkipUniformIndicesPlain(benchmark::State& state) {
  rng_skip(state, rng::detail::LaneKernel::kPlain);
}
BENCHMARK(BM_RngBernoulliBits)->Arg(84000)->Arg(63000);
BENCHMARK(BM_RngBernoulliBitsAvx2)->Arg(84000)->Arg(63000);
BENCHMARK(BM_RngBernoulliBitsPlain)->Arg(84000)->Arg(63000);
BENCHMARK(BM_RngSkipUniformIndices)->Arg(76000);
BENCHMARK(BM_RngSkipUniformIndicesAvx2)->Arg(76000);
BENCHMARK(BM_RngSkipUniformIndicesPlain)->Arg(76000);

// The CRA round on n all-distinct unit asks, each a one-unit run of a
// complete book built outside the timed loop, with a reused workspace.
// heap_allocs_per_round must be ~0 at steady state.
void BM_CraRoundWorkspace(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  rng::Rng gen(2);
  core::ExtractedRuns book;
  for (std::uint32_t i = 0; i < n; ++i) {
    book.runs.push_back(
        core::AskRun{gen.uniform_real_left_open(0.0, 10.0), i, 1});
  }
  complete_sorted(book);
  rng::Rng rng(3);
  core::CraParams params;
  params.q = n / 8 + 1;
  params.m_i = n / 8 + 1;
  core::CraWorkspace ws;
  core::CraOutcome out;
  // One warm-up round grows every scratch buffer to its high-water mark;
  // from then on the hot path must not touch the heap.
  core::run_cra_runs(book, params, rng, ws, out);
  for (auto _ : state) {
    core::run_cra_runs(book, params, rng, ws, out);
    benchmark::DoNotOptimize(out.num_winners);
  }
  state.counters["heap_allocs_per_round"] =
      benchmark::Counter(heap_allocs_per_call(state.iterations(), [&] {
        core::run_cra_runs(book, params, rng, ws, out);
      }));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CraRoundWorkspace)->Arg(1000)->Arg(10000)->Arg(100000);

// The CRA round in the run form RIT calls (run_cra_runs) on an Extract-
// shaped book: one run of k ~ U{1..20} equal asks per user, users in order,
// pairwise-distinct values. Arg 0 is the user count; arg 1 the target band
// ratio in percent, i.e. the share of unit asks at or below the threshold:
// q + m_i is set to that share of |alpha| (the sample minimum sits near
// rank q + m_i), and 100 sets it to 1000 |alpha| so the sample is almost
// always empty and the whole book is the band. Arg 2, when nonzero, is
// m_i instead, with q = m_i (the first round of a type). Reports the
// measured band ratio and heap allocations per round, which must be 0: the
// round reserves the buffers whose fill follows its random draws to their
// bounds. The book is complete (complete_sorted), outside the timed loop.
void BM_CraRoundUnitRuns(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  const auto band_pct = static_cast<std::uint64_t>(state.range(1));
  rng::Rng gen(5);
  core::ExtractedRuns book;
  std::uint32_t units = 0;
  for (std::size_t u = 0; u < users; ++u) {
    const double v = gen.uniform_real_left_open(0.0, 10.0);
    const auto len = static_cast<std::uint32_t>(gen.uniform_int(1, 20));
    book.runs.push_back(core::AskRun{v, units, len});
    units += len;
  }
  complete_sorted(book);
  core::CraParams params;
  if (state.range(2) > 0) {
    params.m_i = static_cast<std::uint32_t>(state.range(2));
    params.q = params.m_i;
  } else {
    const std::uint64_t budget =
        band_pct >= 100 ? 1000 * std::uint64_t{units} : units * band_pct / 100;
    params.q = static_cast<std::uint32_t>(budget / 2);
    params.m_i = static_cast<std::uint32_t>(budget - budget / 2);
  }
  rng::Rng rng(6);
  core::CraWorkspace ws;
  core::CraOutcome out;
  core::run_cra_runs(book, params, rng, ws, out);
  std::uint64_t band_asks = 0;
  for (auto _ : state) {
    core::run_cra_runs(book, params, rng, ws, out);
    band_asks += out.raw_count;
    benchmark::DoNotOptimize(out.num_winners);
  }
  const double rounds = static_cast<double>(state.iterations());
  state.counters["heap_allocs_per_round"] =
      benchmark::Counter(heap_allocs_per_call(state.iterations(), [&] {
        core::run_cra_runs(book, params, rng, ws, out);
      }));
  state.counters["band_ratio"] = benchmark::Counter(
      rounds > 0 ? static_cast<double>(band_asks) /
                       (rounds * static_cast<double>(units))
                 : 0.0);
  state.counters["unit_asks"] = benchmark::Counter(static_cast<double>(units));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(units));
}
// 60000/1 is the shape of the bench_scale 1M rung: about 1% of the book
// is in the band and the rest only replays its draws. 8000 users at
// q = m_i = 66,000 is one type of perfbench's tight_market, whose whole
// book can win.
BENCHMARK(BM_CraRoundUnitRuns)
    ->Args({6000, 14, 0})
    ->Args({6000, 100, 0})
    ->Args({60000, 1, 0})
    ->Args({8000, 0, 66000});

// 10 types, k ~ U{1..20}, values in (0, 10]; with `cents` > 0 each value
// is rounded up to a multiple of cents / 100, so users tie.
std::vector<core::Ask> make_market(std::size_t users, std::uint64_t seed,
                                   std::int64_t cents = 0) {
  rng::Rng rng(seed);
  std::vector<core::Ask> asks;
  asks.reserve(users);
  for (std::size_t j = 0; j < users; ++j) {
    asks.push_back(core::Ask{
        TaskType{static_cast<std::uint32_t>(rng.uniform_index(10))},
        static_cast<std::uint32_t>(rng.uniform_int(1, 20)),
        rng.uniform_real_left_open(0.0, 10.0)});
    if (cents > 0) {
      const double quantum = static_cast<double>(cents) / 100.0;
      asks.back().value = std::ceil(asks.back().value / quantum) * quantum;
    }
  }
  return asks;
}

// Extract in the run form RIT's auction loop uses: one type's runs and
// their value order from the per-type index. The second arg picks the
// round: 0 is the first, where nobody has won yet and the value order is
// the index's, shifted; 1 is a later one, where a quarter of the users are
// exhausted and drop out and another quarter are partly filled.
void BM_Extract(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<core::Ask> asks = make_market(n, 4);
  core::AskTypeIndex index;
  index.build(10, asks);
  std::vector<std::uint32_t> allocation(n, 0);
  if (state.range(1) == 1) {
    rng::Rng rng(5);
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t pick = rng.uniform_index(4);
      if (pick == 0) allocation[j] = asks[j].quantity;
      if (pick == 1) {
        allocation[j] =
            static_cast<std::uint32_t>(rng.uniform_index(asks[j].quantity));
      }
    }
  }
  core::ExtractedRuns out;
  for (auto _ : state) {
    core::extract_runs_into(TaskType{3}, index, allocation, out);
    benchmark::DoNotOptimize(out.runs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Extract)
    ->Args({10000, 0})
    ->Args({80000, 0})
    ->Args({80000, 1})
    ->Args({100000, 0});

// The per-auction index build: the per-type CSR and each type's value
// bucket scatter and tie check, on a warm index (make_market; the second
// arg is its `cents`: 0 for continuous values, 1 for values on a 0.01
// grid, about 8 users a value). The buckets of at most 8 slots are sorted
// later, as CRA bands reach them; BM_TypeIndexSortAll adds sorting all of
// them, what a round whose band is the whole book asks for.
// heap_allocs_per_build must be 0: every buffer keeps its capacity.
void BM_TypeIndexBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<core::Ask> asks = make_market(n, 4, state.range(1));
  core::AskTypeIndex index;
  index.build(10, asks);
  for (auto _ : state) {
    index.build(10, asks);
    benchmark::DoNotOptimize(index.by_value.data());
  }
  state.counters["heap_allocs_per_build"] = benchmark::Counter(
      heap_allocs_per_call(state.iterations(), [&] { index.build(10, asks); }));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TypeIndexBuild)
    ->Args({80000, 0})
    ->Args({80000, 1})
    ->Args({1000000, 0});

void BM_TypeIndexSortAll(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<core::Ask> asks = make_market(n, 4, state.range(1));
  core::AskTypeIndex index;
  const auto build_sorted = [&] {
    index.build(10, asks);
    for (std::uint32_t t = 0; t < 10; ++t) {
      index.sort_through(t, std::numeric_limits<double>::infinity());
    }
  };
  build_sorted();
  for (auto _ : state) {
    build_sorted();
    benchmark::DoNotOptimize(index.by_value.data());
  }
  state.counters["heap_allocs_per_build"] = benchmark::Counter(
      heap_allocs_per_call(state.iterations(), build_sorted));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TypeIndexSortAll)
    ->Args({80000, 0})
    ->Args({80000, 1})
    ->Args({1000000, 0});

// The whole auction phase (Extract, CRA rounds, write-back) on a warm
// workspace and result, at the repo benchmark's market shapes: 80k users
// and 10 types with k ~ U{1..20}, run to completion, at m_i = 5000 (the
// paper_sweep shape) and m_i = 66000 (tight_market). The third arg is
// make_market's `cents`: at 1, users tie on a 0.01 grid, so phase 2 walks
// real tie groups, which the continuous arms and the repo benchmark never
// reach. heap_allocs_per_run must be 0: as in BM_CraRoundUnitRuns, each
// CRA round reserves the buffers whose fill follows its random draws (the
// step-5 pool, the bitmaps and the band's tie expansion) to their bounds,
// and the warm-up run sizes the rest.
void BM_AuctionPhaseWorkspace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m_i = static_cast<std::uint32_t>(state.range(1));
  const std::vector<core::Ask> asks = make_market(n, 10, state.range(2));
  const core::Job job = core::Job::uniform(10, m_i);
  core::RitConfig cfg;
  cfg.round_budget_policy = core::RoundBudgetPolicy::kRunToCompletion;
  rng::Rng rng(11);
  core::RitWorkspace ws;
  core::RitResult out;
  core::run_auction_phase_into(job, asks, cfg, rng, ws, out);
  for (auto _ : state) {
    core::run_auction_phase_into(job, asks, cfg, rng, ws, out);
    benchmark::DoNotOptimize(out.auction_payment.data());
  }
  state.counters["heap_allocs_per_run"] =
      benchmark::Counter(heap_allocs_per_call(state.iterations(), [&] {
        core::run_auction_phase_into(job, asks, cfg, rng, ws, out);
      }));
}
BENCHMARK(BM_AuctionPhaseWorkspace)
    ->Args({80000, 5000, 0})
    ->Args({80000, 66000, 0})
    ->Args({80000, 5000, 1})
    ->Args({80000, 66000, 1})
    ->Unit(benchmark::kMillisecond);

struct PaymentFixtureData {
  tree::IncentiveTree tree = tree::IncentiveTree::root_only();
  std::vector<TaskType> types;
  std::vector<double> payments;
};

PaymentFixtureData make_payment_data(std::uint32_t n) {
  rng::Rng rng(5);
  PaymentFixtureData d;
  d.tree = tree::random_recursive_tree(n, 0.05, rng);
  d.types.resize(n);
  d.payments.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    d.types[i] = TaskType{static_cast<std::uint32_t>(rng.uniform_index(10))};
    d.payments[i] = rng.bernoulli(0.3) ? rng.uniform01() * 10.0 : 0.0;
  }
  return d;
}

// The production pass with a fresh workspace and output per call.
void BM_PaymentPhaseFast(benchmark::State& state) {
  const auto d = make_payment_data(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    core::PaymentWorkspace ws;
    std::vector<double> out;
    core::tree_payments_into(d.tree, d.types, d.payments, 0.5, 1, ws, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_PaymentPhaseFast)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PaymentPhaseReference(benchmark::State& state) {
  const auto d = make_payment_data(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::tree_payments_reference(d.tree, d.types, d.payments, 0.5));
  }
}
BENCHMARK(BM_PaymentPhaseReference)->Arg(1000)->Arg(10000);

// Payment pass through a reused workspace: heap_allocs_per_run must be 0
// once the workspace has grown.
void BM_PaymentPhaseWorkspace(benchmark::State& state) {
  const auto d = make_payment_data(static_cast<std::uint32_t>(state.range(0)));
  core::PaymentWorkspace ws;
  std::vector<double> out;
  core::tree_payments_into(d.tree, d.types, d.payments, 0.5, 1, ws, out);
  for (auto _ : state) {
    core::tree_payments_into(d.tree, d.types, d.payments, 0.5, 1, ws, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["heap_allocs_per_run"] =
      benchmark::Counter(heap_allocs_per_call(state.iterations(), [&] {
        core::tree_payments_into(d.tree, d.types, d.payments, 0.5, 1, ws, out);
      }));
}
BENCHMARK(BM_PaymentPhaseWorkspace)->Arg(100000);

// The payment pass (payment.extract) on the workloads' tree shape: a
// Barabási–Albert forest (m = 3, 10 initial joiners), 10 task types, and a
// tight-market share of winners (80% of users paid, in (0, 10]), through a
// reused workspace. heap_allocs_per_run must be 0.
void BM_PaymentPhaseBaForest(benchmark::State& state) {
  rng::Rng rng(9);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const tree::IncentiveTree tree = tree::barabasi_albert_forest(n, 3, 10, rng);
  std::vector<TaskType> types(n);
  std::vector<double> payments(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    types[i] = TaskType{static_cast<std::uint32_t>(rng.uniform_index(10))};
    payments[i] = rng.bernoulli(0.8) ? rng.uniform01() * 10.0 : 0.0;
  }
  core::PaymentWorkspace ws;
  std::vector<double> out;
  const auto run = [&] {
    core::tree_payments_into(tree, types, payments, 0.5, 1, ws, out);
  };
  run();
  for (auto _ : state) {
    run();
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["heap_allocs_per_run"] =
      benchmark::Counter(heap_allocs_per_call(state.iterations(), run));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PaymentPhaseBaForest)->Arg(80000)->Arg(1000000)->Unit(
    benchmark::kMillisecond);

void BM_BarabasiAlbert(benchmark::State& state) {
  rng::Rng rng(6);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::barabasi_albert(n, 3, rng));
  }
}
BENCHMARK(BM_BarabasiAlbert)->Arg(10000)->Arg(50000);

// The Graph constructor alone (counting-sort CSR build) on a pre-drawn BA
// edge list in the generator's emission order, grouped by newcomer.
void BM_GraphCsrBuild(benchmark::State& state) {
  rng::Rng rng(6);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<graph::Edge> drawn = graph::barabasi_albert(n, 3, rng).edges();
  std::stable_sort(drawn.begin(), drawn.end(),
                   [](const graph::Edge& a, const graph::Edge& b) {
                     return a.to < b.to;
                   });
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<graph::Edge> edges = drawn;
    state.ResumeTiming();
    benchmark::DoNotOptimize(graph::Graph(n, std::move(edges)));
  }
}
BENCHMARK(BM_GraphCsrBuild)->Arg(80000)->Arg(1000000)->Unit(
    benchmark::kMillisecond);

// BA arms have dense BFS waves (bitmap wave order); the deep path arm has
// one claim per wave and guards the density rule that keeps it on the
// comparison sort (a bitmap scan per wave would make it quadratic).
void BM_SpanningForest(benchmark::State& state, bool deep) {
  rng::Rng rng(7);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto g = deep ? graph::path(n) : graph::barabasi_albert(n, 3, rng);
  tree::SpanningForestOptions opts;
  opts.seeds = {0, 1, 2, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree::build_spanning_forest(g, opts));
  }
}
BENCHMARK_CAPTURE(BM_SpanningForest, ba, false)
    ->Arg(10000)
    ->Arg(50000)
    ->Arg(80000);
BENCHMARK_CAPTURE(BM_SpanningForest, path, true)->Arg(100000);

// The trial's forest, built during the Barabási–Albert draws with the
// paper defaults (m = 3, 10 initial joiners): draws, waves, join order and
// the IncentiveTree layout. BM_BarabasiAlbert and BM_SpanningForest/ba
// time the graph CSR and BFS path, which the trial does not take.
void BM_BarabasiAlbertForest(benchmark::State& state) {
  rng::Rng rng(8);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree::barabasi_albert_forest(n, 3, 10, rng));
  }
}
BENCHMARK(BM_BarabasiAlbertForest)->Arg(80000)->Arg(1000000)->Unit(
    benchmark::kMillisecond);

// The IncentiveTree constructor alone on an 80k trial forest's parent
// vector: `topological` as the builder emits it (every parent below its
// child), `general` with the participants relabeled by a random
// permutation, so most parents point forward and the stack DFS runs.
void BM_IncentiveTreeLayout(benchmark::State& state, bool topological) {
  rng::Rng rng(8);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<std::uint32_t> parents =
      tree::barabasi_albert_forest(n, 3, 10, rng).parents();
  if (!topological) {
    std::vector<std::uint32_t> relabel(parents.size());
    std::iota(relabel.begin(), relabel.end(), std::uint32_t{0});
    rng.shuffle(std::span<std::uint32_t>(relabel).subspan(1));
    std::vector<std::uint32_t> shuffled(parents.size(), 0);
    for (std::size_t v = 1; v < parents.size(); ++v) {
      shuffled[relabel[v]] = relabel[parents[v]];
    }
    parents = std::move(shuffled);
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::uint32_t> copy = parents;
    state.ResumeTiming();
    benchmark::DoNotOptimize(tree::IncentiveTree(std::move(copy)));
  }
}
BENCHMARK_CAPTURE(BM_IncentiveTreeLayout, topological, true)->Arg(80000);
BENCHMARK_CAPTURE(BM_IncentiveTreeLayout, general, false)->Arg(80000);

// A whole trial instance with the paper defaults (BA, m = 3, 10 initial
// joiners): the forest built during the graph draws, then population and
// job. BM_SpanningForest is the arm for the generic graph + BFS path.
void BM_MakeInstance(benchmark::State& state) {
  sim::Scenario s;
  s.num_users = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t trial = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::make_instance(s, trial++));
  }
}
BENCHMARK(BM_MakeInstance)->Arg(80000)->Arg(1000000)->Unit(
    benchmark::kMillisecond);

void BM_FullRit(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  rng::Rng setup(8);
  std::vector<core::Ask> asks;
  for (std::uint32_t j = 0; j < n; ++j) {
    asks.push_back(core::Ask{
        TaskType{static_cast<std::uint32_t>(setup.uniform_index(10))},
        static_cast<std::uint32_t>(setup.uniform_int(1, 20)),
        setup.uniform_real_left_open(0.0, 10.0)});
  }
  const auto t = tree::random_recursive_tree(n, 0.05, setup);
  const core::Job job = core::Job::uniform(10, n / 20);
  core::RitConfig cfg;
  cfg.round_budget_policy = core::RoundBudgetPolicy::kRunToCompletion;
  rng::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_rit(job, asks, t, cfg, rng));
  }
}
BENCHMARK(BM_FullRit)->Arg(5000)->Arg(20000);

// Same mechanism runs, but with per-thread scratch reuse (the path every
// sweep now takes). The delta against BM_FullRit is the allocator time the
// workspaces save per trial.
void BM_FullRitWorkspace(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  rng::Rng setup(8);
  std::vector<core::Ask> asks;
  for (std::uint32_t j = 0; j < n; ++j) {
    asks.push_back(core::Ask{
        TaskType{static_cast<std::uint32_t>(setup.uniform_index(10))},
        static_cast<std::uint32_t>(setup.uniform_int(1, 20)),
        setup.uniform_real_left_open(0.0, 10.0)});
  }
  const auto t = tree::random_recursive_tree(n, 0.05, setup);
  const core::Job job = core::Job::uniform(10, n / 20);
  core::RitConfig cfg;
  cfg.round_budget_policy = core::RoundBudgetPolicy::kRunToCompletion;
  rng::Rng rng(9);
  core::RitWorkspace ws;
  for (auto _ : state) {
    core::RitResult r;
    core::run_rit_into(job, asks, t, cfg, rng, ws, r);
    benchmark::DoNotOptimize(r.payment.data());
  }
}
BENCHMARK(BM_FullRitWorkspace)->Arg(5000)->Arg(20000);

// The sweep engines' actual steady state: workspace AND result reuse via
// run_rit_into. After the warm-up run grows every buffer to its high-water
// mark, a whole mechanism run (auction rounds + extraction + payment pass)
// must perform ~0 heap allocations — the heap_allocs_per_trial counter is
// the acceptance number for the flat-SoA hot path.
void BM_FullRitSteadyState(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  rng::Rng setup(8);
  std::vector<core::Ask> asks;
  for (std::uint32_t j = 0; j < n; ++j) {
    asks.push_back(core::Ask{
        TaskType{static_cast<std::uint32_t>(setup.uniform_index(10))},
        static_cast<std::uint32_t>(setup.uniform_int(1, 20)),
        setup.uniform_real_left_open(0.0, 10.0)});
  }
  const auto t = tree::random_recursive_tree(n, 0.05, setup);
  const core::Job job = core::Job::uniform(10, n / 20);
  core::RitConfig cfg;
  cfg.round_budget_policy = core::RoundBudgetPolicy::kRunToCompletion;
  rng::Rng rng(9);
  core::RitWorkspace ws;
  core::RitResult out;
  core::run_rit_into(job, asks, t, cfg, rng, ws, out);
  for (auto _ : state) {
    core::run_rit_into(job, asks, t, cfg, rng, ws, out);
    benchmark::DoNotOptimize(out.payment.data());
  }
  state.counters["heap_allocs_per_trial"] =
      benchmark::Counter(heap_allocs_per_call(state.iterations(), [&] {
        core::run_rit_into(job, asks, t, cfg, rng, ws, out);
      }));
}
BENCHMARK(BM_FullRitSteadyState)->Arg(5000)->Arg(20000);

// --- Tracer overhead -------------------------------------------------------
// A fixed arithmetic payload (~100-200 ns) bracketed three ways. Comparing
// BM_TracerIdleSpan against BM_TracerBaseline measures the cost of an
// instrumented-but-idle span (one relaxed atomic load): the <2% overhead
// guarantee. BM_TracerActiveSpan shows the full recording cost.

double overhead_payload(std::uint64_t& x) {
  double acc = 0.0;
  for (int i = 0; i < 64; ++i) {
    x = x * 2862933555777941757ULL + 3037000493ULL;
    acc += static_cast<double>(x >> 40);
  }
  return acc;
}

void BM_TracerBaseline(benchmark::State& state) {
  std::uint64_t x = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(overhead_payload(x));
  }
}
BENCHMARK(BM_TracerBaseline);

void BM_TracerIdleSpan(benchmark::State& state) {
  const bool was_active = rit::obs::tracing_active();
  rit::obs::stop_tracing();
  std::uint64_t x = 1;
  for (auto _ : state) {
    RIT_TRACE_SPAN("micro.payload");
    benchmark::DoNotOptimize(overhead_payload(x));
  }
  if (was_active) rit::obs::detail::g_active.store(true);
}
BENCHMARK(BM_TracerIdleSpan);

void BM_TracerActiveSpan(benchmark::State& state) {
  const bool was_active = rit::obs::tracing_active();
  rit::obs::start_tracing();
  std::uint64_t x = 1;
  std::uint64_t n = 0;
  for (auto _ : state) {
    RIT_TRACE_SPAN("micro.payload");
    benchmark::DoNotOptimize(overhead_payload(x));
    // Recycle the buffer well before the capacity cap so the benchmark keeps
    // measuring the record path, not the overflow-drop path.
    if (++n % 65536 == 0) rit::obs::clear_trace();
  }
  rit::obs::clear_trace();
  if (!was_active) rit::obs::stop_tracing();
}
BENCHMARK(BM_TracerActiveSpan);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);  // consumes --benchmark_* flags

  rit::bench::BenchOptions opts;
  opts.name = "micro";
  try {
    rit::cli::Args args(argc, argv);
    rit::bench::read_output_flags(args, opts);
    args.finish();
  } catch (const rit::CheckFailure& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  opts.start_ns = rit::obs::trace_now_ns();
  if (opts.trace) rit::obs::start_tracing();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  rit::bench::finish(opts, std::cerr);
  return 0;
}
