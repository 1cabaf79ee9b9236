// Deterministic strided work distribution: the one primitive every
// multi-threaded sweep in the tree shares.
//
// Worker w handles items w, w+T, w+2T, ... — a static partition with no
// work stealing, so which worker ran which item is a pure function of
// (items, threads). Callers that keep per-worker accumulators and merge
// them in worker-index order therefore get results that are independent of
// scheduling. The trial engines on it: the guarded engine (sim/guarded.h),
// and the own trial loops of seven benches (ablation_consensus, _dropout,
// _graph, _gridbase, _h_sweep, _supply, related_mechanisms) and of
// attack::run_sybil_experiment, each indexing one context per worker.
#pragma once

#include <cstdint>
#include <functional>

namespace rit {

/// Resolves a user-facing thread-count knob: 0 means "one per hardware
/// thread"; the result is clamped to [1, max(items, 1)] so no worker is
/// ever idle by construction.
unsigned resolve_threads(unsigned threads, std::uint64_t items);

/// Runs body(index, worker) for every index in [0, items), strided across
/// `threads` workers (after resolve_threads). With a resolved count of 1
/// the loop runs inline on the calling thread — no thread is spawned, so
/// the execution (and any RNG or accumulator state the body touches) is
/// bit-for-bit the plain serial loop.
void parallel_for_strided(
    std::uint64_t items, unsigned threads,
    const std::function<void(std::uint64_t, unsigned)>& body);

}  // namespace rit
