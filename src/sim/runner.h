// One trial: generates an instance from a Scenario and measures both the
// auction phase and the full RIT mechanism on it. Sweeps of many trials run
// through the guarded engine (sim/guarded.h).
#pragma once

#include "core/rit.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "sim/workload.h"

namespace rit::sim {

/// The fully-materialized instance for one trial (exposed so the Fig. 9
/// bench and the property tests can mutate it before running mechanisms).
struct TrialInstance {
  Population population;
  core::Job job;
  tree::IncentiveTree tree;
  std::uint64_t mechanism_seed{0};
};

/// Draws the instance for (scenario, trial): graph, tree, population, job.
/// Component streams are independent, so e.g. enlarging the population does
/// not change the job draw. A Barabási–Albert graph is never materialized:
/// its forest is built during the draws (see generate_tree).
TrialInstance make_instance(const Scenario& scenario, std::uint64_t trial);

/// The mechanism-component seed make_instance would assign this trial
/// (TrialInstance::mechanism_seed without materializing the instance) —
/// what a fault ledger records so one trial can be re-run in isolation.
std::uint64_t mechanism_seed_of(const Scenario& scenario, std::uint64_t trial);

/// Runs the auction phase and the full mechanism on one instance with the
/// *same* mechanism randomness (paired streams: phase-1 results coincide,
/// so the two series in Figs. 6-8 differ only by the payment phase). The
/// mechanism's per-round buffers live in `ws`; keep one per thread, as the
/// guarded engine (sim/guarded.h) does per worker.
TrialMetrics run_trial(const Scenario& scenario, const TrialInstance& inst,
                       core::RitWorkspace& ws);

}  // namespace rit::sim
