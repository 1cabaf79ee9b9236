// The two parameter sweeps behind Figs. 6-8, each run once for its three
// figures.
//
// Fig. 6(a)/7(a)/8(a): m_i = 5000 per type, n swept over [40000, 80000]
// (step 1000 in the paper); Fig. 6(b)/7(b)/8(b): n = 30000, m_i swept over
// [1000, 3000] (step 100). Population/job sizes divide by --scale.
#pragma once

#include "bench_support.h"

namespace rit::bench {

enum class Sweep {
  kUsers,  // the "(a)" panels: sweep the user count
  kTasks,  // the "(b)" panels: sweep the per-type demand
};

/// Runs `sweep` once and emits the Fig. 6, 7 and 8 tables of its panel
/// from the same points, each with its CSV and SVG (stems
/// fig6a_utility_vs_users ... fig8b_runtime_vs_tasks).
void run_figures(const BenchOptions& opts, Sweep sweep);

}  // namespace rit::bench
