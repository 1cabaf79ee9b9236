// Figs. 6(b), 7(b) and 8(b): average user utility, total payment and
// running time vs number of tasks per type, from one sweep.
// Paper setup: n = 30000, m_i = 1000..3000, H = 0.8.
#include "figure_sweeps.h"

int main(int argc, char** argv) {
  using namespace rit::bench;
  const BenchOptions opts = parse_options(argc, argv, "fig678b_tasks", 3);
  run_figures(opts, Sweep::kTasks);
  finish(opts);
  return 0;
}
