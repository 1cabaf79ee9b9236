// Figs. 6(a), 7(a) and 8(a): average user utility, total payment and
// running time vs number of users, from one sweep.
// Paper setup: m_i = 5000 per type, n = 40000..80000, H = 0.8, 1000 trials.
#include "figure_sweeps.h"

int main(int argc, char** argv) {
  using namespace rit::bench;
  const BenchOptions opts = parse_options(argc, argv, "fig678a_users", 3);
  run_figures(opts, Sweep::kUsers);
  finish(opts);
  return 0;
}
