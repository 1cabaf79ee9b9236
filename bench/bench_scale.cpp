// Million-user scale ladder: one full trial (forest -> RIT) at
// each population rung N in {1e5, 3e5, 1e6, 3e6, 1e7} divided by --scale
// (default 10, so the stock run tops out at one million users; --scale=1
// climbs to ten million). Demand scales with the population (m_i = N/200,
// i.e. total demand = 5% of users) so every rung exercises the same
// supply/demand regime and the series isolates how runtime grows with N.
//
// The default Barabási–Albert graph is never built: the trial's forest is
// computed during the graph draws (tree::barabasi_albert_forest).
//
// This is the harness behind docs/scaling.md: combine with
// --perf-counters for per-phase hardware counters.
// --intra-threads=N is accepted but reaches no parallel pass: every pass
// inside a trial is serial.
#include "bench_support.h"

#include "common/log.h"
#include "obs/trace.h"

int main(int argc, char** argv) {
  using namespace rit::bench;
  const BenchOptions opts = parse_options(argc, argv, "scale", 1);

  constexpr std::uint64_t kPaperLadder[] = {100000, 300000, 1000000, 3000000,
                                            10000000};

  std::vector<std::vector<double>> rows;
  for (std::uint64_t paper_n : kPaperLadder) {
    rit::sim::Scenario s;
    s.num_types = 10;
    s.k_max = 20;
    s.cost_max = 10.0;
    s.mechanism.h = 0.8;
    s.initial_joiners = 10;
    apply_options(opts, s);
    s.num_users = scaled(paper_n, opts.scale, 100);
    s.tasks_per_type = scaled(paper_n / 200, opts.scale, 10);

    const rit::log::Field fields[] = {
        {"n", std::to_string(paper_n)},
        {"users", std::to_string(s.num_users)},
        {"tasks_per_type", std::to_string(s.tasks_per_type)},
        {"intra_threads", std::to_string(opts.intra_threads)}};
    rit::log::emit(rit::log::Level::kInfo, "scale rung", fields);

    const std::uint64_t t0 = rit::obs::trace_now_ns();
    const rit::sim::AggregateMetrics m = run_point(opts, s);
    const double rung_wall_ms =
        static_cast<double>(rit::obs::trace_now_ns() - t0) / 1e6;

    rows.push_back({static_cast<double>(s.num_users),
                    static_cast<double>(s.tasks_per_type),
                    rung_wall_ms / static_cast<double>(opts.trials),
                    m.runtime_auction_ms.mean(), m.runtime_rit_ms.mean(),
                    m.runtime_rit_ms.max(), m.success_rate()});
  }

  const std::vector<std::string> header{
      "users",  "tasks_per_type", "trial_wall_ms", "auction_ms",
      "RIT_ms", "RIT_max_ms",     "success_rate"};
  emit("Scale ladder — per-trial runtime vs population", opts, header, rows);
  emit_svg("Scale ladder: runtime vs users", opts, header, rows, {2, 3, 4});
  finish(opts);
  return 0;
}
