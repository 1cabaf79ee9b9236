#include "figure_sweeps.h"

#include <string>
#include <vector>

#include "common/log.h"
#include "sim/runner.h"

namespace rit::bench {

namespace {
constexpr std::uint32_t kPaperUsersLo = 40000;
constexpr std::uint32_t kPaperUsersHi = 80000;
constexpr std::uint32_t kPaperTasksPerType = 5000;

constexpr std::uint32_t kPaperDemandLo = 1000;
constexpr std::uint32_t kPaperDemandHi = 3000;
constexpr std::uint32_t kPaperUsersFixed = 30000;

struct SweepPoint {
  std::uint32_t x;  // the swept parameter at paper scale (pre-division)
  sim::AggregateMetrics metrics;
};

sim::Scenario base_scenario(const BenchOptions& opts) {
  sim::Scenario s;
  s.num_types = 10;  // the paper's m = 10
  s.k_max = 20;      // k_j ~ U(0, 20]
  s.cost_max = 10.0; // a_j ~ U(0, 10]
  s.mechanism.h = 0.8;
  s.initial_joiners = 10;
  apply_options(opts, s);
  return s;
}

std::vector<SweepPoint> run_sweep(const BenchOptions& opts, Sweep sweep) {
  const bool sweep_is_users = sweep == Sweep::kUsers;
  std::vector<SweepPoint> out;
  for (std::uint32_t x :
       sweep_is_users ? linspace(kPaperUsersLo, kPaperUsersHi, opts.points)
                      : linspace(kPaperDemandLo, kPaperDemandHi, opts.points)) {
    sim::Scenario s = base_scenario(opts);
    if (sweep_is_users) {
      s.num_users = scaled(x, opts.scale, 100);
      s.tasks_per_type = scaled(kPaperTasksPerType, opts.scale, 10);
    } else {
      s.num_users = scaled(kPaperUsersFixed, opts.scale, 100);
      s.tasks_per_type = scaled(x, opts.scale, 10);
    }
    // Through rit::log (not raw stderr) so --json-logs reshapes these too.
    const log::Field fields[] = {
        {sweep_is_users ? "n" : "m_i", std::to_string(x)},
        {"users", std::to_string(s.num_users)},
        {"tasks_per_type", std::to_string(s.tasks_per_type)}};
    log::emit(log::Level::kInfo, "sweep point", fields);
    out.push_back(SweepPoint{
        x, run_point(opts, s,
                     [&](std::uint64_t done, std::uint64_t total) {
                       const log::Field pf[] = {
                           {"done", std::to_string(done)},
                           {"total", std::to_string(total)}};
                       log::emit(log::Level::kInfo, "progress", pf);
                     })});
  }
  return out;
}

// One figure's table: a row of x and the columns of a point's metrics.
struct Figure {
  const char* number;     // "6", "7" or "8"
  const char* stem;       // between "fig6a_" and "_vs_users"
  const char* title;      // the table banner's metric
  const char* svg_title;  // the chart title's (shorter) metric
  std::vector<std::string> columns;  // after the x column
  int precision;
  std::vector<double> (*row)(double x, const sim::AggregateMetrics&);
};

const Figure kFigures[] = {
    // Fig. 6: average user utility. Both series fall with n (fiercer
    // competition lowers auction payments) and rise with the job size; RIT
    // sits above the auction phase because the payment determination
    // phase adds solicitation rewards.
    {"6", "utility", "average user utility", "avg user utility",
     {"auction_phase", "RIT", "RIT_ci95", "success_rate", "tasks_alloc"}, 4,
     [](double x, const sim::AggregateMetrics& m) {
       return std::vector<double>{
           x, m.avg_utility_auction.mean(), m.avg_utility_rit.mean(),
           m.avg_utility_rit.ci95_half_width(), m.success_rate(),
           m.tasks_allocated.mean()};
     }},
    // Fig. 7: total platform payment. Roughly flat in n (cheaper prices
    // offset the growing solicitation pool), increasing in the job size;
    // the RIT premium is bounded by the total auction payment (Sec. 7-C).
    {"7", "payment", "total payment", "total payment",
     {"auction_phase", "RIT", "premium", "success_rate"}, 2,
     [](double x, const sim::AggregateMetrics& m) {
       return std::vector<double>{
           x, m.total_payment_auction.mean(), m.total_payment_rit.mean(),
           m.solicitation_premium.mean(), m.success_rate()};
     }},
    // Fig. 8: running time. Approximately linear in n and in |J| for both
    // series (Theorem 3: O(N |J|)); the payment determination phase adds
    // only O(N log N) on top.
    {"8", "runtime", "running time (ms)", "running time",
     {"auction_phase_ms", "RIT_ms", "RIT_min_ms", "RIT_max_ms", "RIT_ci95"},
     4,
     [](double x, const sim::AggregateMetrics& m) {
       return std::vector<double>{
           x, m.runtime_auction_ms.mean(), m.runtime_rit_ms.mean(),
           m.runtime_rit_ms.min(), m.runtime_rit_ms.max(),
           m.runtime_rit_ms.ci95_half_width()};
     }},
};
}  // namespace

void run_figures(const BenchOptions& opts, Sweep sweep) {
  const bool users = sweep == Sweep::kUsers;
  const std::string panel = users ? "a" : "b";
  const std::vector<SweepPoint> points = run_sweep(opts, sweep);
  for (const Figure& fig : kFigures) {
    std::vector<std::string> header{users ? "users(paper)" : "m_i(paper)"};
    header.insert(header.end(), fig.columns.begin(), fig.columns.end());
    std::vector<std::vector<double>> rows;
    for (const SweepPoint& p : points) rows.push_back(fig.row(p.x, p.metrics));
    const std::string figure = std::string("Fig. ") + fig.number + "(" +
                               panel + ")";
    const std::string stem = std::string("fig") + fig.number + panel + "_" +
                             fig.stem + (users ? "_vs_users" : "_vs_tasks");
    emit(figure + " — " + fig.title +
             (users ? " vs number of users" : " vs tasks per type"),
         opts, header, rows, fig.precision, stem);
    emit_svg(figure + ": " + fig.svg_title +
                 (users ? " vs users" : " vs tasks per type"),
             opts, header, rows, {1, 2}, stem);
  }
}

}  // namespace rit::bench
