#include "core/cra.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

// rit-lint: allow-file(testkit-only-injection)
#include "common/bug_inject.h"
#include "common/check.h"
#include "obs/obs.h"

namespace rit::core {

std::uint64_t consensus_round_down(std::uint64_t count, double y,
                                   double base) {
  RIT_CHECK(y >= 0.0 && y < 1.0);
  RIT_CHECK_MSG(base > 1.0, "consensus grid base must exceed 1, got " << base);
  if (count == 0) return 0;
  // Largest z with base^(z+y) <= count, i.e. z = floor(log_base(count) - y).
  const double lg =
      std::log(static_cast<double>(count)) / std::log(base);
  double z = std::floor(lg - y);
  double value = std::pow(base, z + y);
  // Guard floating-point edges on both sides: pow/log rounding can land
  // value one step high or low when lg - y is (nearly) integral.
  while (value > static_cast<double>(count) && z > -2000.0) {
    z -= 1.0;
    value = std::pow(base, z + y);
  }
  while (std::pow(base, z + 1.0 + y) <= static_cast<double>(count)) {
    z += 1.0;
    value = std::pow(base, z + y);
  }
  return static_cast<std::uint64_t>(std::floor(value));
}

namespace {

// Largest lcm(2..len) the unsorted skip accepts. A raw draw fails the lcm
// filter with probability lcm / 2^64, so 2^40 (every run of up to 28 unit
// asks) keeps a million-draw skip at about a 6% fallback rate; Extract's
// runs are at most k_max = 20 long.
constexpr std::uint64_t kMaxSkipLcm = std::uint64_t{1} << 40;

// lcm(2..max_len), or 0 when it exceeds kMaxSkipLcm.
std::uint64_t lcm_up_to(std::uint32_t max_len) {
  std::uint64_t lcm = 1;
  for (std::uint64_t i = 2; i <= max_len; ++i) {
    lcm = lcm / std::gcd(lcm, i) * i;  // < 2^46: lcm <= 2^40 and i <= 29
    if (lcm > kMaxSkipLcm) return 0;
  }
  return lcm;
}

// Whether the runs' values are pairwise distinct, by inserting their bit
// patterns into an open-addressing set (no sort). Zero is normalized so
// that 0.0 and -0.0, which compare equal, collide. `max_runs` bounds the
// run count of any round on this book, so the set's buffer is sized once.
bool values_pairwise_distinct(std::span<const CraWorkspace::ValueRun> runs,
                              std::size_t max_runs,
                              std::vector<std::uint64_t>& set) {
  constexpr std::uint64_t kEmpty = ~std::uint64_t{0};  // a NaN pattern
  const std::size_t capacity = std::bit_ceil(std::max<std::size_t>(
      16, 2 * runs.size()));
  const int shift = 64 - std::countr_zero(capacity);
  set.reserve(std::bit_ceil(std::max<std::size_t>(16, 2 * max_runs)));
  set.assign(capacity, kEmpty);
  for (const CraWorkspace::ValueRun& run : runs) {
    const std::uint64_t key =
        std::bit_cast<std::uint64_t>(run.value == 0.0 ? 0.0 : run.value);
    if (key == kEmpty) return false;
    std::size_t slot =
        static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift);
    while (set[slot] != kEmpty) {
      if (set[slot] == key) return false;
      slot = (slot + 1) & (capacity - 1);
    }
    set[slot] = key;
  }
  return true;
}

// Consumes the draws that shuffling the tie groups of the runs above s
// (`above`, in any order) would take in a full sort: a group of g equal
// asks takes uniform_index(g), ..., (2). When the runs have pairwise-
// distinct values each group is one run, every bound is at most the
// longest run, and the draws are skipped in any order; a tie, an lcm over
// the cap or a filter hit falls back to sorting the runs by value and
// replaying the draws group by group.
void replay_above_band(std::span<CraWorkspace::ValueRun> above,
                       std::size_t max_runs, CraWorkspace& ws,
                       rng::Rng& rng) {
  using ValueRun = CraWorkspace::ValueRun;
  if (above.empty()) return;
  std::uint32_t max_len = 1;
  std::uint64_t draws = 0;
  for (const ValueRun& run : above) {
    max_len = std::max(max_len, run.len);
    draws += run.len - 1;
  }
  const std::uint64_t lcm = lcm_up_to(max_len);
  if (lcm != 0 && values_pairwise_distinct(above, max_runs, ws.value_set) &&
      rng.skip_uniform_indices(draws, lcm)) {
    return;
  }
  std::sort(above.begin(), above.end(),
            [](const ValueRun& a, const ValueRun& b) {
              return a.value < b.value;
            });
  for (std::size_t r = 0; r < above.size();) {
    std::size_t e = r + 1;
    std::size_t group = above[r].len;
    while (e < above.size() && above[e].value == above[r].value) {
      group += above[e].len;
      ++e;
    }
    for (std::size_t i = group; i > 1; --i) (void)rng.uniform_index(i);
    r = e;
  }
}

// Ascending-value order of the band's unit asks with ties shuffled
// uniformly: equal asks must be treated equally ("anonymity"), otherwise
// "the smallest n asks" would systematically favour whichever user Extract
// happened to expand first. The order is defined as: sort unit indices by
// (value, index), shuffle each maximal group of equal values, groups in
// ascending value order.
//
// It is built from runs instead of unit asks. The runs tile alpha in
// order, so sorting them by (value, run index) and expanding them gives
// exactly the (value, index) order. Only runs with value <= `limit` (the
// band) are sorted and written to `order`, each unit as (run, offset).
// Every band group precedes every group above the limit in the full
// order, so the draws above it come last and are consumed by
// replay_above_band.
void sorted_band_with_shuffled_ties(std::span<const AskRun> book,
                                    double limit, std::uint64_t units,
                                    CraWorkspace& ws, rng::Rng& rng) {
  using ValueRun = CraWorkspace::ValueRun;
  std::vector<ValueRun>& runs = ws.runs;
  runs.resize(book.size());
  std::size_t band = 0;
  std::size_t above = book.size();
  for (std::uint32_t r = 0; r < book.size(); ++r) {
    runs[book[r].value <= limit ? band++ : --above] =
        ValueRun{book[r].value, r, book[r].len};
  }
  const auto band_end = runs.begin() + static_cast<std::ptrdiff_t>(band);
  std::sort(runs.begin(), band_end, [](const ValueRun& a, const ValueRun& b) {
    if (a.value != b.value) return a.value < b.value;
#if RIT_BUG_ENABLED(RIT_BUG_CRA_TIEBREAK)
    return a.run > b.run;  // planted: ties enter the shuffle reversed
#else
    return a.run < b.run;
#endif
  });

  std::vector<UnitAsk>& order = ws.order;
  order.clear();
  order.reserve(units);  // no regrowth when a later band is wider
  for (auto r = runs.begin(); r != band_end;) {
    auto e = r + 1;
    while (e != band_end && e->value == r->value) ++e;
    const std::size_t first = order.size();
    for (auto k = r; k != e; ++k) {
      for (std::uint32_t u = 0; u < k->len; ++u) {
#if RIT_BUG_ENABLED(RIT_BUG_CRA_TIEBREAK)
        order.push_back(UnitAsk{k->run, k->len - 1 - u});
#else
        order.push_back(UnitAsk{k->run, u});
#endif
      }
    }
    const std::size_t group = order.size() - first;
    if (group > 1) rng.shuffle(std::span<UnitAsk>(&order[first], group));
    r = e;
  }
  replay_above_band(std::span<ValueRun>(band_end, runs.end()), runs.size(),
                    ws, rng);
}

}  // namespace

void run_cra_runs(std::span<const AskRun> runs, const CraParams& params,
                  rng::Rng& rng, CraWorkspace& ws, CraOutcome& out) {
  RIT_COUNTER_INC("cra.rounds");
  // Reset the outcome in place: `winners` keeps its capacity across rounds.
  out.winners.clear();
  out.won.clear();
  out.clearing_price = 0.0;
  out.num_winners = 0;
  out.sample_min = 0.0;
  out.raw_count = 0;
  out.consensus_count = 0;
  out.used_budget_price = false;
  if (runs.empty() || params.q == 0) return;
  const std::uint64_t budget =
      static_cast<std::uint64_t>(params.q) + params.m_i;
  RIT_CHECK(budget > 0);
  std::uint64_t units = 0;  // |alpha|
  double max_value = -std::numeric_limits<double>::infinity();
  for (const AskRun& run : runs) {
    RIT_DCHECK(run.len > 0 && run.start == units);
    units += run.len;
    max_value = std::max(max_value, run.value);
  }

  if (params.price_mode == PriceMode::kOrderStatistic) {
    // Ablation arm: a plain (q+m_i+1)-st lowest price round. Needs at least
    // budget+1 asks to define the price; ties shuffled like the main path.
    if (units < budget + 1) return;
    sorted_band_with_shuffled_ties(
        runs, std::numeric_limits<double>::infinity(), units, ws, rng);
    const double price = runs[ws.order[budget].run].value;
    out.sample_min = price;
    out.raw_count = budget;
    out.consensus_count = budget;
    rng.sample_without_replacement_into(budget, params.q, ws.sample_pool,
                                        ws.sample_out);
    for (std::size_t i : ws.sample_out) out.winners.push_back(ws.order[i]);
    out.num_winners = params.q;
    out.clearing_price = price;
    RIT_COUNTER_ADD("cra.winners", out.num_winners);
    return;
  }

  // Phase 1 of the CRA round: threshold sampling plus consensus rounding of
  // the below-threshold count (steps 1-2 of the paper's Algorithm 2).
  std::uint64_t n_s = 0;
  {
    RIT_TRACE_SPAN("cra.phase1");
    // Step 1: Bernoulli(1/(q+m_i)) sample of every unit ask; s = min
    // sampled value. The draws run flat over alpha; a hit (rare: about
    // |alpha| / (q+m_i) of them) advances a cursor to its run.
    const std::uint64_t sample_t =
        rng::Rng::bernoulli_threshold(1.0 / static_cast<double>(budget));
    double s = std::numeric_limits<double>::infinity();
    bool sampled_any = false;
    std::size_t r = 0;
    for (std::uint64_t u = 0;; ++u) {
      u += rng.bernoulli_first_hit(units - u, sample_t);
      if (u >= units) break;
      while (runs[r].start + runs[r].len <= u) ++r;
      sampled_any = true;
      s = std::min(s, runs[r].value);
    }
    if (!sampled_any) {
      if (params.empty_sample == EmptySamplePolicy::kNoWinners) return;
      // kAllAsks: act as if the threshold sits at the top of the book —
      // every ask is at or below it, and it is still a finite, IR-safe
      // price.
      s = max_value;
    }
    out.sample_min = s;

    // Step 2: consensus-round the count of asks <= s.
    const double y = rng.uniform01();
    std::uint64_t raw = 0;
    for (const AskRun& run : runs) {
      if (run.value <= s) raw += run.len;
    }
    out.raw_count = raw;
    n_s = consensus_round_down(raw, y, params.consensus_grid_base);
    out.consensus_count = n_s;
  }
  if (n_s == 0) return;
  const double s = out.sample_min;

  // Phase 2 of the CRA round: winner selection and pricing (steps 3-5).
  RIT_TRACE_SPAN("cra.phase2");
  sorted_band_with_shuffled_ties(runs, s, units, ws, rng);
  RIT_CHECK(ws.order.size() == out.raw_count);  // n_s <= raw: in the band

  // Step 3: potential winners, in ascending-value order.
  std::vector<UnitAsk>& chosen = ws.chosen;
  chosen.clear();
  if (n_s <= budget) {
    chosen.assign(ws.order.begin(),
                  ws.order.begin() + static_cast<std::ptrdiff_t>(n_s));
  } else {
    const double keep_p =
        static_cast<double>(budget) / (2.0 * static_cast<double>(n_s));
    chosen.reserve(n_s);
    for (std::uint64_t i = 0; i < n_s; ++i) {
      if (rng.bernoulli(keep_p)) chosen.push_back(ws.order[i]);
    }
  }

  // Step 4: if over the potential-winner budget, keep the cheapest q+m_i and
  // reprice at the first excluded ask (a (q+m_i+1)-st price auction).
  double price = s;
  if (chosen.size() > budget) {
    price = runs[chosen[budget].run].value;  // (q+m_i+1)-st smallest chosen
    chosen.resize(budget);
    out.used_budget_price = true;
  }

  // Step 5: if more than q survive, q winners uniformly at random.
  if (chosen.size() > params.q) {
    rng.sample_without_replacement_into(chosen.size(), params.q,
                                        ws.sample_pool, ws.sample_out);
    for (std::size_t i : ws.sample_out) out.winners.push_back(chosen[i]);
  } else {
    out.winners.assign(chosen.begin(), chosen.end());
  }

  // Lemma 6.1: winners never outbid the price.
  RIT_DCHECK(std::all_of(
      out.winners.begin(), out.winners.end(),
      [&](const UnitAsk& w) { return runs[w.run].value <= price; }));
  out.num_winners = static_cast<std::uint32_t>(out.winners.size());
  out.clearing_price = out.winners.empty() ? 0.0 : price;
  RIT_COUNTER_ADD("cra.winners", out.num_winners);
}

void run_cra(std::span<const double> asks, const CraParams& params,
             rng::Rng& rng, CraWorkspace& ws, CraOutcome& out) {
  std::vector<AskRun>& book = ws.unit_runs;
  book.clear();
  const auto n = static_cast<std::uint32_t>(asks.size());
  for (std::uint32_t i = 0; i < n;) {
    std::uint32_t j = i + 1;
    while (j < n && asks[j] == asks[i]) ++j;
    book.push_back(AskRun{asks[i], i, j - i});
    i = j;
  }
  run_cra_runs(book, params, rng, ws, out);
  out.won.assign(asks.size(), false);
  for (const UnitAsk& w : out.winners) {
    out.won[book[w.run].start + w.offset] = true;
  }
}

CraOutcome run_cra(std::span<const double> asks, const CraParams& params,
                   rng::Rng& rng) {
  CraWorkspace ws;
  CraOutcome out;
  run_cra(asks, params, rng, ws, out);
  return out;
}

}  // namespace rit::core
