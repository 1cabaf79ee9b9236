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

// Consumes the tie-shuffle draws of `seg`, sorted runs that are each their
// own tie group: a run of len asks takes uniform_index(len), ..., (2).
// Such a shuffle only permutes the run's equal asks, so the draws are
// skipped when lcm(2..longest run) is under the cap and no raw draw hits
// its filter; otherwise they are replayed in order.
void skip_run_shuffles(std::span<const CraWorkspace::ValueRun> seg,
                       rng::Rng& rng) {
  std::uint32_t max_len = 1;
  std::uint64_t draws = 0;
  for (const CraWorkspace::ValueRun& run : seg) {
    max_len = std::max(max_len, run.len);
    draws += run.len - 1;
  }
  if (draws == 0) return;
  const std::uint64_t lcm = lcm_up_to(max_len);
  if (lcm != 0 && rng.skip_uniform_indices(draws, lcm)) return;
  for (const CraWorkspace::ValueRun& run : seg) {
    for (std::size_t i = run.len; i > 1; --i) (void)rng.uniform_index(i);
  }
}

// Fills ws.runs with the book's runs: those with value <= `limit` (the
// band) first, then the rest. Returns the band's run count.
std::size_t split_band(std::span<const AskRun> book, double limit,
                       CraWorkspace& ws) {
  ws.runs.resize(book.size());
  std::size_t band = 0;
  std::size_t above = book.size();
  for (std::uint32_t r = 0; r < book.size(); ++r) {
    ws.runs[book[r].value <= limit ? band++ : --above] =
        CraWorkspace::ValueRun{book[r].value, r, book[r].len};
  }
  return band;
}

// End of the tie group (maximal run of equal values) that starts at r.
std::size_t tie_group_end(std::span<const CraWorkspace::ValueRun> runs,
                          std::size_t r) {
  std::size_t e = r + 1;
  while (e < runs.size() && runs[e].value == runs[r].value) ++e;
  return e;
}

// Ascending-value order of the band's unit asks with ties shuffled
// uniformly: equal asks must be treated equally ("anonymity"), otherwise
// "the smallest n asks" would systematically favour whichever user Extract
// happened to expand first. The order is defined as: sort unit indices by
// (value, index), shuffle each maximal group of equal values, groups in
// ascending value order.
//
// It is kept in run form. The runs tile alpha in order, so sorting the
// band's runs (ws.runs[0, band)) by (value, run index) gives the (value,
// index) order. A tie group that is one run needs no expansion: its
// shuffle only permutes equal asks, and skip_run_shuffles consumes its
// draws. A group of several runs is expanded into ws.ties (one index into
// ws.runs per unit ask) and shuffled for real. Every band group precedes
// every group above s in the full order, so the draws above it come last
// and are consumed by replay_above_band.
void order_band(std::size_t band, CraWorkspace& ws, rng::Rng& rng) {
  using ValueRun = CraWorkspace::ValueRun;
  const std::span<ValueRun> runs(ws.runs.data(), band);
  std::sort(runs.begin(), runs.end(), [](const ValueRun& a, const ValueRun& b) {
    if (a.value != b.value) return a.value < b.value;
#if RIT_BUG_ENABLED(RIT_BUG_CRA_TIEBREAK)
    return a.run > b.run;  // planted: ties enter the shuffle reversed
#else
    return a.run < b.run;
#endif
  });
  ws.ties.clear();
  std::size_t segment = 0;  // first run not yet drawn for
  for (std::size_t r = 0; r < band;) {
    const std::size_t e = tie_group_end(runs, r);
    if (e - r > 1) {
      skip_run_shuffles(runs.subspan(segment, r - segment), rng);
      const std::size_t first = ws.ties.size();
      for (std::size_t k = r; k < e; ++k) {
        ws.ties.insert(ws.ties.end(), runs[k].len,
                       static_cast<std::uint32_t>(k));
      }
      rng.shuffle(std::span<std::uint32_t>(ws.ties).subspan(first));
      segment = e;
    }
    r = e;
  }
  skip_run_shuffles(runs.subspan(segment), rng);
  replay_above_band(std::span<ValueRun>(ws.runs).subspan(band),
                    ws.runs.size(), ws, rng);
}

// When the book's values are pairwise distinct, every tie group is one run
// and the order of phase 2 leaves nothing to draw: consumes all of the
// shuffle draws (units - runs of them, each bound at most `max_len`) in
// one skip and returns true. Returns false with the stream untouched on a
// tie, an lcm over the cap or a filter hit.
bool skip_every_shuffle(std::uint64_t units, std::uint32_t max_len,
                        CraWorkspace& ws, rng::Rng& rng) {
  const std::uint64_t lcm = lcm_up_to(max_len);
  return lcm != 0 &&
         values_pairwise_distinct(ws.runs, ws.runs.size(), ws.value_set) &&
         rng.skip_uniform_indices(units - ws.runs.size(), lcm);
}

// The n cheapest unit asks of `band` (pairwise-distinct values, at least n
// asks) as run wins, without a sort: a weighted quickselect. They are every
// run cheaper than the run holding the n-th cheapest ask, plus part of
// that run. Each step partitions the live range at its middle with
// nth_element and keeps the half that holds the boundary: expected
// O(band).
void cheapest_units(std::span<CraWorkspace::ValueRun> band, std::uint64_t n,
                    std::vector<RunWin>& winners) {
  using ValueRun = CraWorkspace::ValueRun;
  auto lo = band.begin();
  auto hi = band.end();
  std::uint64_t need = n;  // asks still to take from [lo, hi)
  for (;;) {
    const auto mid = lo + (hi - lo) / 2;
    std::nth_element(lo, mid, hi, [](const ValueRun& a, const ValueRun& b) {
      return a.value < b.value;
    });
    std::uint64_t below = 0;
    for (auto r = lo; r != mid; ++r) below += r->len;
    if (below >= need) {
      hi = mid;
    } else if (below + mid->len >= need) {
      for (auto r = band.begin(); r != mid; ++r) {
        winners.push_back(RunWin{r->run, r->len});
      }
      winners.push_back(
          RunWin{mid->run, static_cast<std::uint32_t>(need - below)});
      return;
    } else {
      need -= below + mid->len;
      lo = mid + 1;
    }
  }
}

// The value at unit position `pos` of the band's order. A tie group shares
// one value, so the shuffle within it does not matter.
double value_at(std::span<const CraWorkspace::ValueRun> band,
                std::uint64_t pos) {
  for (const CraWorkspace::ValueRun& run : band) {
    if (pos < run.len) return run.value;
    pos -= run.len;
  }
  RIT_CHECK_MSG(false, "position past the band");
  return 0.0;  // unreachable
}

void set_bit(std::vector<std::uint64_t>& bits, std::uint64_t i) {
  bits[i >> 6] |= std::uint64_t{1} << (i & 63);
}

// Set bits in [begin, begin + len).
std::uint64_t count_bits(std::span<const std::uint64_t> bits,
                         std::uint64_t begin, std::uint64_t len) {
  std::uint64_t count = 0;
  for (const std::uint64_t end = begin + len; begin < end;) {
    const std::uint64_t shift = begin & 63;
    const std::uint64_t take = std::min<std::uint64_t>(64 - shift, end - begin);
    std::uint64_t word = bits[begin >> 6] >> shift;
    if (take < 64) word &= (std::uint64_t{1} << take) - 1;
    count += static_cast<std::uint64_t>(std::popcount(word));
    begin += take;
  }
  return count;
}

// Position of set bit number k (from 0); the bitmap has more than k.
std::uint64_t select_bit(std::span<const std::uint64_t> bits,
                         std::uint64_t k) {
  for (std::size_t w = 0;; ++w) {
    std::uint64_t word = bits[w];
    const auto count = static_cast<std::uint64_t>(std::popcount(word));
    if (k < count) {
      for (; k > 0; --k) word &= word - 1;
      return 64 * w + static_cast<std::uint64_t>(std::countr_zero(word));
    }
    k -= count;
  }
}

// Step 5: a uniform q-subset of the `chosen` indices, as a bitmap in
// ws.sampled.
void sample_chosen(std::uint64_t chosen, std::uint32_t q, CraWorkspace& ws,
                   rng::Rng& rng) {
  rng.sample_without_replacement_into(chosen, q, ws.sample_pool,
                                      ws.sample_out);
  ws.sampled.assign((chosen + 63) / 64, 0);
  for (const std::size_t i : ws.sample_out) set_bit(ws.sampled, i);
}

// Steps 3-5 as run wins, walking the band's order run by run. The chosen
// asks are the positions [0, end), or only those set in ws.thinned when it
// is non-empty; the winners are the chosen asks whose chosen index is set
// in ws.sampled when it is non-empty, and every chosen ask otherwise.
void count_wins(std::size_t band, std::uint64_t end, CraWorkspace& ws,
                std::vector<RunWin>& winners) {
  const std::span<const CraWorkspace::ValueRun> runs(ws.runs.data(), band);
  std::uint64_t chosen = 0;  // chosen asks before the current position
  const auto wins_in = [&](std::uint64_t pos, std::uint64_t len) {
    const std::uint64_t c =
        ws.thinned.empty() ? len : count_bits(ws.thinned, pos, len);
    const std::uint64_t w =
        ws.sampled.empty() ? c : count_bits(ws.sampled, chosen, c);
    chosen += c;
    return static_cast<std::uint32_t>(w);
  };
  std::uint64_t pos = 0;
  const std::uint32_t* tie = ws.ties.data();
  for (std::size_t r = 0; r < band && pos < end;) {
    const std::size_t e = tie_group_end(runs, r);
    if (e - r == 1) {
      const std::uint32_t w =
          wins_in(pos, std::min<std::uint64_t>(runs[r].len, end - pos));
      if (w > 0) winners.push_back(RunWin{runs[r].run, w});
      pos += runs[r].len;
    } else {
      ws.tie_wins.assign(e - r, 0);
      std::uint64_t group = 0;
      for (std::size_t k = r; k < e; ++k) group += runs[k].len;
      for (std::uint64_t u = 0; u < group && pos + u < end; ++u) {
        ws.tie_wins[tie[u] - r] += wins_in(pos + u, 1);
      }
      for (std::size_t k = r; k < e; ++k) {
        if (ws.tie_wins[k - r] > 0) {
          winners.push_back(RunWin{runs[k].run, ws.tie_wins[k - r]});
        }
      }
      tie += group;
      pos += group;
    }
    r = e;
  }
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
  std::uint32_t max_len = 1;
  double max_value = -std::numeric_limits<double>::infinity();
  for (const AskRun& run : runs) {
    RIT_DCHECK(run.len > 0 && run.start == units);
    units += run.len;
    max_len = std::max(max_len, run.len);
    max_value = std::max(max_value, run.value);
  }
  out.winners.reserve(runs.size());  // one entry per winning run at most

  if (params.price_mode == PriceMode::kOrderStatistic) {
    // Ablation arm: a plain (q+m_i+1)-st lowest price round. Needs at least
    // budget+1 asks to define the price; ties shuffled like the main path.
    if (units < budget + 1) return;
    const std::size_t band = split_band(
        runs, std::numeric_limits<double>::infinity(), ws);
    order_band(band, ws, rng);
    const double price = value_at({ws.runs.data(), band}, budget);
    out.sample_min = price;
    out.raw_count = budget;
    out.consensus_count = budget;
    ws.thinned.clear();
    sample_chosen(budget, params.q, ws, rng);
    count_wins(band, budget, ws, out.winners);
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
  const std::size_t band = split_band(runs, s, ws);

  // Every chosen ask wins: no thinning (n_s <= q+m_i), no budget price and
  // no step-5 sample (n_s <= q). The winners are the n_s cheapest asks
  // whatever the tie shuffles draw, so with pairwise-distinct values they
  // are found without a sort.
  if (n_s <= budget && n_s <= params.q &&
      skip_every_shuffle(units, max_len, ws, rng)) {
    cheapest_units({ws.runs.data(), band}, n_s, out.winners);
    out.num_winners = static_cast<std::uint32_t>(n_s);
    out.clearing_price = s;
    RIT_COUNTER_ADD("cra.winners", out.num_winners);
    return;
  }
  order_band(band, ws, rng);

  // Step 3: the potential winners are the n_s cheapest asks, or each of
  // them independently with probability (q+m_i)/(2 n_s) when n_s exceeds
  // the budget; positions [0, end) of the order hold them.
  std::uint64_t end = n_s;
  std::uint64_t chosen = n_s;
  ws.thinned.clear();
  if (n_s > budget) {
    const double keep_p =
        static_cast<double>(budget) / (2.0 * static_cast<double>(n_s));
    ws.thinned.assign((n_s + 63) / 64, 0);
    chosen = 0;
    for (std::uint64_t i = 0; i < n_s; ++i) {
      if (rng.bernoulli(keep_p)) {
        set_bit(ws.thinned, i);
        ++chosen;
      }
    }
  }

  // Step 4: if over the potential-winner budget, keep the cheapest q+m_i and
  // reprice at the first excluded ask (a (q+m_i+1)-st price auction).
  double price = s;
  if (chosen > budget) {
    end = select_bit(ws.thinned, budget);  // (q+m_i+1)-st smallest chosen
    price = value_at({ws.runs.data(), band}, end);
    chosen = budget;
    out.used_budget_price = true;
  }

  // Step 5: if more than q survive, q winners uniformly at random.
  ws.sampled.clear();
  if (chosen > params.q) sample_chosen(chosen, params.q, ws, rng);
  count_wins(band, end, ws, out.winners);

  // Lemma 6.1: winners never outbid the price.
  RIT_DCHECK(std::all_of(
      out.winners.begin(), out.winners.end(),
      [&](const RunWin& w) { return runs[w.run].value <= price; }));
  out.num_winners =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(chosen, params.q));
  out.clearing_price = out.num_winners == 0 ? 0.0 : price;
  RIT_COUNTER_ADD("cra.winners", out.num_winners);
}

void run_cra(std::span<const double> asks, const CraParams& params,
             rng::Rng& rng, CraWorkspace& ws, CraOutcome& out) {
  std::vector<AskRun>& book = ws.unit_runs;
  book.resize(asks.size());
  for (std::uint32_t i = 0; i < asks.size(); ++i) {
    book[i] = AskRun{asks[i], i, 1};
  }
  run_cra_runs(book, params, rng, ws, out);
  out.won.assign(asks.size(), false);
  for (const RunWin& w : out.winners) out.won[w.run] = true;
}

}  // namespace rit::core
