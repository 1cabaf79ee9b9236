#include "core/cra.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
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

// Largest lcm(2..len) the draw skip accepts. A raw draw fails the lcm
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

// A round's runs in ascending (value, run) order, as far as the book has
// gathered them.
struct Order {
  std::span<const AskRun> runs;
  std::span<const std::uint32_t> by_value;

  explicit Order(const ExtractedRuns& book)
      : runs(book.runs), by_value(book.by_value.data(), book.ordered) {}
  const AskRun& operator[](std::size_t k) const { return runs[by_value[k]]; }
  std::size_t size() const { return by_value.size(); }
  // End of the tie group (maximal run of equal values) that starts at k.
  // A band group ends inside the band: every run of its value is in it.
  std::size_t group_end(std::size_t k) const {
    std::size_t e = k + 1;
    while (e < size() && (*this)[e].value == (*this)[k].value) ++e;
    return e;
  }
  // Whether every tie group is a single run.
  bool distinct() const {
    for (std::size_t k = 1; k < size(); ++k) {
      if ((*this)[k].value == (*this)[k - 1].value) return false;
    }
    return true;
  }
};

// Whether the book's first `band` ordered runs are the first `band` of
// its whole order, sorted from scratch, and a false tie flag holds on it
// (debug checks).
[[maybe_unused]] bool band_matches_full_order(const ExtractedRuns& book,
                                              std::size_t band) {
  std::vector<std::uint32_t> full(book.runs.size());
  std::iota(full.begin(), full.end(), 0u);
  std::stable_sort(full.begin(), full.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return book.runs[a].value < book.runs[b].value;
                   });
  for (std::size_t k = 1; k < full.size() && !book.tied; ++k) {
    if (book.runs[full[k]].value == book.runs[full[k - 1]].value) return false;
  }
  return band <= book.ordered &&
         std::equal(full.begin(), full.begin() + band, book.by_value.begin());
}

// Ascending-value order of the band's unit asks with ties shuffled
// uniformly: equal asks must be treated equally ("anonymity"), otherwise
// "the smallest n asks" would systematically favour whichever user Extract
// happened to expand first. The order is defined as: sort unit indices by
// (value, index), shuffle each maximal group of equal values, groups in
// ascending value order; a group of g asks draws uniform_index(g), ...,
// (2).
//
// It is kept in run form. The runs tile alpha in order, so the book's
// (value, run) order gives the (value, index) order. A tie group of
// several runs in the band is expanded into ws.ties (one order position
// per unit ask) and shuffled for real; any other group's shuffle is not
// stored, only drawn. When no two runs share a value, every group is one
// run and its shuffle only permutes that run's equal asks, all of length
// at most the book's max_len: then the units - runs draws are skipped at
// once (rng::Rng::skip_uniform_indices), unless lcm(2..max_len) is over
// the cap or a raw draw hits the filter. A book without tied values skips
// without reading its order; any other takes the whole order, and a tied
// book scans it for equal neighbours first, since its exhausted users may
// have taken the tie with them.
void order_band(ExtractedRuns& book, std::size_t band, CraWorkspace& ws,
                rng::Rng& rng) {
  ws.ties.clear();
  const std::uint64_t lcm = lcm_up_to(book.max_len);
  const std::uint64_t draws = book.units - book.runs.size();
  if (lcm != 0 && !book.tied && rng.skip_uniform_indices(draws, lcm)) return;
  book.order_through(std::numeric_limits<double>::infinity());
  RIT_DCHECK(band_matches_full_order(book, book.ordered));
  const Order order(book);
  if (lcm != 0 && book.tied && order.distinct() &&
      rng.skip_uniform_indices(draws, lcm)) {
    return;
  }
  for (std::size_t r = 0; r < order.size();) {
    const std::size_t e = order.group_end(r);
    if (e - r > 1 && r < band) {
      const std::size_t first = ws.ties.size();
#if RIT_BUG_ENABLED(RIT_BUG_CRA_TIEBREAK)
      for (std::size_t k = e; k-- > r;) {  // planted: the group reversed
#else
      for (std::size_t k = r; k < e; ++k) {
#endif
        ws.ties.insert(ws.ties.end(), order[k].len,
                       static_cast<std::uint32_t>(k));
      }
      rng.shuffle(std::span<std::uint32_t>(ws.ties).subspan(first));
    } else {
      std::uint64_t group = 0;
      for (std::size_t k = r; k < e; ++k) group += order[k].len;
      for (std::uint64_t i = group; i > 1; --i) (void)rng.uniform_index(i);
    }
    r = e;
  }
}

// The value at unit position `pos` of the band's order. A tie group shares
// one value, so the shuffle within it does not matter.
double value_at(const Order& order, std::size_t band, std::uint64_t pos) {
  for (std::size_t k = 0; k < band; ++k) {
    if (pos < order[k].len) return order[k].value;
    pos -= order[k].len;
  }
  RIT_CHECK_MSG(false, "position past the band");
  return 0.0;  // unreachable
}

// Set bits in [begin, begin + len). Up to 64 positions lie in the window
// of two words that starts at begin's word, so a run takes one masked
// popcount; a longer stretch takes a word at a time. `bits` is not empty.
std::uint64_t count_bits(std::span<const std::uint64_t> bits,
                         std::uint64_t begin, std::uint64_t len) {
  if (len <= 64) {
    // An empty stretch may start one past the last word: any word will do.
    const std::size_t w = std::min<std::size_t>(begin >> 6, bits.size() - 1);
    const unsigned shift = begin & 63;
    const std::uint64_t next = w + 1 < bits.size() ? bits[w + 1] : 0;
    const std::uint64_t window =
        (bits[w] >> shift) | ((next << 1) << (63 - shift));
    const std::uint64_t mask =
        len < 64 ? (std::uint64_t{1} << len) - 1 : ~std::uint64_t{0};
    return static_cast<std::uint64_t>(std::popcount(window & mask));
  }
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

// Steps 3-5 as run wins, walking the band's order run by run. The chosen
// asks are the positions [0, end), or only those set in ws.thinned when it
// is non-empty; the winners are the chosen asks whose chosen index is set
// in ws.sampled when it is non-empty, and every chosen ask otherwise. An
// untied book's tie groups are single runs (its flag is exact), so only a
// tied one looks for the end of each group.
void count_wins(const Order& order, std::size_t band, std::uint64_t end,
                bool tied, CraWorkspace& ws, std::vector<RunWin>& winners) {
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
    const std::size_t e = tied ? order.group_end(r) : r + 1;
    if (e - r == 1) {
      const std::uint32_t len = order[r].len;
      const std::uint32_t w =
          wins_in(pos, std::min<std::uint64_t>(len, end - pos));
      if (w > 0) winners.push_back(RunWin{order.by_value[r], w});
      pos += len;
    } else {
      ws.tie_wins.assign(e - r, 0);
      std::uint64_t group = 0;
      for (std::size_t k = r; k < e; ++k) group += order[k].len;
      // order_band expanded every band group of several runs into ws.ties.
      RIT_CHECK(static_cast<std::uint64_t>(ws.ties.data() + ws.ties.size() -
                                           tie) >= group);
      for (std::uint64_t u = 0; u < group && pos + u < end; ++u) {
        ws.tie_wins[tie[u] - r] += wins_in(pos + u, 1);
      }
      for (std::size_t k = r; k < e; ++k) {
        if (ws.tie_wins[k - r] > 0) {
          winners.push_back(RunWin{order.by_value[k], ws.tie_wins[k - r]});
        }
      }
      tie += group;
      pos += group;
    }
    r = e;
  }
}

}  // namespace

void run_cra_runs(ExtractedRuns& book, const CraParams& params, rng::Rng& rng,
                  CraWorkspace& ws, CraOutcome& out) {
  RIT_COUNTER_INC("cra.rounds");
  // Reset the outcome in place: `winners` keeps its capacity across rounds.
  out.winners.clear();
  out.clearing_price = 0.0;
  out.num_winners = 0;
  out.sample_min = 0.0;
  out.raw_count = 0;
  out.consensus_count = 0;
  out.used_budget_price = false;
  const std::span<const AskRun> runs = book.runs;
  RIT_CHECK(book.index != nullptr || book.ordered == runs.size());
  if (runs.empty() || params.q == 0) return;
  const std::uint64_t budget =
      static_cast<std::uint64_t>(params.q) + params.m_i;
  RIT_CHECK(budget > 0);
  const std::uint64_t units = book.units;  // |alpha|
  RIT_CHECK(runs.back().start + std::uint64_t{runs.back().len} == units);
  // Reserve what the random draws fill to its bound, so that a warm
  // workspace never grows: at most min(q+m_i, |alpha|) asks are chosen
  // (step 5's pool and bitmap), the bitmaps of phase 1 and step 3 cover
  // at most |alpha| positions, and a tied book's band ties expand at most
  // its |alpha| asks over its runs.
  const std::uint64_t chosen_max = std::min(budget, units);
  ws.sample_pool.reserve(chosen_max);
  ws.sampled.reserve((chosen_max + 63) / 64);
  ws.thinned.reserve((units + 63) / 64);
  if (book.tied) {
    ws.ties.reserve(units);
    ws.tie_wins.reserve(runs.size());
  }
  out.winners.reserve(runs.size());  // one entry per winning run at most

  constexpr double kTop = std::numeric_limits<double>::infinity();
  if (params.price_mode == PriceMode::kOrderStatistic) {
    // Ablation arm: a plain (q+m_i+1)-st lowest price round. Needs at least
    // budget+1 asks to define the price; ties shuffled like the main path.
    if (units < budget + 1) return;
    const std::size_t band = book.order_through(kTop);
    RIT_DCHECK(band_matches_full_order(book, band));
    order_band(book, band, ws, rng);
    const Order order(book);
    const double price = value_at(order, band, budget);
    out.sample_min = price;
    out.raw_count = budget;
    out.consensus_count = budget;
    ws.thinned.clear();
    rng.sample_without_replacement_bits(budget, params.q, ws.sample_pool,
                                        ws.sampled);
    count_wins(order, band, budget, book.tied, ws, out.winners);
    out.num_winners = params.q;
    out.clearing_price = price;
    RIT_COUNTER_ADD("cra.winners", out.num_winners);
    return;
  }
  // Phase 1 of the CRA round: threshold sampling plus consensus rounding of
  // the below-threshold count (steps 1-2 of the paper's Algorithm 2).
  std::uint64_t n_s = 0;
  std::size_t band = 0;
  {
    RIT_TRACE_SPAN("cra.phase1");
    // Step 1: Bernoulli(1/(q+m_i)) sample of every unit ask; s = min
    // sampled value. The draws run flat over alpha in one scan into a
    // bitmap; each set bit (rare: about |alpha| / (q+m_i) of them) is
    // found in its run by binary search on the runs' starts.
    const std::uint64_t sampled = rng.bernoulli_bits(
        units, rng::Rng::bernoulli_threshold(1.0 / static_cast<double>(budget)),
        ws.thinned);
    double s = kTop;
    for (std::size_t w = 0; w < ws.thinned.size(); ++w) {
      for (std::uint64_t word = ws.thinned[w]; word != 0; word &= word - 1) {
        const std::uint64_t u =
            64 * w + static_cast<std::uint64_t>(std::countr_zero(word));
        const auto run = std::upper_bound(
            runs.begin(), runs.end(), u,
            [](std::uint64_t pos, const AskRun& r) { return pos < r.start; });
        s = std::min(s, std::prev(run)->value);
      }
    }
    if (sampled == 0) {
      // An empty sample leaves s = min S undefined (DESIGN.md ambiguity
      // #6): act as if the threshold sits at the top of the book — every
      // ask is at or below it, and it is still a finite, IR-safe price.
      book.order_through(kTop);
      s = runs[book.by_value[book.ordered - 1]].value;
    }
    out.sample_min = s;

    // Step 2: consensus-round the count of asks <= s, the band's units
    // (|alpha| when the band holds every run).
    const double y = rng.uniform01();
    band = book.order_through(s);
    RIT_DCHECK(band_matches_full_order(book, band));
    std::uint64_t raw = units;
    if (band < runs.size()) {
      raw = 0;
      for (std::size_t k = 0; k < band; ++k) raw += runs[book.by_value[k]].len;
    }
    out.raw_count = raw;
    n_s = consensus_round_down(raw, y, params.consensus_grid_base);
    out.consensus_count = n_s;
  }
  if (n_s == 0) return;
  const double s = out.sample_min;

  // Phase 2 of the CRA round: winner selection and pricing (steps 3-5).
  RIT_TRACE_SPAN("cra.phase2");
  order_band(book, band, ws, rng);
  const Order order(book);

  // Step 3: the potential winners are the n_s cheapest asks, or each of
  // them independently with probability (q+m_i)/(2 n_s) when n_s exceeds
  // the budget; positions [0, end) of the order hold them.
  std::uint64_t end = n_s;
  std::uint64_t chosen = n_s;
  ws.thinned.clear();
  if (n_s > budget) {
    const double keep_p =
        static_cast<double>(budget) / (2.0 * static_cast<double>(n_s));
    chosen = rng.bernoulli_bits(
        n_s, rng::Rng::bernoulli_threshold(keep_p), ws.thinned);
  }

  // Step 4: if over the potential-winner budget, keep the cheapest q+m_i and
  // reprice at the first excluded ask (a (q+m_i+1)-st price auction).
  double price = s;
  if (chosen > budget) {
    end = select_bit(ws.thinned, budget);  // (q+m_i+1)-st smallest chosen
    price = value_at(order, band, end);
    chosen = budget;
    out.used_budget_price = true;
  }

  // Step 5: if more than q survive, q winners uniformly at random, as a
  // bitmap over the chosen indices.
  ws.sampled.clear();
  if (chosen > params.q) {
    rng.sample_without_replacement_bits(chosen, params.q, ws.sample_pool,
                                        ws.sampled);
  }
  count_wins(order, band, end, book.tied, ws, out.winners);

  // Lemma 6.1: winners never outbid the price.
  RIT_DCHECK(std::all_of(
      out.winners.begin(), out.winners.end(),
      [&](const RunWin& w) { return runs[w.run].value <= price; }));
  out.num_winners =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(chosen, params.q));
  out.clearing_price = out.num_winners == 0 ? 0.0 : price;
  RIT_COUNTER_ADD("cra.winners", out.num_winners);
}

}  // namespace rit::core
