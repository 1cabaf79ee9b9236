// CRA (Algorithm 1): the Collusion Resistant Auction.
//
// One CRA round allocates at most q tasks of one type among unit asks. It is
// the consensus-estimate construction of Goldberg & Hartline [12] adapted to
// a procurement (reverse) auction:
//
//   1. sample a random threshold s = min of a sparse Bernoulli sample of the
//      asks (every ask independently with probability 1/(q+m_i));
//   2. round the count of asks <= s *down to a randomized consensus value*
//      n_s in {2^(z+y) : z integer} with a single shared y ~ U[0,1). A
//      coalition of k bidders can move the raw count by at most k, which
//      only rarely moves the consensus value — this is what buys
//      k-truthfulness with high probability (Lemma 6.2);
//   3. keep the n_s cheapest asks (or, if n_s exceeds the q+m_i potential
//      winner budget, keep each of the n_s cheapest independently with
//      probability (q+m_i)/(2*n_s));
//   4. if still over budget, fall back to a (q+m_i+1)-st price auction;
//   5. if more than q asks survive, pick q winners uniformly at random.
//
// Winners are each allocated one task and paid the clearing price; losers
// get nothing. The clearing price is >= every winning ask value, which
// gives per-round individual rationality (Lemma 6.1).
//
// A user's asks for one type are equal (Extract writes them as one run), so
// steps 3-5 only decide how many of each run's asks win, at one price. The
// round therefore reports its winners as per-run counts, and phase 2 never
// expands a run into unit asks unless its value ties with another run's.
// Values never change within an auction, so the ascending order that steps
// 3-5 need comes from one per-auction index (AskTypeIndex); each round
// gathers it only as far as its band, the runs at or below s.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/extract.h"
#include "core/types.h"
#include "rng/rng.h"

namespace rit::core {

struct CraParams {
  /// q: number of tasks still unallocated for this type.
  std::uint32_t q{0};
  /// m_i: the job's total demand for this type (potential-winner budget is
  /// q + m_i).
  std::uint32_t m_i{0};
  /// kConsensus is the paper's Algorithm 1; kOrderStatistic replaces steps
  /// 1-4 with a deterministic (q+m_i+1)-st price rule (ablation only).
  PriceMode price_mode = PriceMode::kConsensus;
  /// Base c of the consensus grid {c^(z+y)}. The paper uses 2. A larger
  /// base widens the grid cells: a coalition moving the raw count by k
  /// changes the consensus value on a y-set of measure log_c(z/(z-k)) —
  /// SMALLER for larger c (more collusion protection) at the cost of
  /// rounding the winner count down more aggressively (fewer winners per
  /// round). bench_ablation_gridbase quantifies the trade-off.
  double consensus_grid_base = 2.0;
};

/// One run's share of a round's winners: `count` of the unit asks of run
/// `run` won. Which of the run's asks won is not recorded: they are equal,
/// so no allocation or payment depends on it.
struct RunWin {
  std::uint32_t run;
  std::uint32_t count;
};

struct CraOutcome {
  /// The runs that won this round, each once with its win count (at most
  /// q in total), in no particular order.
  std::vector<RunWin> winners;
  /// Payment per winning ask (the paper's s; 0 when there are no winners).
  double clearing_price{0.0};
  std::uint32_t num_winners{0};

  // --- diagnostics (tests and the ablation benches read these) ---
  /// Threshold drawn in step 1; the largest ask value when the sample was
  /// empty (DESIGN.md ambiguity #6).
  double sample_min{0.0};
  /// Raw count of asks <= sample_min (the paper's z_s(alpha)).
  std::uint64_t raw_count{0};
  /// Consensus-rounded count (the paper's n_s).
  std::uint64_t consensus_count{0};
  /// Whether step 4 replaced the sampled threshold by a (q+m_i+1)-st price.
  bool used_budget_price{false};
};

/// Reusable scratch for run_cra_runs. RIT runs one CRA round per type per
/// round-budget step, and a sweep runs millions of rounds; keep one
/// workspace per thread and pass it to every round. A round reserves the
/// buffers whose fill follows its random draws to their bounds, so once a
/// round has run on a book at least as big, the next performs no heap
/// allocation.
/// Contents are scratch only: nothing in here carries state between
/// rounds. Phase 2 holds no per-run vector, and no per-unit vector except
/// `ties` (the expansion of the band's multi-run tie groups) and the
/// step-5 sampling pool.
struct CraWorkspace {
  /// The unit asks of each band tie group of several runs, as positions in
  /// the value order, shuffled; the groups follow each other in ascending
  /// value.
  std::vector<std::uint32_t> ties;
  /// Win counts of one such group's runs while they are summed.
  std::vector<std::uint32_t> tie_wins;
  /// Step 1's sample over unit positions, then step 3's thinning over
  /// value-order positions, and step 5's sample over chosen indices, one
  /// bit each.
  std::vector<std::uint64_t> thinned;
  std::vector<std::uint64_t> sampled;
  /// Step 5's Fisher-Yates scratch, one slot per chosen ask.
  std::vector<std::uint32_t> sample_pool;
};

/// Runs one CRA round over the unit asks of `book` (Extract's, or a
/// complete_book): run r is runs[r].len > 0 asks of value runs[r].value,
/// and the runs tile alpha in order (equal values may recur in
/// neighbouring runs). Draw for draw the round on the expanded unit-ask
/// vector, with the winners counted per run (`out.winners`). The round
/// extends the book's value order as far as it reads it.
///
/// Cost: O(draws + band) per round, plus O(users) in the cases listed
/// below; the book brings |alpha|, its longest run and its tie flag, so
/// the round makes no pass over all runs of its own. Phase 1 makes the
/// paper's one raw draw per unit ask in one flat scan into a bitmap
/// (rng::Rng::bernoulli_bits, SIMD lanes where the CPU has them) and maps
/// each of its few set bits to its run by binary search on `start`. The
/// band (the runs at or below the threshold s) is the prefix of the value
/// order that the book gathers through s, and the raw count is its unit
/// sum (|alpha|, read off the book, when the band holds every run). A tie
/// group is a stretch of equal values. The tie shuffle of a
/// group that is one run only permutes that run's asks, so it is drawn but
/// not stored; when the book has no tied values, all of those draws are
/// skipped at once (rng::Rng::skip_uniform_indices) and nothing above the
/// band is read. Only a band group of several equal-valued runs is
/// expanded to unit asks and shuffled for real. The round reads the whole
/// order (and, for a tied book, scans it for equal neighbours) in four
/// cases: the order-statistic arm, a tied book, an empty sample (s is the
/// top of the book) and a skip that the lcm filter refuses. Steps 3-5
/// walk the band's unit positions run by run, with bitmaps for the
/// thinning (one scan, rng::Rng::bernoulli_bits) and the step-5 sample;
/// a run of up to 64 asks counts its bits in each with one masked
/// popcount, and only a tied book looks for the end of each tie group.
void run_cra_runs(ExtractedRuns& book, const CraParams& params, rng::Rng& rng,
                  CraWorkspace& ws, CraOutcome& out);

/// The consensus rounding of Lemma 6.2 in isolation: the largest value
/// base^(z+y) <= count (z integer), or 0 if count == 0 or every such value
/// floors to zero. Exposed for direct unit testing.
std::uint64_t consensus_round_down(std::uint64_t count, double y,
                                   double base = 2.0);

}  // namespace rit::core
