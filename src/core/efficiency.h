// Allocative efficiency: what the randomized auction costs in welfare.
//
// A deterministic cheapest-first auction assigns every task to the lowest-
// cost supply; CRA deliberately randomizes winners (collusion resistance),
// so some tasks land on more expensive users. With truthful asks the ask
// values are the social costs, so
//
//   efficiency = optimal_cost / allocation_cost   (in (0, 1])
//
// measures how much sensing cost the randomization wastes. Reported by the
// related-mechanisms bench: the k-th price baseline sits at 1.0 by
// construction; RIT's gap is the allocative price of robustness.
#pragma once

#include <span>
#include <vector>

#include "core/types.h"

namespace rit::core {

/// optimal / actual, where actual = sum over users of x_j * a_j (with
/// truthful asks, a_j == c_j) and optimal fills each type's m_i tasks from
/// the lowest ask values. 1.0 means the allocation is cost-optimal; 0 when
/// nothing was allocated or the job is infeasible. Throws CheckFailure
/// when some x_j exceeds its user's quantity k_j.
double cost_efficiency(const Job& job, std::span<const Ask> asks,
                       std::span<const std::uint32_t> allocation);

}  // namespace rit::core
