#include "core/efficiency.h"

#include <algorithm>

#include "common/check.h"
#include "core/extract.h"

namespace rit::core {

namespace {

double allocation_cost(std::span<const Ask> asks,
                       std::span<const std::uint32_t> allocation) {
  RIT_CHECK(asks.size() == allocation.size());
  double cost = 0.0;
  for (std::size_t j = 0; j < asks.size(); ++j) {
    RIT_CHECK_MSG(allocation[j] <= asks[j].quantity,
                  "allocation exceeds claimed quantity for user " << j);
    cost += static_cast<double>(allocation[j]) * asks[j].value;
  }
  return cost;
}

// Cost of the cheapest feasible assignment: per type, fill m_i tasks from
// the lowest ask values (units of one user counted up to its quantity), or
// a negative value if the job is infeasible.
double optimal_cost(const Job& job, std::span<const Ask> asks) {
  double total = 0.0;
  for (std::uint32_t ti = 0; ti < job.num_types(); ++ti) {
    const TaskType type{ti};
    const std::uint32_t m_i = job.demand(type);
    if (m_i == 0) continue;
    ExtractedAsks alpha = extract(type, asks);
    if (alpha.size() < m_i) return -1.0;  // infeasible
    std::nth_element(alpha.values.begin(), alpha.values.begin() + (m_i - 1),
                     alpha.values.end());
    for (std::uint32_t u = 0; u < m_i; ++u) total += alpha.values[u];
  }
  return total;
}

}  // namespace

double cost_efficiency(const Job& job, std::span<const Ask> asks,
                       std::span<const std::uint32_t> allocation) {
  const double actual = allocation_cost(asks, allocation);
  if (actual <= 0.0) return 0.0;
  const double optimal = optimal_cost(job, asks);
  if (optimal < 0.0) return 0.0;
  return optimal / actual;
}

}  // namespace rit::core
