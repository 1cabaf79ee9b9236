// Core model types of Sec. 3-A: asks, jobs, utilities.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/ids.h"

namespace rit::core {

/// A sealed-bid ask (t_j, k_j, a_j): user P_j offers to complete up to
/// `quantity` tasks of type `type` for at least `value` per task.
struct Ask {
  TaskType type;
  std::uint32_t quantity{0};  // k_j > 0 for a well-formed ask
  double value{0.0};          // a_j > 0 for a well-formed ask

  friend bool operator==(const Ask&, const Ask&) = default;
};

/// `len` consecutive unit asks of equal `value`, the first at index `start`
/// of the unit-ask vector alpha. Extract writes one run per user that still
/// has capacity; the CRA round works on runs instead of unit asks.
struct AskRun {
  double value{0.0};
  std::uint32_t start{0};
  std::uint32_t len{0};
};

/// The sensing job J: a multiset over task types. demand(tau_i) is the
/// paper's m_i, the number of type-i tasks J requires.
class Job {
 public:
  /// demand[i] = m_i. The number of task types m is demand.size().
  explicit Job(std::vector<std::uint32_t> demand);

  /// A job demanding `per_type` tasks in each of `num_types` types (the
  /// Fig. 6-8 setup).
  static Job uniform(std::uint32_t num_types, std::uint32_t per_type);

  std::uint32_t num_types() const {
    return static_cast<std::uint32_t>(demand_.size());
  }

  std::uint32_t demand(TaskType t) const {
    RIT_CHECK(t.value < demand_.size());
    return demand_[t.value];
  }

  /// |J|: total number of tasks across all types.
  std::uint64_t total_tasks() const { return total_; }

  /// Number of types with non-zero demand (the m in eta = H^(1/m); types
  /// nobody asked for do not run auctions and cannot break truthfulness).
  std::uint32_t num_demanded_types() const { return demanded_types_; }

  const std::vector<std::uint32_t>& demand_vector() const { return demand_; }

 private:
  std::vector<std::uint32_t> demand_;
  std::uint64_t total_{0};
  std::uint32_t demanded_types_{0};
};

/// Upper bound on a single ask's claimed quantity. Extract materializes one
/// unit ask per claimed task, so an unvalidated 4-billion-unit claim would
/// be a memory-exhaustion attack on the platform; no phone completes a
/// million sensing tasks in one job either.
inline constexpr std::uint32_t kMaxAskQuantity = 1'000'000;

/// Validates an ask vector against a job: every ask references a type the
/// job knows about and has positive quantity (at most kMaxAskQuantity) and
/// positive finite value. Throws CheckFailure.
void validate_asks(const Job& job, std::span<const Ask> asks);

/// The paper's K_max as the platform can observe it: max_j k_j (0 if no
/// asks). The true max_j K_j is private; Sec. 3-B assumes k_j <= K_j.
std::uint32_t observed_k_max(std::span<const Ask> asks);

/// U_j = p_j - x_j * c_j.
inline double utility(double payment, std::uint32_t allocation,
                      double unit_cost) {
  return payment - static_cast<double>(allocation) * unit_cost;
}

}  // namespace rit::core
