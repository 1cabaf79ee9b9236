// The DARPA Network Challenge story from the paper's introduction.
//
//   build/examples/balloon_challenge
//
// Reenacts the MIT team's geometric referral scheme — Alice recruits Bob,
// Bob finds a $2000 balloon — and Bob's sybil attack against it, then shows
// the same attack against RIT's payment determination phase, where it earns
// the attacker strictly nothing extra.
#include <iostream>

#include "baselines/geometric_referral.h"
#include "common/format_util.h"
#include "core/payment.h"
#include "tree/incentive_tree.h"
#include "tree/render.h"

int main() {
  using namespace rit;

  std::cout << "== The 2009 DARPA Network Challenge ==\n\n";
  std::cout << "MIT scheme: a balloon finder earns $2000; every ancestor in\n"
               "the referral tree earns half of what its child earned.\n\n";

  // Honest world: platform -> Alice -> Bob. Bob finds the balloon.
  {
    const tree::IncentiveTree t = tree::IncentiveTree({0, 0, 1});
    const std::vector<double> contributions{0.0, 2000.0};
    const auto labels = [](std::uint32_t n) -> std::string {
      switch (n) {
        case 0:
          return "DARPA";
        case 1:
          return "Alice";
        default:
          return "Bob ($2000 balloon)";
      }
    };
    std::cout << tree::render_ascii(t, labels);
    const auto rewards = baselines::geometric_referral_rewards(t, contributions);
    std::cout << "  Bob earns   $" << format_double(rewards[1], 0) << "\n";
    std::cout << "  Alice earns $" << format_double(rewards[0], 0) << "\n\n";
  }

  // Sybil world: Bob splits into Bob2 (fake inviter) and Bob1 (finder).
  {
    const tree::IncentiveTree t = tree::IncentiveTree({0, 0, 1, 2});
    const std::vector<double> contributions{0.0, 0.0, 2000.0};
    const auto labels = [](std::uint32_t n) -> std::string {
      switch (n) {
        case 0:
          return "DARPA";
        case 1:
          return "Alice";
        case 2:
          return "Bob2 (fake)";
        default:
          return "Bob1 ($2000 balloon)";
      }
    };
    std::cout << "Bob launches a sybil attack:\n" << tree::render_ascii(t, labels);
    const auto rewards = baselines::geometric_referral_rewards(t, contributions);
    std::cout << "  Bob earns   $" << format_double(rewards[1] + rewards[2], 0)
              << "  (= " << format_double(rewards[2], 0) << " + "
              << format_double(rewards[1], 0) << ", was $2000 — attack pays!)\n";
    std::cout << "  Alice earns $" << format_double(rewards[0], 0)
              << "  (was $1000 — honest Alice is diluted)\n\n";
  }

  // The same two worlds under RIT's payment determination phase. The
  // balloon find is a "task" of a different type than Alice's, with an
  // auction payment of 2000; weights decay with the contributor's absolute
  // depth, and a user's own identities (same type) contribute nothing.
  std::cout << "== The same story under RIT's payment rule ==\n\n";
  const double base = 0.5;
  core::PaymentWorkspace ws;
  std::vector<double> p;
  {
    const tree::IncentiveTree t = tree::IncentiveTree({0, 0, 1});
    const std::vector<TaskType> types{TaskType{0}, TaskType{1}};
    const std::vector<double> pa{0.0, 2000.0};
    core::tree_payments_into(t, types, pa, base, /*threads=*/1, ws, p);
    std::cout << "honest:  Bob $" << format_double(p[1], 0) << ", Alice $"
              << format_double(p[0], 0) << " (Bob at depth 2: Alice gets "
              << "(1/2)^2 * 2000)\n";
  }
  {
    const tree::IncentiveTree t = tree::IncentiveTree({0, 0, 1, 2});
    // Alice keeps her own task type; both of Bob's identities necessarily
    // share Bob's type (Sec. 3-B).
    const std::vector<TaskType> types{TaskType{0}, TaskType{1}, TaskType{1}};
    const std::vector<double> pa{0.0, 0.0, 2000.0};
    core::tree_payments_into(t, types, pa, base, /*threads=*/1, ws, p);
    std::cout << "sybil:   Bob $" << format_double(p[1] + p[2], 0)
              << " (Bob1+Bob2 — identities share Bob's type, so they feed "
                 "him nothing)\n";
    std::cout << "         Alice $" << format_double(p[0], 0)
              << " (the finder sank to depth 3: dilution hurts the "
                 "attacker's subtree, not just Alice)\n\n";
  }
  std::cout << "Under RIT, splitting can only push your own contributors\n"
               "deeper (halving their value to you) — the DARPA attack is\n"
               "structurally unprofitable (Lemma 6.4).\n";
  return 0;
}
