// Compile-time bug injection for the testkit self-test.
//
// The fuzz harness (src/testkit/ + tools/fuzz_runner.cpp) claims to catch
// mechanism bugs by differential comparison against a naive oracle. That
// claim is itself tested: tools/CMakeLists.txt builds variants of the fuzz
// runner whose core objects are recompiled with RIT_TESTKIT_INJECT_BUG set
// to one of the ids below, and a ctest case per id asserts the harness
// flags the planted bug within the smoke iteration budget. A net with a
// hole fails its own self-test, not a future release.
//
// The production build never defines RIT_TESTKIT_INJECT_BUG, so every
// injection site compiles to exactly the shipped code (the #if arms are
// plain preprocessor conditionals — no runtime cost, no extra symbols).
// The rit_lint rule `testkit-only-injection` confines these conditionals
// to files that opt in via an explicit allow-file escape, so a planted bug
// cannot quietly spread beyond the audited sites.
#pragma once

/// Flips the pre-shuffle tie order in CRA's sorted winner ordering, so
/// equal-value asks enter the tie shuffle in reverse index order and the
/// "smallest n_s asks" resolve to different owners.
#define RIT_BUG_CRA_TIEBREAK 1
/// Off-by-one in the payment pass's depth-discount memo: a depth-d
/// descendant contributes base^(d+1) instead of base^d.
#define RIT_BUG_DISCOUNT_DEPTH 2
/// Each per-type running sum in the payment pass's preorder scan forgets
/// its first contribution, so the same-type share of every subtree holding
/// that contributor comes out too small and its root is overpaid.
#define RIT_BUG_PREFIX_CARRY 3

#ifndef RIT_TESTKIT_INJECT_BUG
#define RIT_TESTKIT_INJECT_BUG 0
#endif

/// True (at preprocessing time) when this translation unit is being built
/// as the bug-variant object for `id`.
#define RIT_BUG_ENABLED(id) (RIT_TESTKIT_INJECT_BUG == (id))
