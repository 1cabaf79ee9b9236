// FuzzCase: one self-contained mechanism scenario — the unit the fuzzer
// generates, mutates, shrinks, and persists as a repro file.
//
// A case carries everything a deterministic replay needs: the job's demand
// vector, the asks, each participant's true unit cost (for the IR
// invariant), the tree's parent vector, the full RitConfig, and the
// mechanism seed. The on-disk format is a line-keyed text file
// ("ritcs-fuzzcase v2") with hex-float doubles and an FNV-1a checksum, so
// a committed repro reloads bit-identically on any platform and a corrupt
// or hand-mangled file is rejected rather than silently misreplayed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/types.h"

namespace rit::testkit {

struct FuzzCase {
  /// Job demand vector: demand[t] = m_t. Size = number of task types.
  std::vector<std::uint32_t> demand;
  /// Sealed bids, one per participant (participant j = tree node j+1).
  std::vector<core::Ask> asks;
  /// True unit costs c_j; the generator keeps c_j <= a_j so the IR
  /// invariant (Thm 1) applies to every participant.
  std::vector<double> costs;
  /// parents[j] = parent tree node of node j+1; always < j+1 so the
  /// vector is a valid tree by construction.
  std::vector<std::uint32_t> parents;
  core::RitConfig config;
  /// Seed of the rng::Rng the mechanism consumes.
  std::uint64_t mech_seed{0};
  /// Failure signature recorded by the fuzzer when this case was written
  /// as a repro (empty for corpus-only cases). --expect-repro replays
  /// against it.
  std::string signature;
};

/// Serializes to the "ritcs-fuzzcase v2" text format. Deterministic:
/// identical cases serialize to identical bytes.
std::string serialize_case(const FuzzCase& c);

/// Parses a serialized case; verifies the version line and the checksum.
/// Empty optional on any malformed input.
std::optional<FuzzCase> parse_case(const std::string& text);

/// Reads and parses a case file; empty optional if unreadable/malformed.
std::optional<FuzzCase> load_case_file(const std::string& path);

/// Atomically writes `c` to `path` (write-fsync-rename).
void write_case_file(const std::string& path, const FuzzCase& c);

/// FNV-1a fingerprint of the case's serialized payload (signature line
/// excluded, so shrinking metadata does not perturb identity).
std::uint64_t case_hash(const FuzzCase& c);

}  // namespace rit::testkit
