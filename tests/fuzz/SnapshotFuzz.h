//===- fuzz/SnapshotFuzz.h - Snapshot-file fuzzing --------------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The snapshot mode of the fuzz harness: where fuzz/FuzzHarness.h
/// mutates .mlk text and EditScriptFuzz.h mutates transaction sequences,
/// this mode mutates *serialized snapshot files* against the hardened
/// loader. Each case derives purely from a 64-bit seed: a seeded random
/// hierarchy is tabulated and serialized, then mutation rounds corrupt
/// the bytes (bit flips, truncations, section swaps, length-field lies,
/// zeroed and duplicated ranges) and feed them to deserializeSnapshot
/// under the untrusted-input budget. Half the payload mutations are
/// *resealed* - every CRC recomputed over the corrupted bytes - so the
/// campaign also exercises the deep structural validation that lives
/// behind the checksum gate, not just the checksums.
///
/// Three oracles:
///
///  * **round trip**: the unmutated buffer must load, and the loaded
///    epoch, hierarchy, and table answers must be identical to the
///    original's (including preserved column-dedup aliasing);
///  * **unsealed mutations are rejected**: the format is gap-free (every
///    byte sits under exactly one CRC, and geometry is cross-checked),
///    so any byte change without a reseal must come back as a
///    recoverable snapshot Status - never a crash, assert, sanitizer
///    report, or silently accepted load;
///  * **resealed mutations never yield a corrupt table**: a resealed
///    file may legitimately decode (it may describe a different but
///    valid snapshot), in which case the loaded table must agree
///    entry-for-entry with a fresh serial tabulation over the loaded
///    hierarchy.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_FUZZ_SNAPSHOTFUZZ_H
#define MEMLOOK_FUZZ_SNAPSHOTFUZZ_H

#include "memlook/support/ResourceBudget.h"

#include <cstdint>
#include <string>
#include <vector>

namespace memlook {
namespace service {

/// Outcome of one snapshot fuzz case (one seed; several mutation rounds
/// over one serialized snapshot).
struct SnapshotFuzzCaseResult {
  uint64_t Seed = 0;
  uint64_t BytesSerialized = 0;
  uint64_t RoundsRun = 0;
  /// Mutated buffers the loader rejected with a recoverable Status.
  uint64_t RoundsRejected = 0;
  /// Buffers that loaded (the unmutated round, plus resealed mutations
  /// that still described a valid snapshot).
  uint64_t RoundsLoaded = 0;
  /// (class, member) answers compared across the case's oracles.
  uint64_t PairsChecked = 0;
  /// Oracle violations. Always a bug.
  std::vector<std::string> Mismatches;

  bool passed() const { return Mismatches.empty(); }
};

/// Aggregate outcome of a seed range.
struct SnapshotFuzzCampaignReport {
  uint64_t CasesRun = 0;
  uint64_t RoundsRun = 0;
  uint64_t RoundsRejected = 0;
  uint64_t RoundsLoaded = 0;
  uint64_t PairsChecked = 0;
  std::vector<SnapshotFuzzCaseResult> Failures;

  bool passed() const { return Failures.empty(); }
};

/// Runs one seeded snapshot-mutation case under \p Budget. Never
/// crashes or asserts on any seed, by contract.
SnapshotFuzzCaseResult
runSnapshotFuzzCase(uint64_t Seed,
                    const ResourceBudget &Budget =
                        ResourceBudget::untrustedInput());

/// Runs seeds [FirstSeed, FirstSeed + NumCases) and aggregates.
SnapshotFuzzCampaignReport
runSnapshotFuzzCampaign(uint64_t FirstSeed, uint64_t NumCases,
                        const ResourceBudget &Budget =
                            ResourceBudget::untrustedInput());

} // namespace service
} // namespace memlook

#endif // MEMLOOK_FUZZ_SNAPSHOTFUZZ_H
