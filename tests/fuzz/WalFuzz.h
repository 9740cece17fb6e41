//===- fuzz/WalFuzz.h - Write-ahead-log fuzzing -----------------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The WAL mode of the fuzz harness: where --snapshots mutates
/// serialized snapshot files, this mode mutates *write-ahead-log bytes*
/// against the salvage scanner. Each case derives purely from a 64-bit
/// seed: a seeded random hierarchy plus a chain of valid transactions
/// is encoded into a log (base record + one record per commit), then
/// mutation rounds corrupt the bytes - bit flips, truncations, zeroed
/// ranges, spliced/duplicated/reordered records, rewritten epochs,
/// trailing junk - and feed them to salvageWalBytes. Half the
/// payload-touching mutations are *resealed* (every record CRC
/// recomputed) so the epoch-chain and op-decoding validation behind the
/// checksum gate is exercised too.
///
/// Three oracles:
///
///  * **round trip**: the unmutated log salvages completely, and
///    replaying its records through applyEditScript reproduces a
///    hierarchy whose lookup answers match the directly-edited chain
///    entry for entry;
///  * **unsealed mutations never forge history**: any salvaged record
///    must be byte-identical to the record originally at its position -
///    a mutation without a reseal can only shorten the salvage (torn
///    tail) or stop it with a recoverable WalCorrupt/WalEpochSkew,
///    never alter what replays;
///  * **whatever salvages, replays safely**: salvaged records (even
///    from resealed mutations) either fail cleanly in the transaction
///    engine or produce a hierarchy whose tabulated answers agree with
///    a fresh Figure 8 engine - never a crash, assert, or sanitizer
///    report.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_FUZZ_WALFUZZ_H
#define MEMLOOK_FUZZ_WALFUZZ_H

#include "memlook/support/ResourceBudget.h"

#include <cstdint>
#include <string>
#include <vector>

namespace memlook {
namespace service {

/// Outcome of one WAL fuzz case (one seed; several mutation rounds over
/// one encoded log).
struct WalFuzzCaseResult {
  uint64_t Seed = 0;
  uint64_t BytesEncoded = 0;
  uint64_t RoundsRun = 0;
  /// Rounds whose salvage stopped with a recoverable error status.
  uint64_t RoundsRejected = 0;
  /// Rounds whose salvage came back clean (possibly after dropping a
  /// torn tail).
  uint64_t RoundsClean = 0;
  /// Transaction records salvaged across all rounds.
  uint64_t RecordsSalvaged = 0;
  /// (class, member) answers compared by the replay differentials.
  uint64_t PairsChecked = 0;
  /// Oracle violations. Always a bug.
  std::vector<std::string> Mismatches;

  bool passed() const { return Mismatches.empty(); }
};

/// Aggregate outcome of a seed range.
struct WalFuzzCampaignReport {
  uint64_t CasesRun = 0;
  uint64_t RoundsRun = 0;
  uint64_t RoundsRejected = 0;
  uint64_t RoundsClean = 0;
  uint64_t RecordsSalvaged = 0;
  uint64_t PairsChecked = 0;
  std::vector<WalFuzzCaseResult> Failures;

  bool passed() const { return Failures.empty(); }
};

/// Runs one seeded WAL-mutation case under \p Budget. Never crashes or
/// asserts on any seed, by contract.
WalFuzzCaseResult
runWalFuzzCase(uint64_t Seed,
               const ResourceBudget &Budget = ResourceBudget::untrustedInput());

/// Runs seeds [FirstSeed, FirstSeed + NumCases) and aggregates.
WalFuzzCampaignReport
runWalFuzzCampaign(uint64_t FirstSeed, uint64_t NumCases,
                   const ResourceBudget &Budget =
                       ResourceBudget::untrustedInput());

} // namespace service
} // namespace memlook

#endif // MEMLOOK_FUZZ_WALFUZZ_H
