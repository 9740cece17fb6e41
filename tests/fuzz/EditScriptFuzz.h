//===- fuzz/EditScriptFuzz.h - Transaction fuzzing --------------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The edit-script mode of the fuzz harness: where fuzz/FuzzHarness.h
/// mutates *byte streams* against the parser, this mode mutates
/// *sequences of transactions* against a live LookupService. Each case is
/// derived purely from a 64-bit seed: a seeded random hierarchy becomes
/// epoch 1, then a random mix of valid and deliberately invalid
/// transactions (unknown names, duplicate bases, cycle-inducing edges,
/// dangling removals) is committed against it. Two oracles check every
/// step:
///
///  * **rollback restores answers**: a failed commit must leave the
///    service's snapshot pointer, epoch, and every (class, member)
///    answer bit-identical to before the transaction;
///  * **differential check**: after every successful commit the new
///    epoch is audited - engines against each other and the cached
///    table against a fresh engine (LookupService::auditNow).
///
/// The contract is the same as the byte-level fuzzer's: no input
/// sequence may crash, assert, trip a sanitizer, or produce a
/// disagreement, and everything reproduces from the seed alone.
///
/// The removal campaign (runRemovalCase) is the complement: random
/// operands rarely name an edge or member that exists, so there every
/// RemoveBase, RemoveMember and AddUsing operand is drawn from the
/// current hierarchy's edges, members and transitive bases, and a
/// name-level model of the committed hierarchy is the oracle.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_FUZZ_EDITSCRIPTFUZZ_H
#define MEMLOOK_FUZZ_EDITSCRIPTFUZZ_H

#include "memlook/support/ResourceBudget.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace memlook {
namespace service {

/// Outcome of one edit-script fuzz case.
struct EditScriptCaseResult {
  uint64_t Seed = 0;
  /// Transactions generated and committed (or rejected) in this case.
  uint64_t TxnsAttempted = 0;
  uint64_t TxnsCommitted = 0;
  /// Rejected by replay/validation - expected for the invalid mix.
  uint64_t TxnsRejected = 0;
  /// (class, member) pairs compared across the case's audits.
  uint64_t PairsChecked = 0;
  uint64_t PairsSkipped = 0;
  /// Oracle violations: engine disagreements, table corruption, or a
  /// rollback that failed to restore answers. Always a bug.
  std::vector<std::string> Mismatches;
  /// CRC-32C over the outcome of every commit attempt, in order: the
  /// hierarchyFingerprint() of each published epoch, the ErrorCode of
  /// each rejection. Two builds that agree on it committed the same
  /// hierarchies and refused the same transactions for the same reasons.
  uint32_t OutcomeDigest = 0;

  bool passed() const { return Mismatches.empty(); }
};

/// Aggregate outcome of a seed range.
struct EditScriptCampaignReport {
  uint64_t CasesRun = 0;
  uint64_t TxnsCommitted = 0;
  uint64_t TxnsRejected = 0;
  uint64_t PairsChecked = 0;
  uint64_t PairsSkipped = 0;
  std::vector<EditScriptCaseResult> Failures;

  bool passed() const { return Failures.empty(); }
};

/// Runs one seeded edit-script case against a fresh LookupService under
/// \p Budget. Never crashes or asserts on any seed, by contract.
EditScriptCaseResult
runEditScriptCase(uint64_t Seed,
                  const ResourceBudget &Budget = ResourceBudget::untrustedInput());

/// Runs seeds [FirstSeed, FirstSeed + NumCases) and aggregates.
EditScriptCampaignReport
runEditScriptCampaign(uint64_t FirstSeed, uint64_t NumCases,
                      const ResourceBudget &Budget =
                          ResourceBudget::untrustedInput());

/// Outcome of one removal-campaign case.
struct RemovalCaseResult {
  uint64_t Seed = 0;
  uint64_t TxnsCommitted = 0;
  uint64_t TxnsRejected = 0;
  /// Ops inside committed transactions, indexed by Transaction::OpKind.
  std::array<uint64_t, 7> CommittedOps{};
  /// Oracle violations; always a bug.
  std::vector<std::string> Mismatches;

  bool passed() const { return Mismatches.empty(); }
};

/// Runs one seeded removal-campaign case: a random hierarchy, then
/// transactions of RemoveBase, RemoveMember, AddUsing, AddBase and
/// AddMember ops whose operands exist by construction. The same edits
/// are applied to a name-level model, and after every commit attempt:
///
///  * the service commits iff a fresh HierarchyBuilder build of the
///    model succeeds, and a refusal carries that build's ErrorCode;
///  * a published hierarchy equals that fresh build in every id-level
///    fact, closures and topological order included;
///  * a published table equals LookupTable::build over its hierarchy.
RemovalCaseResult runRemovalCase(uint64_t Seed);

} // namespace service
} // namespace memlook

#endif // MEMLOOK_FUZZ_EDITSCRIPTFUZZ_H
