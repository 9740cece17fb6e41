//===- fuzz/FuzzHarness.h - Fuzzing the pipeline ----------------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic fuzz harness for the untrusted-input pipeline. Each
/// case is derived purely from a 64-bit seed: a seeded random hierarchy
/// is printed back to mini-language source (exercising the happy path
/// end to end), then - for most seeds - mutated at the byte level
/// (deletions, duplications, junk insertion, truncation) so the lexer
/// and parser error paths get the same coverage. Running a case parses
/// the input under a ResourceBudget and, when the parse succeeds, runs
/// the differential oracle (figure8 vs propagation vs Rossie-Friedman)
/// over the result. The contract under test is simple: no input may
/// crash, assert, trip a sanitizer, or make the engines disagree.
///
/// Everything is reproducible from the seed alone, so a failing case in
/// CI is a one-line reproducer, not an artifact to ship around.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_FUZZ_FUZZHARNESS_H
#define MEMLOOK_FUZZ_FUZZHARNESS_H

#include "memlook/support/ResourceBudget.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace memlook {

/// Outcome of one fuzz case.
struct FuzzCaseResult {
  uint64_t Seed = 0;
  /// Whether the parser accepted the input. Rejection is a *success*
  /// for mutated inputs - the point is that it happened via
  /// diagnostics, not a crash.
  bool Parsed = false;
  /// Whether the diagnostics error cap truncated reporting.
  bool DiagnosticsTruncated = false;
  /// Differential-oracle tallies (zero when the parse failed).
  uint64_t PairsChecked = 0;
  uint64_t PairsSkipped = 0;
  /// Engine disagreements - always a bug.
  std::vector<std::string> Mismatches;

  bool passed() const { return Mismatches.empty(); }
};

/// Aggregate outcome of a seed range.
struct FuzzCampaignReport {
  uint64_t CasesRun = 0;
  uint64_t CasesParsed = 0;
  uint64_t CasesRejected = 0;
  uint64_t PairsChecked = 0;
  uint64_t PairsSkipped = 0;
  /// Cases whose oracle found a mismatch.
  std::vector<FuzzCaseResult> Failures;

  bool passed() const { return Failures.empty(); }
};

/// Deterministically derives the fuzz input for \p Seed. Roughly a third
/// of seeds yield well-formed source (random hierarchy, pretty-printed);
/// the rest are that source with 1-4 byte-level mutations applied.
std::string generateFuzzInput(uint64_t Seed);

/// Runs one explicit input through parse + differential oracle under
/// \p Budget. Never crashes or asserts on any input, by contract.
FuzzCaseResult runFuzzCase(uint64_t Seed, std::string_view Source,
                           const ResourceBudget &Budget);

/// Convenience: generateFuzzInput(Seed) then runFuzzCase on it.
FuzzCaseResult
runFuzzCase(uint64_t Seed,
            const ResourceBudget &Budget = ResourceBudget::untrustedInput());

/// Runs seeds [FirstSeed, FirstSeed + NumCases) and aggregates.
FuzzCampaignReport
runFuzzCampaign(uint64_t FirstSeed, uint64_t NumCases,
                const ResourceBudget &Budget = ResourceBudget::untrustedInput());

} // namespace memlook

#endif // MEMLOOK_FUZZ_FUZZHARNESS_H
