//===- FuzzHarness.cpp - Fuzzing the pipeline --------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "fuzz/FuzzHarness.h"

#include "memlook/core/DifferentialCheck.h"
#include "memlook/frontend/Parser.h"
#include "memlook/frontend/SourcePrinter.h"
#include "memlook/support/Rng.h"
#include "memlook/workload/Generators.h"

#include <algorithm>
#include <sstream>

using namespace memlook;

namespace {

/// Bytes worth injecting: structural punctuation that moves the parser
/// between states, keywords, and plain junk.
constexpr std::string_view JunkAtoms[] = {
    "{", "}", ";", ":", "::", ",", "(", ")", "=", "=>",
    "class ", "struct ", "virtual ", "public ", "private ", "protected ",
    "using ", "lookup ", "expect ", "code ", "static ",
    "X", "$", "\x01", "/*", "*/", "//", "\n",
};

/// Applies one seeded byte-level mutation to \p Source in place.
void mutateOnce(std::string &Source, Rng &R) {
  if (Source.empty()) {
    Source = "}";
    return;
  }
  switch (R.nextBelow(4)) {
  case 0: { // delete a small range
    size_t At = R.nextBelow(Source.size());
    size_t Len = 1 + R.nextBelow(std::min<size_t>(8, Source.size() - At));
    Source.erase(At, Len);
    break;
  }
  case 1: { // duplicate a chunk elsewhere
    size_t At = R.nextBelow(Source.size());
    size_t Len = 1 + R.nextBelow(std::min<size_t>(24, Source.size() - At));
    std::string Chunk = Source.substr(At, Len);
    Source.insert(R.nextBelow(Source.size() + 1), Chunk);
    break;
  }
  case 2: { // insert a junk atom
    constexpr size_t NumAtoms = sizeof(JunkAtoms) / sizeof(JunkAtoms[0]);
    std::string_view Atom = JunkAtoms[R.nextBelow(NumAtoms)];
    Source.insert(R.nextBelow(Source.size() + 1), Atom);
    break;
  }
  default: // truncate (models a cut-off upload)
    Source.resize(R.nextBelow(Source.size()));
    break;
  }
}

} // namespace

std::string memlook::generateFuzzInput(uint64_t Seed) {
  Rng R(Seed);

  RandomHierarchyParams Params;
  Params.NumClasses = static_cast<uint32_t>(R.nextInRange(1, 40));
  Params.AvgBases = 0.5 + R.nextUnit() * 2.0;
  Params.VirtualEdgeChance = R.nextUnit() * 0.6;
  Params.MemberPool = static_cast<uint32_t>(R.nextInRange(1, 8));
  Params.DeclareChance = 0.1 + R.nextUnit() * 0.4;
  Params.StaticChance = R.nextUnit() * 0.3;
  Params.VirtualMemberChance = R.nextUnit() * 0.5;
  Params.RestrictedEdgeChance = R.nextUnit() * 0.4;
  Params.UsingChance = R.nextChance(1, 3) ? R.nextUnit() * 0.3 : 0.0;

  Workload W = makeRandomHierarchy(Params, R.next());
  std::ostringstream OS;
  printHierarchySource(W.H, OS);
  std::string Source = OS.str();

  // A third of the corpus stays well-formed so the engines' agreement is
  // audited too, not just the parser's rejection paths.
  if (R.nextChance(2, 3)) {
    uint64_t Mutations = R.nextInRange(1, 4);
    for (uint64_t I = 0; I != Mutations; ++I)
      mutateOnce(Source, R);
  }
  return Source;
}

FuzzCaseResult memlook::runFuzzCase(uint64_t Seed, std::string_view Source,
                                    const ResourceBudget &Budget) {
  FuzzCaseResult Result;
  Result.Seed = Seed;

  DiagnosticEngine Diags;
  ParseOptions Options;
  Options.Budget = Budget;
  std::optional<ParsedProgram> Program = parseProgram(Source, Diags, Options);
  Result.DiagnosticsTruncated = Diags.truncated();
  if (!Program)
    return Result;

  Result.Parsed = true;
  DifferentialReport Report = runDifferentialCheck(Program->H, Budget);
  Result.PairsChecked = Report.PairsChecked;
  Result.PairsSkipped = Report.PairsSkipped;
  Result.Mismatches = std::move(Report.Mismatches);
  return Result;
}

FuzzCaseResult memlook::runFuzzCase(uint64_t Seed,
                                    const ResourceBudget &Budget) {
  return runFuzzCase(Seed, generateFuzzInput(Seed), Budget);
}

FuzzCampaignReport memlook::runFuzzCampaign(uint64_t FirstSeed,
                                            uint64_t NumCases,
                                            const ResourceBudget &Budget) {
  FuzzCampaignReport Report;
  for (uint64_t I = 0; I != NumCases; ++I) {
    FuzzCaseResult Case = runFuzzCase(FirstSeed + I, Budget);
    ++Report.CasesRun;
    if (Case.Parsed)
      ++Report.CasesParsed;
    else
      ++Report.CasesRejected;
    Report.PairsChecked += Case.PairsChecked;
    Report.PairsSkipped += Case.PairsSkipped;
    if (!Case.passed())
      Report.Failures.push_back(std::move(Case));
  }
  return Report;
}
