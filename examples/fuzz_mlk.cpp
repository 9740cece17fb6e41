//===- fuzz_mlk.cpp - End-to-end fuzz driver ---------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
//
// Command-line face of the fuzz harness. Where random_audit fuzzes the
// *engines* with well-formed hierarchies, this drives the whole
// untrusted-input pipeline: seed -> generated-and-mutated .mlk source ->
// parse under the untrusted-input ResourceBudget -> differential oracle
// over whatever parsed. Malformed inputs must be rejected with
// diagnostics, well-formed ones must make every engine agree, and
// nothing may crash - run it under the `asan` preset for the full
// contract.
//
//   $ ./fuzz_mlk                  # 1000 cases, seeds 1..1000
//   $ ./fuzz_mlk 100000           # longer campaign
//   $ ./fuzz_mlk 500 77           # 500 cases starting at seed 77
//   $ ./fuzz_mlk --dump 42        # print the input derived from seed 42
//
// The --edits mode fuzzes the *service* instead of the parser: each seed
// derives a random hierarchy plus a sequence of valid-and-invalid
// transactions committed against a live LookupService, with the
// differential check auditing every committed epoch and the
// rollback-restores-answers invariant checking every rejected one:
//
//   $ ./fuzz_mlk --edits          # 200 edit-script cases, seeds 1..200
//   $ ./fuzz_mlk --edits 500 77   # 500 cases starting at seed 77
//
// The --snapshots mode fuzzes the *snapshot loader*: each seed derives a
// random hierarchy, tabulates and serializes it, then mutates the bytes
// (bit flips, truncations, section swaps, length lies - half of them
// re-checksummed to reach the structural validators) and loads them
// under the untrusted-input budget. Unsealed mutations must be rejected
// with a recoverable Status; anything that loads must answer exactly
// like a fresh tabulation over its own hierarchy:
//
//   $ ./fuzz_mlk --snapshots        # 200 snapshot cases, seeds 1..200
//   $ ./fuzz_mlk --snapshots 1000 7 # 1000 cases starting at seed 7
//
// The --wal mode fuzzes the *write-ahead-log salvager*: each seed
// derives a random hierarchy plus a chain of committed transactions,
// encodes them as a log, then mutates the bytes (bit flips, torn
// appends, spliced/dropped/reordered records, rewritten epochs - half
// resealed to reach the epoch-chain and op-decoding validators) and
// salvages them. Unsealed mutations must salvage to an exact prefix of
// the original records or stop with a recoverable WAL Status; anything
// that replays must agree with the directly-edited chain:
//
//   $ ./fuzz_mlk --wal              # 200 WAL cases, seeds 1..200
//   $ ./fuzz_mlk --wal 1000 7       # 1000 cases starting at seed 7
//
//===----------------------------------------------------------------------===//

#include "fuzz/EditScriptFuzz.h"
#include "fuzz/FuzzHarness.h"
#include "fuzz/SnapshotFuzz.h"
#include "fuzz/WalFuzz.h"

#include <cstdlib>
#include <cstring>
#include <iostream>

using namespace memlook;

static bool parseCount(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(Text, &End, 10);
  return End != Text && *End == '\0';
}

static int usage(const char *Prog) {
  std::cerr << "usage: " << Prog << " [count] [firstSeed]\n"
            << "       " << Prog << " --edits [count] [firstSeed]\n"
            << "       " << Prog << " --snapshots [count] [firstSeed]\n"
            << "       " << Prog << " --wal [count] [firstSeed]\n"
            << "       " << Prog << " --dump <seed>\n";
  return 2;
}

static int runWalMode(int ArgC, char **ArgV) {
  uint64_t Count = 200, FirstSeed = 1;
  if (ArgC > 4 || (ArgC > 2 && !parseCount(ArgV[2], Count)) ||
      (ArgC > 3 && !parseCount(ArgV[3], FirstSeed)))
    return usage(ArgV[0]);

  service::WalFuzzCampaignReport Report = service::runWalFuzzCampaign(
      FirstSeed, Count, ResourceBudget::untrustedInput());

  for (const service::WalFuzzCaseResult &Failure : Report.Failures) {
    std::cout << "FAILURE at seed " << Failure.Seed
              << " (reproduce: ./fuzz_mlk --wal 1 " << Failure.Seed << "):\n";
    for (const std::string &Mismatch : Failure.Mismatches)
      std::cout << "  " << Mismatch << '\n';
  }

  std::cout << "fuzzed " << Report.CasesRun << " logs (" << Report.RoundsRun
            << " mutation rounds): " << Report.RoundsRejected
            << " stopped with a Status, " << Report.RoundsClean
            << " salvaged clean, " << Report.RecordsSalvaged
            << " records salvaged, " << Report.PairsChecked
            << " lookups compared, " << Report.Failures.size()
            << " failing cases\n";
  return Report.passed() ? 0 : 1;
}

static int runSnapshotsMode(int ArgC, char **ArgV) {
  uint64_t Count = 200, FirstSeed = 1;
  if (ArgC > 4 || (ArgC > 2 && !parseCount(ArgV[2], Count)) ||
      (ArgC > 3 && !parseCount(ArgV[3], FirstSeed)))
    return usage(ArgV[0]);

  service::SnapshotFuzzCampaignReport Report =
      service::runSnapshotFuzzCampaign(FirstSeed, Count,
                                       ResourceBudget::untrustedInput());

  for (const service::SnapshotFuzzCaseResult &Failure : Report.Failures) {
    std::cout << "FAILURE at seed " << Failure.Seed
              << " (reproduce: ./fuzz_mlk --snapshots 1 " << Failure.Seed
              << "):\n";
    for (const std::string &Mismatch : Failure.Mismatches)
      std::cout << "  " << Mismatch << '\n';
  }

  std::cout << "fuzzed " << Report.CasesRun << " snapshots ("
            << Report.RoundsRun << " mutation rounds): "
            << Report.RoundsRejected << " rejected with a Status, "
            << Report.RoundsLoaded << " loaded, " << Report.PairsChecked
            << " lookups compared, " << Report.Failures.size()
            << " failing cases\n";
  return Report.passed() ? 0 : 1;
}

static int runEditsMode(int ArgC, char **ArgV) {
  uint64_t Count = 200, FirstSeed = 1;
  if (ArgC > 4 || (ArgC > 2 && !parseCount(ArgV[2], Count)) ||
      (ArgC > 3 && !parseCount(ArgV[3], FirstSeed)))
    return usage(ArgV[0]);

  service::EditScriptCampaignReport Report = service::runEditScriptCampaign(
      FirstSeed, Count, ResourceBudget::untrustedInput());

  for (const service::EditScriptCaseResult &Failure : Report.Failures) {
    std::cout << "FAILURE at seed " << Failure.Seed
              << " (reproduce: ./fuzz_mlk --edits 1 " << Failure.Seed
              << "):\n";
    for (const std::string &Mismatch : Failure.Mismatches)
      std::cout << "  " << Mismatch << '\n';
  }

  std::cout << "fuzzed " << Report.CasesRun << " edit scripts: "
            << Report.TxnsCommitted << " transactions committed, "
            << Report.TxnsRejected << " rolled back, " << Report.PairsChecked
            << " lookups compared, " << Report.PairsSkipped
            << " skipped (budget), " << Report.Failures.size()
            << " failing cases\n";
  return Report.passed() ? 0 : 1;
}

int main(int ArgC, char **ArgV) {
  if (ArgC >= 2 && std::strcmp(ArgV[1], "--edits") == 0)
    return runEditsMode(ArgC, ArgV);
  if (ArgC >= 2 && std::strcmp(ArgV[1], "--snapshots") == 0)
    return runSnapshotsMode(ArgC, ArgV);
  if (ArgC >= 2 && std::strcmp(ArgV[1], "--wal") == 0)
    return runWalMode(ArgC, ArgV);
  if (ArgC >= 2 && std::strcmp(ArgV[1], "--dump") == 0) {
    uint64_t Seed;
    if (ArgC != 3 || !parseCount(ArgV[2], Seed))
      return usage(ArgV[0]);
    std::cout << generateFuzzInput(Seed);
    return 0;
  }

  uint64_t Count = 1000, FirstSeed = 1;
  if (ArgC > 3 || (ArgC > 1 && !parseCount(ArgV[1], Count)) ||
      (ArgC > 2 && !parseCount(ArgV[2], FirstSeed)))
    return usage(ArgV[0]);

  FuzzCampaignReport Report =
      runFuzzCampaign(FirstSeed, Count, ResourceBudget::untrustedInput());

  for (const FuzzCaseResult &Failure : Report.Failures) {
    std::cout << "MISMATCH at seed " << Failure.Seed
              << " (reproduce: ./fuzz_mlk --dump " << Failure.Seed
              << " > case.mlk):\n";
    for (const std::string &Mismatch : Failure.Mismatches)
      std::cout << "  " << Mismatch << '\n';
  }

  std::cout << "fuzzed " << Report.CasesRun << " inputs: "
            << Report.CasesParsed << " parsed, " << Report.CasesRejected
            << " rejected via diagnostics, " << Report.PairsChecked
            << " lookups compared, " << Report.PairsSkipped
            << " skipped (budget), " << Report.Failures.size()
            << " mismatching inputs\n";
  return Report.passed() ? 0 : 1;
}
