//===- FuzzHarnessTest.cpp -------------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CI face of the fuzz harness: a deterministic 1000-seed campaign
/// through the full untrusted-input pipeline (generate -> mutate ->
/// parse under budget -> differential oracle). Any crash fails the
/// binary, any sanitizer report fails the asan preset, and any engine
/// disagreement fails these assertions with the offending seed in the
/// message - `runFuzzCase(seed)` reproduces it exactly.
///
//===----------------------------------------------------------------------===//

#include "fuzz/FuzzHarness.h"

#include <gtest/gtest.h>

using namespace memlook;

namespace {
constexpr uint64_t CampaignSeed = 20260805;
constexpr uint64_t CampaignSize = 1000;
} // namespace

TEST(FuzzHarnessTest, GenerationIsDeterministic) {
  for (uint64_t Seed : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
    EXPECT_EQ(generateFuzzInput(Seed), generateFuzzInput(Seed))
        << "seed " << Seed;
  }
  // Distinct seeds should essentially never collide.
  EXPECT_NE(generateFuzzInput(1), generateFuzzInput(2));
}

TEST(FuzzHarnessTest, CaseResultsAreReproducible) {
  for (uint64_t Seed = 0; Seed != 16; ++Seed) {
    FuzzCaseResult A = runFuzzCase(Seed);
    FuzzCaseResult B = runFuzzCase(Seed);
    EXPECT_EQ(A.Parsed, B.Parsed) << "seed " << Seed;
    EXPECT_EQ(A.PairsChecked, B.PairsChecked) << "seed " << Seed;
    EXPECT_EQ(A.PairsSkipped, B.PairsSkipped) << "seed " << Seed;
    EXPECT_EQ(A.Mismatches, B.Mismatches) << "seed " << Seed;
  }
}

TEST(FuzzHarnessTest, CampaignOf1000SeedsFindsNoBugs) {
  FuzzCampaignReport Report =
      runFuzzCampaign(CampaignSeed, CampaignSize,
                      ResourceBudget::untrustedInput());

  EXPECT_EQ(Report.CasesRun, CampaignSize);
  for (const FuzzCaseResult &Failure : Report.Failures)
    for (const std::string &Mismatch : Failure.Mismatches)
      ADD_FAILURE() << "seed " << Failure.Seed << ": " << Mismatch;
  EXPECT_TRUE(Report.passed());

  // The corpus must exercise both sides of the pipeline: a healthy
  // fraction parses (oracle coverage) and a healthy fraction is
  // rejected (error-path coverage). These are loose structural floors,
  // not tuning targets.
  EXPECT_GT(Report.CasesParsed, CampaignSize / 10);
  EXPECT_GT(Report.CasesRejected, CampaignSize / 10);
  EXPECT_GT(Report.PairsChecked, 0u);
}

TEST(FuzzHarnessTest, HostileHandAuthoredInputsDoNotCrash) {
  const char *Inputs[] = {
      "",
      ";",
      "}",
      "{{{{{{{{",
      "class",
      "class ;",
      "class A : A {};",
      "class A { class A { class A {",
      "lookup ::;",
      "expect A::m = ;",
      "code { x; }",
      "using X::y;",
      "\x01\x02\x03\xff",
      "/* never closed",
      "class A {}; class A {}; class A {};",
      "struct S : virtual S, S {};",
  };
  for (const char *Input : Inputs) {
    FuzzCaseResult Result =
        runFuzzCase(/*Seed=*/0, Input, ResourceBudget::untrustedInput());
    EXPECT_TRUE(Result.passed()) << "input: " << Input;
  }
}

TEST(FuzzHarnessTest, FaultInjectedCampaignDegradesGracefully) {
  // With the injector arming every reference lookup to trip, the oracle
  // must skip pairs rather than mismatch or crash.
  ResourceBudget Budget = ResourceBudget::untrustedInput();
  Budget.FaultAfterChecks = 1;
  FuzzCampaignReport Report = runFuzzCampaign(CampaignSeed, 50, Budget);
  EXPECT_TRUE(Report.passed());
  // Some parsed cases must have hit the injector and been skipped.
  EXPECT_GT(Report.PairsSkipped, 0u);
}
