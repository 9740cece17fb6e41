//===- LookupServiceTest.cpp -----------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit coverage of the long-lived lookup service: epoch-versioned
/// snapshots, transactional commits and rollbacks, the deadline
/// degradation ladder, and the self-audit's quarantine-and-rebuild path.
///
//===----------------------------------------------------------------------===//

#include "memlook/service/LookupService.h"

#include "memlook/chg/HierarchyBuilder.h"
#include "memlook/core/DifferentialCheck.h"

#include "TestUtil.h"
#include "fuzz/EditScriptFuzz.h"

#include <gtest/gtest.h>

#include <thread>

using namespace memlook;
using namespace memlook::service;
using memlook::testutil::makeFigure9;

namespace {

/// A small single-diamond hierarchy with distinct members per class.
Hierarchy diamond() {
  HierarchyBuilder B;
  B.addClass("Base").withMember("shared").withMember("tag");
  B.addClass("Left").withVirtualBase("Base").withMember("left_only");
  B.addClass("Right").withVirtualBase("Base").withMember("right_only");
  B.addClass("Join").withBase("Left").withBase("Right");
  return std::move(B).build();
}

} // namespace

TEST(LookupServiceTest, InitialEpochServesWarmTabulatedAnswers) {
  LookupService Svc(diamond());
  EXPECT_EQ(Svc.currentEpoch(), 1u);
  EXPECT_TRUE(Svc.tableHealth().isOk());

  QueryAnswer A = Svc.query("Join", "left_only");
  EXPECT_TRUE(A.S.isOk());
  EXPECT_EQ(A.Rung, AnswerRung::Tabulated);
  EXPECT_FALSE(A.Approximate);
  EXPECT_EQ(A.Epoch, 1u);
  ASSERT_EQ(A.Result.Status, LookupStatus::Unambiguous);
  EXPECT_EQ(Svc.snapshot()->H->className(A.Result.DefiningClass), "Left");
}

TEST(LookupServiceTest, UnknownContextAnswersWithStatus) {
  LookupService Svc(diamond());
  QueryAnswer A = Svc.query("NoSuchClass", "shared");
  EXPECT_EQ(A.S.code(), ErrorCode::UnknownClass);
  EXPECT_EQ(A.Result.Status, LookupStatus::NotFound);
  EXPECT_EQ(Svc.stats().UnknownContexts, 1u);
}

TEST(LookupServiceTest, UnknownMemberAnswersNotFound) {
  LookupService Svc(diamond());
  QueryAnswer A = Svc.query("Join", "no_such_member");
  EXPECT_TRUE(A.S.isOk());
  EXPECT_EQ(A.Result.Status, LookupStatus::NotFound);
}

TEST(LookupServiceTest, CommitPublishesNewEpochAndPreservesPinnedReaders) {
  LookupService Svc(diamond());
  std::shared_ptr<const Snapshot> Pinned = Svc.snapshot();

  Transaction Txn = Svc.beginTxn();
  Txn.addClass("Leaf").addBase("Leaf", "Join").addMember("Leaf", "fresh");
  ASSERT_TRUE(Svc.commit(Txn).isOk());

  EXPECT_EQ(Svc.currentEpoch(), 2u);
  QueryAnswer New = Svc.query("Leaf", "fresh");
  EXPECT_EQ(New.Result.Status, LookupStatus::Unambiguous);
  EXPECT_EQ(New.Epoch, 2u);

  // The pinned epoch-1 snapshot still answers, and has never heard of
  // the new class.
  EXPECT_EQ(Pinned->Epoch, 1u);
  QueryAnswer Old = Svc.queryOn(*Pinned, "Leaf", "fresh");
  EXPECT_EQ(Old.S.code(), ErrorCode::UnknownClass);
  QueryAnswer Shared = Svc.queryOn(*Pinned, "Join", "shared");
  EXPECT_EQ(Shared.Result.Status, LookupStatus::Unambiguous);
}

TEST(LookupServiceTest, FailedCommitRollsBackCompletely) {
  LookupService Svc(diamond());
  std::shared_ptr<const Snapshot> Before = Svc.snapshot();

  // Valid prefix, invalid suffix: a cycle Join -> ... -> Base -> Join.
  Transaction Txn = Svc.beginTxn();
  Txn.addMember("Base", "would_be_new").addBase("Base", "Join");
  Status S = Svc.commit(Txn);
  ASSERT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), ErrorCode::InheritanceCycle) << S.toString();

  // Nothing was published: same epoch, same snapshot object.
  EXPECT_EQ(Svc.currentEpoch(), 1u);
  EXPECT_EQ(Svc.snapshot().get(), Before.get());
  EXPECT_EQ(Svc.query("Base", "would_be_new").Result.Status,
            LookupStatus::NotFound);
  EXPECT_EQ(Svc.stats().CommitRejects, 1u);
}

TEST(LookupServiceTest, RemovalOpsChangeAnswers) {
  LookupService Svc(diamond());

  // Removing Left's declaration re-routes Join::left_only to NotFound.
  Transaction Remove = Svc.beginTxn();
  Remove.removeMember("Left", "left_only");
  ASSERT_TRUE(Svc.commit(Remove).isOk());
  EXPECT_EQ(Svc.query("Join", "left_only").Result.Status,
            LookupStatus::NotFound);

  // Removing the Right edge makes Join::right_only invisible too.
  Transaction Unlink = Svc.beginTxn();
  Unlink.removeBase("Join", "Right");
  ASSERT_TRUE(Svc.commit(Unlink).isOk());
  EXPECT_EQ(Svc.query("Join", "right_only").Result.Status,
            LookupStatus::NotFound);

  // Right is now unreferenced and can be dropped entirely.
  Transaction Drop = Svc.beginTxn();
  Drop.removeClass("Right");
  ASSERT_TRUE(Svc.commit(Drop).isOk());
  EXPECT_EQ(Svc.query("Right", "right_only").S.code(), ErrorCode::UnknownClass);
  EXPECT_EQ(Svc.currentEpoch(), 4u);
}

TEST(LookupServiceTest, RemoveReferencedClassIsRefused) {
  LookupService Svc(diamond());
  Transaction Txn = Svc.beginTxn();
  Txn.removeClass("Base"); // still a base of Left and Right
  Status S = Svc.commit(Txn);
  EXPECT_EQ(S.code(), ErrorCode::InvalidArgument);
  EXPECT_EQ(Svc.currentEpoch(), 1u);
}

TEST(LookupServiceTest, StaleTransactionConflicts) {
  LookupService Svc(diamond());
  Transaction Stale = Svc.beginTxn();
  Transaction Winner = Svc.beginTxn();

  Winner.addMember("Join", "won");
  ASSERT_TRUE(Svc.commit(Winner).isOk());

  Stale.addMember("Join", "lost");
  Status S = Svc.commit(Stale);
  EXPECT_EQ(S.code(), ErrorCode::TransactionConflict);
  EXPECT_EQ(Svc.currentEpoch(), 2u);
  EXPECT_EQ(Svc.query("Join", "lost").Result.Status, LookupStatus::NotFound);
  EXPECT_EQ(Svc.stats().CommitConflicts, 1u);

  // Replaying the same edits against the new epoch succeeds.
  Transaction Retry = Svc.beginTxn();
  Retry.addMember("Join", "lost");
  EXPECT_TRUE(Svc.commit(Retry).isOk());
  EXPECT_EQ(Svc.query("Join", "lost").Result.Status,
            LookupStatus::Unambiguous);
}

TEST(LookupServiceTest, ColdServiceDegradesToPerQueryEngineAndWarms) {
  ServiceOptions Opts;
  Opts.WarmOnCommit = false;
  LookupService Svc(diamond(), Opts);

  EXPECT_FALSE(Svc.tableHealth().isOk());
  QueryAnswer Cold = Svc.query("Join", "shared");
  EXPECT_EQ(Cold.Rung, AnswerRung::Figure8PerQuery);
  EXPECT_EQ(Cold.Result.Status, LookupStatus::Unambiguous);
  EXPECT_FALSE(Cold.Approximate);

  ASSERT_TRUE(Svc.warmCurrent().isOk());
  EXPECT_TRUE(Svc.tableHealth().isOk());
  QueryAnswer Warm = Svc.query("Join", "shared");
  EXPECT_EQ(Warm.Rung, AnswerRung::Tabulated);
  EXPECT_EQ(Warm.Epoch, 1u); // warming republishes the same epoch
  EXPECT_EQ(renderLookupForComparison(*Svc.snapshot()->H, Warm.Result),
            renderLookupForComparison(*Svc.snapshot()->H, Cold.Result));
}

TEST(LookupServiceTest, ExpiredDeadlineFallsToApproximateFloor) {
  ServiceOptions Opts;
  Opts.WarmOnCommit = false; // skip rung 0 so the ladder is visible
  LookupService Svc(makeFigure9(), Opts);

  std::atomic<bool> Cancelled{true};
  Deadline D = Deadline::never();
  D.withCancelFlag(&Cancelled);

  // Figure 9's probe query: the exact engines say unambiguous, the
  // floor rung says ambiguous - so the rung is observable in the answer
  // itself, not just in the metadata.
  QueryAnswer A = Svc.query("E", "m", D);
  EXPECT_EQ(A.Rung, AnswerRung::GxxApproximate);
  EXPECT_TRUE(A.Approximate);
  EXPECT_TRUE(A.DeadlineExpired);
  EXPECT_EQ(A.Result.Status, LookupStatus::Ambiguous);

  QueryAnswer Exact = Svc.query("E", "m");
  EXPECT_EQ(Exact.Rung, AnswerRung::Figure8PerQuery);
  EXPECT_EQ(Exact.Result.Status, LookupStatus::Unambiguous);

  ServiceStats Stats = Svc.stats();
  EXPECT_EQ(Stats.RungAnswers[2], 1u);
  EXPECT_EQ(Stats.RungAnswers[1], 1u);
}

TEST(LookupServiceTest, AuditPassesOnHealthyService) {
  LookupService Svc(diamond());
  AuditReport Report = Svc.auditNow();
  EXPECT_TRUE(Report.passed()) << Report.toString();
  EXPECT_TRUE(Report.TableWasWarm);
  EXPECT_FALSE(Report.QuarantinedTable);
  EXPECT_GT(Report.PairsSampled, 0u);
  EXPECT_GT(Report.EnginePairsChecked, 0u);
  EXPECT_EQ(Svc.stats().Audits, 1u);
  EXPECT_EQ(Svc.stats().AuditMismatches, 0u);
}

TEST(LookupServiceTest, AuditCatchesCorruptedTableAndRebuilds) {
  ServiceOptions Opts;
  Opts.AuditSampleLimit = 0; // full sweep: the corruption must be found
  LookupService Svc(diamond(), Opts);

  std::string HealthyKey = renderLookupForComparison(
      *Svc.snapshot()->H, Svc.query("Join", "shared").Result);

  ASSERT_TRUE(Svc.corruptTableEntryForTesting("Join", "shared"));
  QueryAnswer Lied = Svc.query("Join", "shared");
  EXPECT_NE(renderLookupForComparison(*Svc.snapshot()->H, Lied.Result),
            HealthyKey)
      << "corruption hook failed to change the served answer";

  AuditReport Report = Svc.auditNow();
  EXPECT_FALSE(Report.passed());
  EXPECT_TRUE(Report.QuarantinedTable);
  ASSERT_FALSE(Report.Mismatches.empty());
  EXPECT_NE(Report.Mismatches.front().find("Join"), std::string::npos);

  // The rebuilt table serves the truth again, at the same epoch.
  std::shared_ptr<const Snapshot> Rebuilt = Svc.snapshot();
  EXPECT_EQ(Rebuilt->Epoch, 1u);
  EXPECT_TRUE(Rebuilt->RebuiltByAudit);
  EXPECT_TRUE(Rebuilt->warm());
  QueryAnswer Healed = Svc.query("Join", "shared");
  EXPECT_EQ(Healed.Rung, AnswerRung::Tabulated);
  EXPECT_EQ(renderLookupForComparison(*Rebuilt->H, Healed.Result), HealthyKey);

  AuditReport Clean = Svc.auditNow();
  EXPECT_TRUE(Clean.passed()) << Clean.toString();

  ServiceStats Stats = Svc.stats();
  EXPECT_EQ(Stats.Quarantines, 1u);
  EXPECT_EQ(Stats.TableRebuilds, 1u);
}

TEST(LookupServiceTest, QuarantinedSnapshotSkipsTabulatedRung) {
  ServiceOptions Opts;
  Opts.AuditSampleLimit = 0;
  LookupService Svc(diamond(), Opts);

  // Pin the corrupted snapshot, then let the audit quarantine it.
  ASSERT_TRUE(Svc.corruptTableEntryForTesting("Join", "shared"));
  std::shared_ptr<const Snapshot> Corrupted = Svc.snapshot();
  (void)Svc.auditNow();

  // The pinned reader sees the quarantine (monotone flag on the shared
  // snapshot) and degrades to the exact per-query rung instead of
  // serving the lie.
  EXPECT_TRUE(Corrupted->quarantined());
  QueryAnswer A = Svc.queryOn(*Corrupted, "Join", "shared");
  EXPECT_EQ(A.Rung, AnswerRung::Figure8PerQuery);
  EXPECT_EQ(A.Result.Status, LookupStatus::Unambiguous);
  EXPECT_TRUE(A.TableQuarantined);
  EXPECT_EQ(Svc.queryOn(*Corrupted, "Join", "shared").Result.Status,
            LookupStatus::Unambiguous);
}

TEST(LookupServiceTest, TableHealthReportsQuarantine) {
  ServiceOptions Opts;
  Opts.AuditSampleLimit = 0;
  Opts.AuditEngineCheck = false;
  LookupService Svc(diamond(), Opts);

  ASSERT_TRUE(Svc.corruptTableEntryForTesting("Join", "tag"));
  std::shared_ptr<const Snapshot> Corrupted = Svc.snapshot();
  (void)Svc.auditNow();

  // The *current* snapshot was rebuilt and is healthy; the quarantined
  // one reports through the pinned pointer.
  EXPECT_TRUE(Svc.tableHealth().isOk());
  EXPECT_TRUE(Corrupted->quarantined());
}

TEST(LookupServiceTest, BackgroundAuditRunsAndStops) {
  LookupService Svc(diamond());
  Svc.startBackgroundAudit(/*IntervalMillis=*/5);

  // Wait (bounded) until at least two audits have run.
  for (int Tries = 0; Tries != 400 && Svc.stats().Audits < 2; ++Tries)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(Svc.stats().Audits, 2u);
  EXPECT_EQ(Svc.stats().AuditMismatches, 0u);

  Svc.stopBackgroundAudit();
  uint64_t AfterStop = Svc.stats().Audits;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(Svc.stats().Audits, AfterStop);
}

TEST(LookupServiceTest, CreateRejectsUnfinalizedHierarchy) {
  Hierarchy H;
  (void)H.createClass("A");
  Expected<std::unique_ptr<LookupService>> Svc =
      LookupService::create(std::move(H));
  ASSERT_FALSE(Svc);
  EXPECT_EQ(Svc.status().code(), ErrorCode::NotFinalized);
}

TEST(LookupServiceTest, BudgetBoundsTransactionGrowth) {
  ServiceOptions Opts;
  Opts.Budget.MaxClasses = 5; // diamond already has 4
  LookupService Svc(diamond(), Opts);

  Transaction Txn = Svc.beginTxn();
  Txn.addClass("One").addClass("Two");
  Status S = Svc.commit(Txn);
  EXPECT_EQ(S.code(), ErrorCode::BudgetExceeded);
  EXPECT_EQ(Svc.currentEpoch(), 1u);
}

TEST(LookupServiceTest, EditScriptFuzzSmoke) {
  // A quick deterministic slice of the edit-script campaign; the fuzz
  // binary runs the long version.
  EditScriptCampaignReport Report = runEditScriptCampaign(1, 20);
  EXPECT_EQ(Report.CasesRun, 20u);
  for (const EditScriptCaseResult &Failure : Report.Failures)
    for (const std::string &M : Failure.Mismatches)
      ADD_FAILURE() << "seed " << Failure.Seed << ": " << M;
  EXPECT_GT(Report.TxnsCommitted, 0u);
  EXPECT_GT(Report.TxnsRejected, 0u);
}

TEST(LookupServiceTest, EditScriptCasesAreReproducible) {
  for (uint64_t Seed = 1; Seed != 6; ++Seed) {
    EditScriptCaseResult A = runEditScriptCase(Seed);
    EditScriptCaseResult B = runEditScriptCase(Seed);
    EXPECT_EQ(A.TxnsCommitted, B.TxnsCommitted) << "seed " << Seed;
    EXPECT_EQ(A.TxnsRejected, B.TxnsRejected) << "seed " << Seed;
    EXPECT_EQ(A.Mismatches, B.Mismatches) << "seed " << Seed;
  }
}

TEST(LookupServiceTest, SymbolSpaceStaysBoundedAcrossCommits) {
  // Each commit adds a fresh member and removes the previous one, so the
  // live names never grow. Every epoch is drafted from its predecessor
  // with only the names still in use, so neither the interner nor the
  // table's flat dispatch (sized by it) may grow either: a draft that
  // carried dead names forward would add a slot per commit, for good.
  const char *Classes[] = {"Base", "Left", "Right", "Join"};
  LookupService Svc(diamond());
  uint32_t Names = 0;
  for (int K = 0; K != 1000; ++K) {
    Transaction Txn = Svc.beginTxn();
    Txn.addMember(Classes[K % 4], "fresh" + std::to_string(K));
    if (K != 0)
      Txn.removeMember(Classes[(K - 1) % 4], "fresh" + std::to_string(K - 1));
    ASSERT_TRUE(Svc.commit(Txn).isOk()) << "commit " << K;

    std::shared_ptr<const Snapshot> Snap = Svc.snapshot();
    ASSERT_NE(Snap->Table, nullptr);
    EXPECT_EQ(Snap->Table->memberIndexSize(), Snap->H->numInternedNames());
    if (K == 1)
      Names = Snap->H->numInternedNames();
    if (K >= 1)
      ASSERT_EQ(Snap->H->numInternedNames(), Names) << "commit " << K;
  }
  EXPECT_EQ(Svc.snapshot()->H->numMemberDecls(),
            diamond().numMemberDecls() + 1);
}
