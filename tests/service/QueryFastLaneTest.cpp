//===- QueryFastLaneTest.cpp -----------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The query fast lane's correctness contract: resolved-handle queries,
/// batch queries, and allocation-free probes must answer *identically*
/// to the string-keyed path and to a fresh reference engine - the fast
/// lane is an implementation shortcut, never a semantic one. The core
/// is a 500-hierarchy differential campaign (seeded random DAGs with
/// virtual bases, restricted edges, statics, and using-declarations)
/// holding every read entry point against DominanceLookupEngine over
/// every (class, member) pair plus unknown names, on warm, cold,
/// quarantined, and deadline-expired snapshots, with exact read-stat
/// deltas. On top: the post-rewarm shared-short-column regime (a class
/// added after the table was built must get correct answers from both
/// re-tabulated full-span columns and shared shorter ones), transparent
/// stale-key re-resolution across commits, and the bounds-checked
/// handling of forged context ids.
///
//===----------------------------------------------------------------------===//

#include "memlook/core/DifferentialCheck.h"
#include "memlook/core/DominanceLookupEngine.h"
#include "memlook/service/LookupService.h"
#include "memlook/workload/Generators.h"

#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <string>
#include <vector>

using namespace memlook;
using namespace memlook::service;

namespace {

/// Asserts one probe answer against the full engine result for the same
/// (context, member). A probe carries no witness, so agreement means:
/// same classification, and for unambiguous answers the same defining
/// class, effective access, and static-merge flag.
void expectProbeMatches(const Hierarchy &H, const ProbeAnswer &P,
                        const LookupResult &R, const std::string &Where) {
  ASSERT_EQ(P.Status, R.Status) << Where;
  if (R.Status != LookupStatus::Unambiguous)
    return;
  EXPECT_EQ(P.DefiningClass, R.DefiningClass)
      << Where << ": probe says " << H.className(P.DefiningClass)
      << ", engine says " << H.className(R.DefiningClass);
  EXPECT_EQ(P.Access, R.EffectiveAccess.value_or(AccessSpec::Public)) << Where;
  EXPECT_EQ(P.SharedStatic, R.SharedStatic) << Where;
}

/// A snapshot state the campaign drives every read entry point through.
/// All entry points share one ladder, so in each state they must agree
/// on every answer's classification, rung and flags.
struct ReadState {
  const char *Name;
  /// The fixture tabulates on construction (else it stays cold).
  bool Warm;
  /// One table entry is corrupted and auditNow() quarantines the table.
  bool Quarantined;
  /// Every read carries an already-expired deadline.
  bool Expired;

  /// The rung every in-range, known-member answer must come from.
  AnswerRung rung() const {
    if (Warm && !Quarantined)
      return AnswerRung::Tabulated;
    return Expired ? AnswerRung::GxxApproximate : AnswerRung::Figure8PerQuery;
  }
};

constexpr ReadState ReadStates[] = {
    {"warm", true, false, false},
    {"cold", false, false, false},
    {"quarantined", true, true, false},
    {"expired-warm", true, false, true},
    {"expired-cold", false, false, true},
};

/// Read-side stat deltas the campaign expects, tallied call by call.
struct ReadTally {
  uint64_t Queries = 0, Probes = 0, UnknownContexts = 0,
           StaleKeyReresolves = 0;
  uint64_t RungAnswers[3] = {0, 0, 0};
};

/// Corrupts one table entry and lets auditNow() catch it, returning the
/// snapshot the audit quarantined. The audit republishes a rebuilt table
/// at once; quarantining that one as well, the way the audit quarantined
/// the first, holds the service in the window between the two, so the
/// entry points that pin the current snapshot read a quarantined table
/// too.
std::shared_ptr<const Snapshot> quarantineByAudit(LookupService &Svc) {
  std::shared_ptr<const Snapshot> Before = Svc.snapshot();
  const Hierarchy &H = *Before->H;
  EXPECT_TRUE(Svc.corruptTableEntryForTesting(
      H.className(ClassId(0)), H.spelling(H.allMemberNames()[0])));
  std::shared_ptr<const Snapshot> Corrupted = Svc.snapshot();
  EXPECT_TRUE(Svc.auditNow().QuarantinedTable);
  EXPECT_TRUE(Corrupted->quarantined());
  std::shared_ptr<const Snapshot> Rebuilt = Svc.snapshot();
  EXPECT_TRUE(Rebuilt->RebuiltByAudit);
  EXPECT_EQ(Rebuilt->Epoch, Corrupted->Epoch);
  Rebuilt->quarantine();
  return Corrupted;
}

/// One hierarchy's worth of the campaign in one state: every (class,
/// member) pair - plus unknown spellings and a stale key - through all
/// eight read entry points, against a fresh lazy-recursive reference
/// engine. The *On entry points read \p Snap; the others pin the
/// current snapshot, which is in the same state at the same epoch.
void runDifferential(LookupService &Svc, const Snapshot &Snap,
                     const ReadState &State, uint64_t Seed) {
  const Hierarchy &H = *Snap.H;
  ASSERT_EQ(Snap.Epoch, Svc.currentEpoch());
  ASSERT_EQ(Snap.warm(), State.Warm && !State.Quarantined);
  ASSERT_EQ(Svc.snapshot()->warm(), Snap.warm());
  ASSERT_EQ(Svc.snapshot()->quarantined(), Snap.quarantined());
  DominanceLookupEngine Engine(H, DominanceLookupEngine::Mode::LazyRecursive);
  std::atomic<bool> Cancelled{State.Expired};
  Deadline D = Deadline::never();
  D.withCancelFlag(&Cancelled);
  const AnswerRung Rung = State.rung();
  const std::string Prefix =
      "seed " + std::to_string(Seed) + " (" + State.Name + "): ";

  const ServiceStats S0 = Svc.stats();
  ReadTally Want;
  // Checks one answer's ladder metadata and tallies it. Unknown-context
  // and unknown-member answers come from the ladder's O(1) prologue:
  // tabulated rung, deadline not consulted.
  auto Check = [&](const auto &A, bool IsProbe, bool Prologue,
                   const std::string &Where) {
    const AnswerRung WantRung = Prologue ? AnswerRung::Tabulated : Rung;
    ++(IsProbe ? Want.Probes : Want.Queries);
    ++Want.RungAnswers[static_cast<size_t>(WantRung)];
    EXPECT_EQ(A.Rung, WantRung) << Where;
    EXPECT_EQ(A.Epoch, Snap.Epoch) << Where;
    EXPECT_EQ(A.Approximate, WantRung == AnswerRung::GxxApproximate) << Where;
    EXPECT_EQ(A.DeadlineExpired, State.Expired && !Prologue) << Where;
    EXPECT_EQ(A.TableQuarantined, State.Quarantined) << Where;
  };

  std::vector<QueryKey> Keys;
  std::vector<std::string> Expected;
  const std::vector<Symbol> &Names = H.allMemberNames();
  for (uint32_t C = 0; C != H.numClasses(); ++C) {
    std::string Class(H.className(ClassId(C)));
    for (Symbol M : Names) {
      std::string Member(H.spelling(M));
      std::string Where = Prefix + Class + "::" + Member;

      // String paths against the reference (exact rungs only: the
      // approximate floor may over-report ambiguity).
      QueryAnswer ByString = Svc.queryOn(Snap, Class, Member, D);
      ASSERT_TRUE(ByString.S.isOk()) << Where;
      Check(ByString, false, false, Where);
      std::string Want1 = renderLookupForComparison(H, ByString.Result);
      if (Rung != AnswerRung::GxxApproximate) {
        ASSERT_EQ(Want1,
                  renderLookupForComparison(H, Engine.lookup(ClassId(C), M)))
            << Where;
      }
      QueryAnswer ByGuardedString = Svc.query(Class, Member, D);
      Check(ByGuardedString, false, false, Where);
      EXPECT_EQ(renderLookupForComparison(H, ByGuardedString.Result), Want1)
          << Where;

      // Resolved-key paths: identical rendering, zero string work.
      QueryKey Key = Svc.resolve(Class, Member);
      QueryAnswer ByKey = Svc.queryOn(Snap, Key, D);
      Check(ByKey, false, false, Where);
      EXPECT_EQ(renderLookupForComparison(H, ByKey.Result), Want1) << Where;
      QueryAnswer ByGuardedKey = Svc.query(Key, D);
      Check(ByGuardedKey, false, false, Where);
      EXPECT_EQ(renderLookupForComparison(H, ByGuardedKey.Result), Want1)
          << Where;

      // Probes: the compressed classification.
      ProbeAnswer P = Svc.probeOn(Snap, Key, D);
      Check(P, true, false, Where);
      expectProbeMatches(H, P, ByString.Result, Where);
      ProbeAnswer GuardedP = Svc.probe(Key, D);
      Check(GuardedP, true, false, Where);
      expectProbeMatches(H, GuardedP, ByString.Result, Where);

      Keys.push_back(std::move(Key));
      Expected.push_back(std::move(Want1));
    }
  }

  // Unknown spellings answer like the string path: NotFound for a ghost
  // member, UnknownClass for a ghost context - through every entry
  // point, with nothing resolving them away.
  const std::string Class0(H.className(ClassId(0)));
  const std::string Member0(H.spelling(Names[0]));
  QueryKey GhostMember = Svc.resolve(Class0, "fastlane_ghost_member");
  EXPECT_FALSE(GhostMember.Member.isValid());
  QueryKey GhostClass = Svc.resolve("fastlane_ghost_class", Member0);
  EXPECT_FALSE(GhostClass.Context.isValid());
  const std::string GhostWhere = Prefix + "ghost";
  for (QueryAnswer A :
       {Svc.queryOn(Snap, Class0, "fastlane_ghost_member", D),
        Svc.query(Class0, "fastlane_ghost_member", D),
        Svc.queryOn(Snap, GhostMember, D), Svc.query(GhostMember, D)}) {
    Check(A, false, true, GhostWhere);
    EXPECT_TRUE(A.S.isOk()) << GhostWhere;
    EXPECT_EQ(A.Result.Status, LookupStatus::NotFound) << GhostWhere;
  }
  for (ProbeAnswer P :
       {Svc.probeOn(Snap, GhostMember, D), Svc.probe(GhostMember, D)}) {
    Check(P, true, true, GhostWhere);
    EXPECT_EQ(P.Status, LookupStatus::NotFound) << GhostWhere;
    EXPECT_FALSE(P.UnknownContext) << GhostWhere;
  }
  for (QueryAnswer A : {Svc.queryOn(Snap, "fastlane_ghost_class", Member0, D),
                        Svc.query("fastlane_ghost_class", Member0, D),
                        Svc.queryOn(Snap, GhostClass, D),
                        Svc.query(GhostClass, D)}) {
    Check(A, false, true, GhostWhere);
    ++Want.UnknownContexts;
    EXPECT_EQ(A.S.code(), ErrorCode::UnknownClass) << GhostWhere;
    EXPECT_EQ(A.Result.Status, LookupStatus::NotFound) << GhostWhere;
  }
  for (ProbeAnswer P :
       {Svc.probeOn(Snap, GhostClass, D), Svc.probe(GhostClass, D)}) {
    Check(P, true, true, GhostWhere);
    ++Want.UnknownContexts;
    EXPECT_TRUE(P.UnknownContext) << GhostWhere;
    EXPECT_EQ(P.Status, LookupStatus::NotFound) << GhostWhere;
  }

  // The batch path: one queryMany over the whole campaign's keys - the
  // ghosts included - must reproduce every individual answer.
  const size_t NumPairs = Keys.size();
  Keys.push_back(GhostMember);
  Expected.push_back(renderLookupForComparison(H, LookupResult::notFound()));
  Keys.push_back(GhostClass);
  Expected.push_back(renderLookupForComparison(H, LookupResult::notFound()));
  ++Want.UnknownContexts;
  std::vector<QueryAnswer> Answers(Keys.size());
  Svc.queryMany(std::span<QueryKey>(Keys), std::span<QueryAnswer>(Answers),
                D);
  for (size_t I = 0; I != Keys.size(); ++I) {
    std::string Where = Prefix + "batch answer " + std::to_string(I) + " (" +
                        Keys[I].ClassName + "::" + Keys[I].MemberName + ")";
    Check(Answers[I], false, I >= NumPairs, Where);
    EXPECT_EQ(renderLookupForComparison(H, Answers[I].Result), Expected[I])
        << Where;
  }

  // A stale key (as after a commit) re-resolves exactly once per call,
  // whichever entry point it takes.
  auto Stale = [&] {
    QueryKey K = Keys[0];
    K.Epoch = 0;
    ++Want.StaleKeyReresolves;
    return K;
  };
  const std::string StaleWhere = Prefix + "stale key";
  QueryKey K1 = Stale(), K2 = Stale(), K3 = Stale(), K4 = Stale(),
           K5 = Stale();
  Check(Svc.queryOn(Snap, K1, D), false, false, StaleWhere);
  Check(Svc.query(K2, D), false, false, StaleWhere);
  Check(Svc.probeOn(Snap, K3, D), true, false, StaleWhere);
  Check(Svc.probe(K4, D), true, false, StaleWhere);
  QueryAnswer StaleBatch;
  Svc.queryMany(std::span<QueryKey>(&K5, 1),
                std::span<QueryAnswer>(&StaleBatch, 1), D);
  Check(StaleBatch, false, false, StaleWhere);
  for (const QueryKey *K : {&K1, &K2, &K3, &K4, &K5})
    EXPECT_EQ(K->Epoch, Snap.Epoch) << StaleWhere;
  EXPECT_EQ(renderLookupForComparison(H, StaleBatch.Result), Expected[0])
      << StaleWhere;

  const ServiceStats S1 = Svc.stats();
  EXPECT_EQ(S1.Queries - S0.Queries, Want.Queries) << Prefix;
  EXPECT_EQ(S1.Probes - S0.Probes, Want.Probes) << Prefix;
  for (size_t R = 0; R != 3; ++R)
    EXPECT_EQ(S1.RungAnswers[R] - S0.RungAnswers[R], Want.RungAnswers[R])
        << Prefix << "rung " << R;
  EXPECT_EQ(S1.UnknownContexts - S0.UnknownContexts, Want.UnknownContexts)
      << Prefix;
  EXPECT_EQ(S1.StaleKeyReresolves - S0.StaleKeyReresolves,
            Want.StaleKeyReresolves)
      << Prefix;
}

} // namespace

TEST(QueryFastLaneTest, FiveHundredHierarchyDifferentialCampaign) {
  // 500 seeded random DAGs through the full fast lane, each in every
  // ReadState. Parameters keep each hierarchy small (the campaign's
  // power is breadth of shapes, not size) while exercising virtual
  // bases, non-public edges, static members, and using-declarations -
  // everything the compact entry encodes.
  RandomHierarchyParams Params;
  Params.NumClasses = 12;
  Params.MemberPool = 5;
  Params.DeclareChance = 0.3;
  Params.VirtualEdgeChance = 0.3;
  Params.RestrictedEdgeChance = 0.25;
  Params.StaticChance = 0.2;
  Params.UsingChance = 0.1;
  for (uint64_t Seed = 0; Seed != 500; ++Seed) {
    for (const ReadState &State : ReadStates) {
      Workload W = makeRandomHierarchy(Params, 0xfa57 + Seed);
      ServiceOptions O;
      O.WarmOnCommit = State.Warm;
      LookupService Svc(std::move(W.H), O);
      std::shared_ptr<const Snapshot> Snap =
          State.Quarantined ? quarantineByAudit(Svc) : Svc.snapshot();
      runDifferential(Svc, *Snap, State, Seed);
      if (HasFatalFailure())
        return; // one broken seed is enough diagnosis
    }
  }
}

TEST(QueryFastLaneTest, PostRewarmSharedShortColumnsAnswerCorrectly) {
  // After an incremental rewarm, untouched columns are shared from the
  // previous epoch at the *old* class count. A class added by the
  // commit has rows only in the re-tabulated columns; in the shared
  // short ones its row is beyond the span - and that is semantically
  // right, because a name outside the new class's impact set cannot be
  // inherited by it. The proof is differential: every pair, including
  // every (new class, old name) pair, against a fresh engine on the new
  // hierarchy.
  Workload W = makeModularForest(6, 2, 3, 4, 2);
  LookupService Svc(std::move(W.H));

  Transaction Txn = Svc.beginTxn();
  Txn.addClass("FastLaneLeaf")
      .addBase("FastLaneLeaf", "T0")
      .addBase("FastLaneLeaf", "T1", InheritanceKind::Virtual)
      .addMember("T0", "t0_fresh");
  ASSERT_TRUE(Svc.commit(Txn).isOk());

  ServiceStats Stats = Svc.stats();
  ASSERT_GT(Stats.IncrementalRewarms, 0u) << "fixture must rewarm, not rebuild";
  ASSERT_GT(Stats.ColumnsShared, 0u);

  std::shared_ptr<const Snapshot> Snap = Svc.snapshot();
  const Hierarchy &H = *Snap->H;
  DominanceLookupEngine Engine(H, DominanceLookupEngine::Mode::LazyRecursive);
  ClassId Leaf = H.findClass("FastLaneLeaf");
  ASSERT_TRUE(Leaf.isValid());

  uint64_t LeafFound = 0, LeafNotFound = 0;
  for (uint32_t C = 0; C != H.numClasses(); ++C)
    for (Symbol M : H.allMemberNames()) {
      LookupResult Ref = Engine.lookup(ClassId(C), M);
      QueryKey Key = Svc.resolve(std::string(H.className(ClassId(C))),
                                 std::string(H.spelling(M)));
      std::string Where = Key.ClassName + "::" + Key.MemberName;
      QueryAnswer A = Svc.queryOn(*Snap, Key);
      EXPECT_EQ(A.Rung, AnswerRung::Tabulated) << Where;
      ASSERT_EQ(renderLookupForComparison(H, A.Result),
                renderLookupForComparison(H, Ref))
          << Where;
      expectProbeMatches(H, Svc.probeOn(*Snap, Key), Ref, Where);
      if (ClassId(C) == Leaf)
        ++(Ref.Status == LookupStatus::NotFound ? LeafNotFound : LeafFound);
    }
  // The new class must have hit both regimes: inherited names answered
  // from re-tabulated full-span columns, out-of-closure names answered
  // NotFound from shared short columns' beyond-span path.
  EXPECT_GT(LeafFound, 0u);
  EXPECT_GT(LeafNotFound, 0u);
}

TEST(QueryFastLaneTest, StaleKeysReresolveTransparentlyAcrossCommits) {
  Workload W = makeModularForest(4, 2, 2, 3, 1);
  LookupService Svc(std::move(W.H));

  QueryKey Key = Svc.resolve("T0_0", "t0_m0");
  ASSERT_TRUE(Key.Context.isValid());
  EXPECT_EQ(Key.Epoch, 1u);
  QueryAnswer Before = Svc.query(Key);
  ASSERT_TRUE(Before.S.isOk());
  ASSERT_EQ(Before.Result.Status, LookupStatus::Unambiguous);

  // Three commits move the epoch; the key is only re-resolved when next
  // used, and exactly once per epoch change it observes.
  for (int I = 0; I != 3; ++I) {
    Transaction Txn = Svc.beginTxn();
    Txn.addMember("T1", "fresh" + std::to_string(I));
    ASSERT_TRUE(Svc.commit(Txn).isOk());
  }
  uint64_t ReresolvesBefore = Svc.stats().StaleKeyReresolves;
  QueryAnswer After = Svc.query(Key);
  EXPECT_EQ(Key.Epoch, Svc.currentEpoch()) << "key restamped in place";
  EXPECT_EQ(Svc.stats().StaleKeyReresolves, ReresolvesBefore + 1);
  EXPECT_EQ(renderLookupForComparison(*Svc.snapshot()->H, After.Result),
            renderLookupForComparison(*Svc.snapshot()->H, Before.Result));

  // A key whose name did not exist at resolve() time picks the name up
  // on re-resolution after the epoch that introduces it.
  QueryKey Future = Svc.resolve("T1", "late_arrival");
  EXPECT_FALSE(Future.Member.isValid());
  EXPECT_EQ(Svc.query(Future).Result.Status, LookupStatus::NotFound);
  Transaction Txn = Svc.beginTxn();
  Txn.addMember("T1", "late_arrival");
  ASSERT_TRUE(Svc.commit(Txn).isOk());
  QueryAnswer Found = Svc.query(Future);
  EXPECT_TRUE(Future.Member.isValid());
  EXPECT_EQ(Found.Result.Status, LookupStatus::Unambiguous);

  // Probes re-resolve stale keys the same way.
  Transaction Probe = Svc.beginTxn();
  Probe.addMember("T2", "probe_fresh");
  ASSERT_TRUE(Svc.commit(Probe).isOk());
  ProbeAnswer P = Svc.probe(Key);
  EXPECT_EQ(Key.Epoch, Svc.currentEpoch());
  EXPECT_EQ(P.Status, LookupStatus::Unambiguous);
  EXPECT_EQ(P.Epoch, Svc.currentEpoch());
}

TEST(QueryFastLaneTest, ForgedContextIdsDegradeToNotFoundNotUB) {
  // A context id that is valid-looking but beyond the epoch's class
  // count - a stale id from a removed-and-compacted epoch, or a forged
  // one - must answer UnknownClass / NotFound through every entry point
  // and bump the StaleContextRejects audit stat, never touch memory out
  // of range. The key's epoch matches the snapshot, so transparent
  // re-resolution cannot paper over the bad id.
  Workload W = makeModularForest(3, 2, 2, 3, 1);
  LookupService Svc(std::move(W.H));
  std::shared_ptr<const Snapshot> Snap = Svc.snapshot();

  QueryKey Forged;
  Forged.ClassName = "T0_0";
  Forged.MemberName = "t0_m0";
  Forged.Epoch = Snap->Epoch;
  Forged.Context = ClassId(Snap->H->numClasses() + 17);
  Forged.Member = Snap->H->findName("t0_m0");
  ASSERT_TRUE(Forged.Member.isValid());

  uint64_t RejectsBefore = Svc.stats().StaleContextRejects;
  QueryKey KeyCopy = Forged;
  QueryAnswer A = Svc.queryOn(*Snap, KeyCopy);
  EXPECT_EQ(A.S.code(), ErrorCode::UnknownClass);

  KeyCopy = Forged;
  ProbeAnswer P = Svc.probeOn(*Snap, KeyCopy);
  EXPECT_TRUE(P.UnknownContext);
  EXPECT_EQ(P.Status, LookupStatus::NotFound);

  KeyCopy = Forged;
  QueryAnswer BatchAnswer;
  Svc.queryMany(std::span<QueryKey>(&KeyCopy, 1),
                std::span<QueryAnswer>(&BatchAnswer, 1));
  EXPECT_EQ(BatchAnswer.S.code(), ErrorCode::UnknownClass);

  EXPECT_EQ(Svc.stats().StaleContextRejects, RejectsBefore + 3);

  // The table reads themselves are bounds-checked too: the same forged
  // id straight against the table degrades to NotFound instead of
  // indexing out of range.
  EXPECT_EQ(Snap->Table->find(*Snap->H, Forged.Context, Forged.Member).Status,
            LookupStatus::NotFound);
  EXPECT_EQ(Snap->Table->probe(Forged.Context, Forged.Member).Status,
            LookupStatus::NotFound);

  // An invalid (never-resolved) context is *unknown*, not stale: the
  // audit stat must separate "no such name" from "id out of range".
  QueryKey Unknown = Svc.resolve("no_such_class", "t0_m0");
  EXPECT_FALSE(Unknown.Context.isValid());
  uint64_t RejectsMid = Svc.stats().StaleContextRejects;
  EXPECT_EQ(Svc.queryOn(*Snap, Unknown).S.code(), ErrorCode::UnknownClass);
  EXPECT_EQ(Svc.stats().StaleContextRejects, RejectsMid);
}

TEST(QueryFastLaneTest, FastLaneStatsCountExactlyOncePerAnswer) {
  Workload W = makeModularForest(3, 2, 2, 3, 1);
  LookupService Svc(std::move(W.H));
  std::shared_ptr<const Snapshot> Snap = Svc.snapshot();

  QueryKey Key = Svc.resolve("T0_0", "t0_m0");
  ServiceStats S0 = Svc.stats();
  EXPECT_EQ(S0.Resolves, 1u);

  (void)Svc.queryOn(*Snap, "T0_0", "t0_m0");
  (void)Svc.queryOn(*Snap, Key);
  (void)Svc.probeOn(*Snap, Key);
  std::vector<QueryKey> Keys(4, Key);
  std::vector<QueryAnswer> Answers(4);
  Svc.queryMany(std::span<QueryKey>(Keys), std::span<QueryAnswer>(Answers));

  ServiceStats S1 = Svc.stats();
  // Queries: 1 string + 1 key + 4 batch keys; probes counted apart.
  EXPECT_EQ(S1.Queries - S0.Queries, 6u);
  EXPECT_EQ(S1.Probes - S0.Probes, 1u);
  // Every answer - queries and probes alike - lands on exactly one rung.
  uint64_t Rungs0 = S0.RungAnswers[0] + S0.RungAnswers[1] + S0.RungAnswers[2];
  uint64_t Rungs1 = S1.RungAnswers[0] + S1.RungAnswers[1] + S1.RungAnswers[2];
  EXPECT_EQ(Rungs1 - Rungs0, 7u);
}
