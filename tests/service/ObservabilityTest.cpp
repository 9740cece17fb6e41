//===- ObservabilityTest.cpp -----------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer's contracts: the metric catalog covers the
/// stats surface and renders parseable text/JSON expositions, the
/// accounting invariant Queries + Probes == sum(RungAnswers) holds
/// across a 200-hierarchy query campaign, sampled latency histograms
/// fill and agree with the operation counts, the trace ring keeps (and
/// bounds) recent events, and the anomaly log rate-limits everything
/// except quarantines.
///
//===----------------------------------------------------------------------===//

#include "memlook/service/Observability.h"

#include "memlook/chg/HierarchyBuilder.h"
#include "memlook/service/LookupService.h"
#include "memlook/workload/Generators.h"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>
#include <vector>

using namespace memlook;
using namespace memlook::service;

namespace {

Hierarchy diamond() {
  HierarchyBuilder B;
  B.addClass("Base").withMember("shared").withMember("tag");
  B.addClass("Left").withVirtualBase("Base").withMember("left_only");
  B.addClass("Right").withVirtualBase("Base").withMember("right_only");
  B.addClass("Join").withBase("Left").withBase("Right");
  return std::move(B).build();
}

/// Every operation sampled, tiny slow-query threshold disabled.
ServiceOptions sampledOptions() {
  ServiceOptions O;
  O.Observability.SamplePeriod = 1;
  O.Observability.SlowQueryNanos = 0;
  return O;
}

uint64_t rungSum(const ServiceStats &S) {
  return S.RungAnswers[0] + S.RungAnswers[1] + S.RungAnswers[2];
}

TEST(ObservabilityTest, CatalogIsSelfConsistent) {
  std::span<const MetricDesc> Catalog = serviceMetricCatalog();
  ASSERT_GE(Catalog.size(), 38u);

  // Prometheus names unique; every entry carries a field, a help line,
  // and a getter.
  std::set<std::string> PromNames;
  std::set<std::string> StatFields;
  for (const MetricDesc &M : Catalog) {
    EXPECT_TRUE(PromNames.insert(M.PromName).second) << M.PromName;
    ASSERT_NE(M.StatField, nullptr);
    StatFields.insert(M.StatField);
    ASSERT_NE(M.Help, nullptr);
    EXPECT_NE(std::string(M.Help), "");
    ASSERT_NE(M.Get, nullptr);
  }

  // Spot-check the corners of the surface: the oldest counter, the
  // newest, a gauge, and the array-valued rung series.
  EXPECT_TRUE(StatFields.count("Commits"));
  EXPECT_TRUE(StatFields.count("AnomaliesSuppressed"));
  EXPECT_TRUE(StatFields.count("SnapshotLimboDepth"));
  EXPECT_TRUE(StatFields.count("RungAnswers"));
}

TEST(ObservabilityTest, CatalogGettersReadTheFieldsTheyName) {
  LookupService Svc(diamond(), sampledOptions());
  (void)Svc.query("Join", "left_only");
  Transaction Txn = Svc.beginTxn();
  Txn.addMember("Base", "fresh");
  ASSERT_TRUE(Svc.commit(Txn).isOk());

  ServiceStats S = Svc.stats();
  for (const MetricDesc &M : serviceMetricCatalog()) {
    std::string Field(M.StatField);
    if (Field == "Commits")
      EXPECT_EQ(M.Get(S), S.Commits);
    else if (Field == "Queries")
      EXPECT_EQ(M.Get(S), S.Queries);
    else if (Field == "LatencySamples")
      EXPECT_EQ(M.Get(S), S.LatencySamples);
  }
  // The three rung entries read distinct array elements in order.
  std::vector<uint64_t> RungValues;
  for (const MetricDesc &M : serviceMetricCatalog())
    if (std::string(M.StatField) == "RungAnswers")
      RungValues.push_back(M.Get(S));
  ASSERT_EQ(RungValues.size(), 3u);
  EXPECT_EQ(RungValues[0], S.RungAnswers[0]);
  EXPECT_EQ(RungValues[1], S.RungAnswers[1]);
  EXPECT_EQ(RungValues[2], S.RungAnswers[2]);
}

TEST(ObservabilityTest, MetricsTextExposesEveryCatalogEntry) {
  LookupService Svc(diamond(), sampledOptions());
  (void)Svc.query("Join", "shared");
  QueryKey K = Svc.resolve("Join", "tag");
  (void)Svc.probe(K);

  std::string Text = Svc.metricsText();
  for (const MetricDesc &M : serviceMetricCatalog()) {
    EXPECT_NE(Text.find(std::string(M.PromName) + " "), std::string::npos)
        << M.PromName;
    std::string Base(M.PromName);
    if (size_t Brace = Base.find('{'); Brace != std::string::npos)
      Base.resize(Brace);
    EXPECT_NE(Text.find("# HELP " + Base + " "), std::string::npos) << Base;
    EXPECT_NE(Text.find("# TYPE " + Base + " "), std::string::npos) << Base;
  }
  EXPECT_NE(Text.find("memlook_epoch 1\n"), std::string::npos);
  // Sampled operations produced latency series with the histogram
  // triplet (= bucket ladder, sum, count).
  EXPECT_NE(Text.find("memlook_query_latency_nanos_bucket{path=\"string\","),
            std::string::npos);
  EXPECT_NE(Text.find("le=\"+Inf\"}"), std::string::npos);
  EXPECT_NE(Text.find("memlook_query_latency_nanos_sum"), std::string::npos);
  EXPECT_NE(Text.find("memlook_query_latency_nanos_count"), std::string::npos);

  // HELP/TYPE coalescing: one header per metric name even with three
  // labeled rung series.
  size_t First = Text.find("# TYPE memlook_rung_answers_total");
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(Text.find("# TYPE memlook_rung_answers_total", First + 1),
            std::string::npos);
}

TEST(ObservabilityTest, MetricsJsonIsStructurallySound) {
  LookupService Svc(diamond(), sampledOptions());
  (void)Svc.query("Join", "shared");
  Transaction Txn = Svc.beginTxn();
  Txn.addMember("Base", "fresh");
  ASSERT_TRUE(Svc.commit(Txn).isOk());

  std::string Json = Svc.metricsJson();
  // Braces and brackets balance (no string in the output may contain
  // them: field names and labels are all identifiers).
  int Depth = 0;
  for (char C : Json) {
    if (C == '{' || C == '[')
      ++Depth;
    if (C == '}' || C == ']')
      --Depth;
    ASSERT_GE(Depth, 0);
  }
  EXPECT_EQ(Depth, 0);

  EXPECT_NE(Json.find("\"epoch\": 2"), std::string::npos);
  EXPECT_NE(Json.find("\"stats\": {"), std::string::npos);
  EXPECT_NE(Json.find("\"RungAnswers\": ["), std::string::npos);
  EXPECT_NE(Json.find("\"histograms\": ["), std::string::npos);
  EXPECT_NE(Json.find("\"p99\": "), std::string::npos);
  EXPECT_NE(Json.find("\"trace\": {\"recorded\": "), std::string::npos);
  EXPECT_NE(Json.find("\"anomalies\": {\"logged\": "), std::string::npos);
  // Commit latency appears: the commit above was always-traced.
  EXPECT_NE(Json.find("memlook_commit_latency_nanos"), std::string::npos);
  // Every scalar catalog field is a key exactly once.
  EXPECT_NE(Json.find("\"AnomaliesSuppressed\": "), std::string::npos);
}

TEST(ObservabilityTest, AccountingInvariantAcrossCampaign) {
  // 200 seeded random hierarchies, each queried through all four entry
  // points; the ladder books exactly one rung answer per query or
  // probe, so Queries + Probes == sum(RungAnswers) at every quiescent
  // point - with sampling on (1-in-1) and off (never), since
  // observability must not perturb the accounting.
  RandomHierarchyParams Params;
  Params.NumClasses = 8;
  Params.MemberPool = 4;
  for (uint64_t Seed = 0; Seed != 200; ++Seed) {
    ServiceOptions O;
    O.Observability.SamplePeriod = (Seed % 2) ? 1 : 0;
    Workload W = makeRandomHierarchy(Params, 0x0b5e + Seed);
    LookupService Svc(std::move(W.H), O);
    std::shared_ptr<const Snapshot> Snap = Svc.snapshot();
    const Hierarchy &H = *Snap->H;

    std::vector<QueryKey> Keys;
    for (uint32_t C = 0; C != H.numClasses(); ++C)
      for (Symbol M : H.allMemberNames()) {
        std::string Class(H.className(ClassId(C)));
        std::string Member(H.spelling(M));
        (void)Svc.queryOn(*Snap, Class, Member);
        QueryKey K = Svc.resolve(Class, Member);
        (void)Svc.queryOn(*Snap, K);
        (void)Svc.probeOn(*Snap, K);
        Keys.push_back(std::move(K));
      }
    std::vector<QueryAnswer> Answers(Keys.size());
    Svc.queryMany(std::span<QueryKey>(Keys), std::span<QueryAnswer>(Answers));

    ServiceStats S = Svc.stats();
    ASSERT_EQ(S.Queries + S.Probes, rungSum(S)) << "seed " << Seed;
    ASSERT_EQ(S.Queries, 3 * Keys.size()) << "seed " << Seed;
    ASSERT_EQ(S.Probes, Keys.size()) << "seed " << Seed;
  }
}

TEST(ObservabilityTest, SampledLatencyHistogramsMatchOperationCounts) {
  LookupService Svc(diamond(), sampledOptions());
  for (int I = 0; I != 40; ++I)
    (void)Svc.query("Join", "shared");
  QueryKey K = Svc.resolve("Join", "tag");
  for (int I = 0; I != 30; ++I)
    (void)Svc.query(K);
  for (int I = 0; I != 20; ++I)
    (void)Svc.probe(K);
  std::vector<QueryKey> Keys(5, Svc.resolve("Left", "left_only"));
  std::vector<QueryAnswer> Answers(Keys.size());
  for (int I = 0; I != 10; ++I)
    Svc.queryMany(std::span<QueryKey>(Keys), std::span<QueryAnswer>(Answers));

  EXPECT_EQ(Svc.latencySnapshot(QueryPath::String).count(), 40u);
  // Each batch key records as a key query: 30 singles + 10 x 5 keys.
  EXPECT_EQ(Svc.latencySnapshot(QueryPath::Key).count(), 80u);
  EXPECT_EQ(Svc.latencySnapshot(QueryPath::Probe).count(), 20u);
  // All of it landed on the tabulated rung of a warm epoch.
  EXPECT_EQ(
      Svc.latencySnapshot(QueryPath::String, AnswerRung::Tabulated).count(),
      40u);
  EXPECT_EQ(
      Svc.latencySnapshot(QueryPath::String, AnswerRung::Figure8PerQuery)
          .count(),
      0u);
  EXPECT_EQ(Svc.stats().LatencySamples, 140u);

  LatencyHistogram H = Svc.latencySnapshot(QueryPath::String);
  EXPECT_GT(H.sum(), 0u);
  EXPECT_GT(H.percentile(50), 0.0);
  EXPECT_LE(H.percentile(50), double(H.maxSeen()));
}

TEST(ObservabilityTest, SamplePeriodZeroDisablesClockingButNotCounting) {
  ServiceOptions O;
  O.Observability.SamplePeriod = 0;
  LookupService Svc(diamond(), O);
  for (int I = 0; I != 100; ++I)
    (void)Svc.query("Join", "shared");

  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.LatencySamples, 0u);
  EXPECT_EQ(S.Queries, 100u);
  EXPECT_EQ(S.Queries + S.Probes, rungSum(S));
  EXPECT_EQ(Svc.drainTrace().size(), 0u);
}

TEST(ObservabilityTest, TraceRingRecordsQueriesAndWriterEvents) {
  LookupService Svc(diamond(), sampledOptions());
  (void)Svc.query("Join", "shared");
  QueryKey K = Svc.resolve("Join", "tag");
  (void)Svc.probe(K);
  (void)Svc.query(K); // key path traces as a Query too
  Transaction Stale = Svc.beginTxn(); // loses the epoch race below
  Transaction Txn = Svc.beginTxn();
  Txn.addMember("Base", "fresh");
  ASSERT_TRUE(Svc.commit(Txn).isOk());
  Stale.addMember("Base", "stale");
  EXPECT_FALSE(Svc.commit(Stale).isOk());

  std::vector<TraceEvent> Events = Svc.drainTrace();
  ASSERT_GE(Events.size(), 4u);
  uint64_t ByKind[NumTraceKinds] = {};
  for (size_t I = 0; I != Events.size(); ++I) {
    ++ByKind[size_t(Events[I].Kind)];
    if (I)
      EXPECT_LE(Events[I - 1].WhenNanos, Events[I].WhenNanos);
    EXPECT_NE(Events[I].toString(), "");
  }
  EXPECT_EQ(ByKind[size_t(TraceKind::Query)], 2u);
  EXPECT_EQ(ByKind[size_t(TraceKind::Probe)], 1u);
  EXPECT_EQ(ByKind[size_t(TraceKind::Commit)], 1u);
  EXPECT_EQ(ByKind[size_t(TraceKind::CommitReject)], 1u);

  for (const TraceEvent &E : Events) {
    if (E.Kind == TraceKind::Commit) {
      EXPECT_EQ(E.Epoch, 2u);
      EXPECT_EQ(E.Flags, 0u);
    }
    if (E.Kind == TraceKind::CommitReject)
      EXPECT_TRUE(E.Flags & TfRejected);
  }

  // Drain is non-destructive.
  EXPECT_EQ(Svc.drainTrace().size(), Events.size());
  EXPECT_EQ(Svc.stats().TraceEventsRecorded, Events.size());
}

TEST(ObservabilityTest, TraceRingBoundsRetentionAndCountsOverwrites) {
  ServiceOptions O = sampledOptions();
  O.Observability.TraceShardCapacity = 8;
  LookupService Svc(diamond(), O);
  for (int I = 0; I != 500; ++I)
    (void)Svc.query("Join", "shared");

  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.TraceEventsRecorded, 500u);
  EXPECT_GT(S.TraceEventsOverwritten, 0u);
  std::vector<TraceEvent> Events = Svc.drainTrace();
  // Single-threaded: exactly one shard holds exactly its capacity.
  EXPECT_EQ(Events.size(), 8u);
  // The retained records are the newest ones.
  EXPECT_EQ(S.TraceEventsRecorded - S.TraceEventsOverwritten, Events.size());
}

TEST(ObservabilityTest, AnomalyLogRateLimitsAndForceBypasses) {
  AnomalyLog Log(/*Capacity=*/4, /*RatePerSecond=*/2);
  int Accepted = 0;
  for (int I = 0; I != 10; ++I)
    Accepted += Log.note(AnomalyKind::RungDrop, 1, 1, 0,
                         "drop " + std::to_string(I));
  // The bucket starts with one second's budget, the first dry note
  // claims the lazily-initialized current second's refill, and a real
  // second boundary mid-loop can add one more refill - never the
  // whole burst.
  EXPECT_GE(Accepted, 2);
  EXPECT_LE(Accepted, 6);
  EXPECT_EQ(Log.loggedTotal() + Log.suppressedTotal(), 10u);

  // Force ignores the dry bucket...
  for (int I = 0; I != 6; ++I)
    EXPECT_TRUE(Log.note(AnomalyKind::Quarantine, 2, 0, 0,
                         "forced " + std::to_string(I), /*Force=*/true));
  // ...and the ring keeps only the newest Capacity records.
  std::vector<AnomalyRecord> Recent = Log.recent();
  ASSERT_EQ(Recent.size(), 4u);
  for (const AnomalyRecord &R : Recent) {
    EXPECT_EQ(R.Kind, AnomalyKind::Quarantine);
    EXPECT_NE(R.toString(), "");
  }
  EXPECT_EQ(Recent.back().Detail, "forced 5");
}

TEST(ObservabilityTest, StaleKeyCrossingACommitLogsAnAnomaly) {
  LookupService Svc(diamond(), sampledOptions());
  QueryKey K = Svc.resolve("Join", "shared");
  Transaction Txn = Svc.beginTxn();
  Txn.addMember("Base", "fresh");
  ASSERT_TRUE(Svc.commit(Txn).isOk());

  (void)Svc.query(K); // stale: re-resolves in place
  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.StaleKeyReresolves, 1u);
  ASSERT_GE(S.AnomaliesLogged, 1u);
  bool Found = false;
  for (const AnomalyRecord &R : Svc.recentAnomalies())
    if (R.Kind == AnomalyKind::StaleKeyReresolve && R.Epoch == 2)
      Found = true;
  EXPECT_TRUE(Found);
  EXPECT_EQ(S.Queries + S.Probes, rungSum(S));
}

TEST(ObservabilityTest, QuarantineIsTracedAnomalizedAndForced) {
  LookupService Svc(diamond(), sampledOptions());
  ASSERT_TRUE(Svc.corruptTableEntryForTesting("Join", "shared"));
  AuditReport Report = Svc.auditNow();
  ASSERT_TRUE(Report.QuarantinedTable);

  ServiceStats S = Svc.stats();
  ASSERT_GE(S.AnomaliesLogged, 1u);
  bool FoundAnomaly = false;
  for (const AnomalyRecord &R : Svc.recentAnomalies())
    if (R.Kind == AnomalyKind::Quarantine) {
      FoundAnomaly = true;
      EXPECT_NE(R.Detail.find("table:"), std::string::npos);
    }
  EXPECT_TRUE(FoundAnomaly);

  bool SawQuarantine = false, SawAudit = false;
  for (const TraceEvent &E : Svc.drainTrace()) {
    if (E.Kind == TraceKind::Quarantine) {
      SawQuarantine = true;
      EXPECT_TRUE(E.Flags & TfTableQuarantined);
    }
    SawAudit |= E.Kind == TraceKind::Audit;
  }
  EXPECT_TRUE(SawQuarantine);
  EXPECT_TRUE(SawAudit);
}

TEST(ObservabilityTest, RungDropAnomalyOnColdEpoch) {
  // A service built with warming disabled answers off the per-query
  // rung: every query is a rung drop.
  ServiceOptions O = sampledOptions();
  O.WarmOnCommit = false;
  O.Observability.AnomalyRatePerSecond = 1000;
  LookupService Svc(diamond(), O);
  (void)Svc.query("Join", "shared");

  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.RungAnswers[1] + S.RungAnswers[2], 1u);
  ASSERT_GE(S.AnomaliesLogged, 1u);
  bool Found = false;
  for (const AnomalyRecord &R : Svc.recentAnomalies())
    if (R.Kind == AnomalyKind::RungDrop)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(ObservabilityTest, SlowQueryAnomalyFiresOnThreshold) {
  ServiceOptions O;
  O.Observability.SamplePeriod = 1;
  O.Observability.SlowQueryNanos = 1; // everything is "slow"
  LookupService Svc(diamond(), O);
  (void)Svc.query("Join", "shared");

  bool Found = false;
  for (const AnomalyRecord &R : Svc.recentAnomalies())
    if (R.Kind == AnomalyKind::SlowQuery) {
      Found = true;
      EXPECT_GT(R.DurationNanos, 0u);
    }
  EXPECT_TRUE(Found);
}

TEST(ObservabilityTest, RestoreEmitsATraceEvent) {
  std::string Dir = ::testing::TempDir() + "memlook_obs_restore";
  std::string Path = Dir + ".snapshot";
  {
    LookupService Svc(diamond());
    ASSERT_TRUE(Svc.saveSnapshot(Path).isOk());
  }
  ServiceOptions O = sampledOptions();
  RestoreReport Report;
  auto Restored = LookupService::restore(Path, diamond(), O, &Report);
  ASSERT_TRUE(Restored);
  ASSERT_EQ(Report.Rung, RestoreRung::Snapshot);

  bool Found = false;
  for (const TraceEvent &E : (*Restored)->drainTrace())
    if (E.Kind == TraceKind::Restore) {
      Found = true;
      EXPECT_EQ(E.Rung, uint8_t(RestoreRung::Snapshot));
      EXPECT_NE(E.toString().find("snapshot"), std::string::npos);
    }
  EXPECT_TRUE(Found);
  std::remove(Path.c_str());
}

} // namespace
