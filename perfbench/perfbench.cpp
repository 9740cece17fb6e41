//===- perfbench/perfbench.cpp - End-to-end service benchmark ---------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
//
// One run = one process, one workload, one seed. The run drives the
// public LookupService API the way a user would: set-up, a writer-only
// warm-up (which also fixes peak memory before any reader exists), then
// sixteen rounds of a timed slice (closed-loop readers plus, on the edit
// workloads, an open-loop writer) followed by snapshot save, restore,
// set-up and audit. Every sampled answer is checked afterwards against
// the Rossie-Friedman subobject engine on the hierarchy of the epoch
// that answered it.
//
// With --trace 1 the same run also prices each layer: every commit is
// first replayed stage by stage (applyEditScript, computeImpactSet,
// LookupTable::rewarm, WriteAheadLog::append) on the base snapshot, the
// read entry points are timed one by one over the same key stream, and
// restore/audit/build are split into their module calls. Spans are kept
// in memory and written out when the run ends.
//
// The last line of standard output is a JSON object; run.py forwards it.
// See README.md for why the workloads and metrics are what they are.
//
//===----------------------------------------------------------------------===//

#include "memlook/core/DifferentialCheck.h"
#include "memlook/core/SubobjectLookupEngine.h"
#include "memlook/service/LookupService.h"
#include "memlook/service/Snapshot.h"
#include "memlook/service/SnapshotFile.h"
#include "memlook/service/Transaction.h"
#include "memlook/service/WriteAheadLog.h"
#include "memlook/workload/Generators.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace memlook;
using namespace memlook::service;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double msSince(uint64_t T0) { return double(nowNs() - T0) / 1e6; }

/// CPU time of the calling thread. On a shared VM host the vCPU is
/// descheduled now and then (steal time); this clock does not run then.
uint64_t threadCpuNs() {
  timespec T;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return uint64_t(T.tv_sec) * 1'000'000'000ull + uint64_t(T.tv_nsec);
}

double cpuMsSince(uint64_t C0) { return double(threadCpuNs() - C0) / 1e6; }

/// splitmix64: the benchmark's own generator, so a change to the
/// library's Rng cannot change the inputs.
struct SplitMix {
  uint64_t State;
  explicit SplitMix(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t Bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(next()) * Bound) >> 64);
  }
};

template <typename T> double sortedPercentile(const std::vector<T> &Xs,
                                              double P) {
  if (Xs.empty())
    return 0;
  double Rank = P / 100.0 * double(Xs.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Rank));
  size_t Hi = std::min(Lo + 1, Xs.size() - 1);
  return double(Xs[Lo]) + (Rank - double(Lo)) * double(Xs[Hi] - Xs[Lo]);
}

template <typename T> double percentile(std::vector<T> Xs, double P) {
  std::sort(Xs.begin(), Xs.end());
  return sortedPercentile(Xs, P);
}

double median(std::vector<double> Xs) { return percentile(std::move(Xs), 50); }

/// Mean without the smallest and the largest value (with 4 or more).
/// Slow stretches of the host make one-shot timings two-moded within a
/// run; a median jumps between the modes as their shares cross one half,
/// where a mean moves in proportion. Trimming drops a single stall.
double trimmedMean(std::vector<double> Xs) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  size_t Lo = Xs.size() >= 4 ? 1 : 0, Hi = Xs.size() - Lo;
  double Sum = 0;
  for (size_t I = Lo; I != Hi; ++I)
    Sum += Xs[I];
  return Sum / double(Hi - Lo);
}

[[noreturn]] void die(const std::string &Msg) {
  std::cerr << "perfbench: " << Msg << "\n";
  std::exit(2);
}

uint32_t usableCores() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// VmHWM (peak resident set) of this process, in MB.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return double(std::stoull(Line.substr(6))) / 1024.0;
  die("no VmHWM in /proc/self/status");
}

uint32_t threadCount() {
  uint32_t N = 0;
  std::error_code Ec;
  for (auto It = std::filesystem::directory_iterator("/proc/self/task", Ec);
       !Ec && It != std::filesystem::directory_iterator(); It.increment(Ec))
    ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum class Kind { ReadForest, EditDense };

struct WorkloadSpec {
  Kind K;
  const char *Name;
  /// WAL with fdatasync on every append.
  bool Durable;
  /// The writer runs beside the readers in the timed slices.
  bool WriterWithReaders;
  /// Keys come from a 256-key hot set (else uniform over the table).
  bool HotSet;
  /// Open-loop commit period.
  uint32_t CommitPeriodMs;
  /// Commits of the reader-free warm-up that precedes the peak-memory
  /// reading.
  uint32_t WarmupCommits;
  /// Timed reader-free commits per round (the commit rows of a workload
  /// whose readers run without a writer).
  uint32_t ReaderFreeCommits;
  /// auditNow() calls per run, spread over the rounds.
  uint32_t Audits;
};

const WorkloadSpec Specs[] = {
    {Kind::ReadForest, "read_forest", false, false, true, 50, 4, 7, 8},
    {Kind::EditDense, "edit_dense", true, true, false, 200, 8, 0, 6},
};

/// A run is split into rounds: a timed slice, then the reader-free
/// measurements (set-up, save, restore, audit). Machine speed drifts on
/// a scale of seconds, so every metric is sampled across the whole run
/// rather than in one block.
constexpr uint32_t Rounds = 16;
/// Durable workloads commit this many more transactions after each
/// snapshot save, so restore must replay a WAL tail.
constexpr uint32_t WalTail = 2;
/// Readers start each slice cold: they re-resolve every key against the
/// new epoch while the measurements between slices have flushed the
/// caches. Commits due in that window were 1.5-2x slower and formed a
/// knee right at the p90, so a slice's first commit is due this long
/// after its readers start (a fifth of the slice in runs shorter than
/// 10 s).
constexpr double WriterDelayMs = 250;

/// The hierarchy a workload serves: a fixed shape per workload. The
/// dense DAG is drawn from one fixed generator seed (bench_tabulation's
/// random_large), not from the run's seed: across generator seeds its
/// audit cost varies 2.3x and its snapshot size 30%, which would swamp
/// every run-to-run comparison. The run's seed picks keys and edits.
Workload makeWorkload(Kind K) {
  switch (K) {
  case Kind::ReadForest:
    return makeModularForest(48, 3, 4, 6, 2);
  case Kind::EditDense: {
    RandomHierarchyParams P;
    P.NumClasses = 1200;
    P.MemberPool = 220;
    P.DeclareChance = 0.04;
    P.AvgBases = 1.8;
    return makeRandomHierarchy(P, 0xb0b5);
  }
  }
  die("unknown workload");
}

/// Commit k adds a fresh member to one class and removes the member
/// commit k-1 added, so every timed commit has the same op kinds and the
/// hierarchy keeps its size. (Mixing add-only and remove-only commits
/// gives two latency modes whose gap a percentile can fall into.) The
/// first commit only adds; it is the untimed priming commit.
struct EditScript {
  std::vector<std::string> Classes; ///< class edited by commit k
  std::vector<std::string> Members; ///< fresh member added by commit k

  std::vector<Transaction::Op> ops(size_t K) const {
    std::vector<Transaction::Op> Ops;
    Ops.push_back(Transaction::Op{Transaction::OpKind::AddMember, Classes[K],
                                  "", Members[K], InheritanceKind::NonVirtual,
                                  AccessSpec::Public, false, false});
    if (K != 0)
      Ops.push_back(Transaction::Op{Transaction::OpKind::RemoveMember,
                                    Classes[K - 1], "", Members[K - 1],
                                    InheritanceKind::NonVirtual,
                                    AccessSpec::Public, false, false});
    return Ops;
  }
};

EditScript makeEditScript(const Hierarchy &H, uint64_t Seed, size_t Count) {
  EditScript S;
  SplitMix R(Seed ^ 0xed17ed17ULL);
  for (size_t K = 0; K != Count; ++K) {
    // A class drawn uniformly: on the forests that is one tree, so the
    // edit is tree-local; on the dense DAG it has no locality.
    ClassId C(static_cast<uint32_t>(R.below(H.numClasses())));
    S.Classes.emplace_back(H.className(C));
    S.Members.push_back("pb_edit_" + std::to_string(K));
  }
  return S;
}

/// One (class, member) pair by name; readers hold resolved QueryKeys
/// for these.
struct NamePair {
  std::string Class;
  std::string Member;
};

enum class ReadOp : uint8_t { Probe, QueryKey, QueryString };

//===----------------------------------------------------------------------===//
// Spans (traced run only)
//===----------------------------------------------------------------------===//

struct Span {
  const char *Name;
  uint64_t Start;
  uint64_t End;
  uint64_t Parent; ///< span id of the cause, 0 = root
  uint64_t Op;     ///< operation id shared by one request's spans
  uint64_t Id;
};

class SpanLog {
public:
  uint64_t add(const char *Name, uint64_t Start, uint64_t End,
               uint64_t Parent, uint64_t Op) {
    uint64_t Id = NextId++;
    Spans.push_back(Span{Name, Start, End, Parent, Op, Id});
    return Id;
  }
  /// Sets the interval of a span added before its end was known.
  void close(uint64_t Id, uint64_t Start, uint64_t End) {
    for (auto It = Spans.rbegin(); It != Spans.rend(); ++It)
      if (It->Id == Id) {
        It->Start = Start;
        It->End = End;
        return;
      }
  }
  void append(const SpanLog &Other) {
    Spans.insert(Spans.end(), Other.Spans.begin(), Other.Spans.end());
  }
  void reserve(size_t N) { Spans.reserve(N); }
  void setIdBase(uint64_t Base) { NextId = Base; }
  void write(const std::string &Path) const {
    std::ofstream Out(Path);
    for (const Span &S : Spans)
      Out << "{\"name\":\"" << S.Name << "\",\"id\":" << S.Id
          << ",\"parent\":" << S.Parent << ",\"op\":" << S.Op
          << ",\"start_ns\":" << S.Start << ",\"end_ns\":" << S.End << "}\n";
  }
  size_t size() const { return Spans.size(); }

private:
  std::vector<Span> Spans;
  uint64_t NextId = 1;
};

//===----------------------------------------------------------------------===//
// Readers
//===----------------------------------------------------------------------===//

/// One sampled answer, checked after the run against the reference
/// engine on the hierarchy of Epoch.
struct Sample {
  uint64_t Epoch;
  uint32_t Key; ///< index into the run's NamePair universe
  LookupStatus Status;
  bool UnknownContext;
  bool SharedStatic;
  ClassId DefiningClass;
};

constexpr uint64_t LatencyStride = 64;  ///< every 64th read is timed
constexpr uint64_t SpanStride = 1024;   ///< every 1024th read is a span
constexpr uint64_t SampleStride = 1u << 16;
constexpr uint64_t TraceBlockNs = 250'000'000; ///< traced/untraced blocks

/// One reader's measured reads in one slice: those from the slice's
/// measure start to its end.
struct MeasuredSlice {
  uint64_t Reads = 0;
  uint64_t CpuNs = 0;
  size_t LatBegin = 0, LatEnd = 0; ///< its sampled latencies in LatNs
};

struct ReaderResult {
  uint64_t Reads = 0;
  uint64_t CpuNs = 0;   ///< the reader thread's CPU time
  uint64_t Flagged = 0; ///< approximate / deadline / quarantine / error
  std::vector<float> LatNs; ///< sampled read latencies
  std::vector<Sample> Samples;
  std::vector<MeasuredSlice> Slices;
  // Traced run: reads and busy time split by block kind.
  uint64_t ReadsTraced = 0, ReadsUntraced = 0;
  uint64_t NsTraced = 0, NsUntraced = 0;
  SpanLog Spans;
};

struct ReaderPlan {
  std::vector<QueryKey> Keys;
  std::vector<uint32_t> KeyIds; ///< NamePair index of Keys[i]
  std::vector<std::pair<ReadOp, uint32_t>> Stream; ///< op, index into Keys
};

ReaderPlan makeReaderPlan(const LookupService &Svc,
                          const std::vector<NamePair> &Universe,
                          uint32_t FirstKey, uint32_t NumKeys, uint64_t Seed) {
  ReaderPlan P;
  for (uint32_t I = 0; I != NumKeys; ++I) {
    const NamePair &N = Universe[FirstKey + I];
    P.Keys.push_back(Svc.resolve(N.Class, N.Member));
    P.KeyIds.push_back(FirstKey + I);
  }
  // 70% probe(QueryKey&), 20% query(QueryKey&), 10% query(string, string).
  SplitMix R(Seed);
  P.Stream.resize(1u << 16);
  for (auto &[Op, Key] : P.Stream) {
    uint64_t Roll = R.below(10);
    Op = Roll < 7 ? ReadOp::Probe : Roll < 9 ? ReadOp::QueryKey
                                             : ReadOp::QueryString;
    Key = static_cast<uint32_t>(R.below(NumKeys));
  }
  return P;
}

void runReader(const LookupService &Svc, ReaderPlan &Plan,
               const std::vector<NamePair> &Universe,
               const std::atomic<bool> &Stop, bool Traced, uint64_t PhaseStart,
               uint64_t MeasureStart, uint64_t OpIdBase, ReaderResult &Out) {
  Out.LatNs.reserve(1u << 23); // 60 s of read_forest; later samples drop
  Out.Samples.reserve(1u << 14);
  if (Traced && Out.Spans.size() == 0) {
    Out.Spans.reserve(1u << 17);
    Out.Spans.setIdBase(OpIdBase + 1);
  }
  const size_t Mask = Plan.Stream.size() - 1;
  const uint64_t Cpu0 = threadCpuNs();
  uint64_t N = 0, LastEpoch = 0;
  uint64_t BlockStart = nowNs();
  bool BlockTraced = Traced && ((BlockStart - PhaseStart) / TraceBlockNs) % 2;
  uint64_t BlockReads = 0;
  auto CloseBlock = [&](uint64_t End) {
    (BlockTraced ? Out.ReadsTraced : Out.ReadsUntraced) += BlockReads;
    (BlockTraced ? Out.NsTraced : Out.NsUntraced) += End - BlockStart;
    BlockReads = 0;
    BlockStart = End;
    BlockTraced = Traced && ((End - PhaseStart) / TraceBlockNs) % 2;
  };
  bool Measuring = false;
  uint64_t MeasureReads = 0, MeasureCpu = 0;
  size_t MeasureLat = 0;
  while (!Stop.load(std::memory_order_relaxed)) {
    for (int B = 0; B != 256; ++B, ++N) {
      const auto &[Op, KeyIdx] = Plan.Stream[N & Mask];
      QueryKey &Key = Plan.Keys[KeyIdx];
      const bool Timed = (N % LatencyStride) == 0;
      const uint64_t T0 = Timed ? nowNs() : 0;
      Sample S{};
      bool Bad = false;
      switch (Op) {
      case ReadOp::Probe: {
        ProbeAnswer A = Svc.probe(Key);
        Bad = A.Approximate || A.DeadlineExpired || A.TableQuarantined;
        S = Sample{A.Epoch, 0, A.Status, A.UnknownContext, A.SharedStatic,
                   A.DefiningClass};
        break;
      }
      case ReadOp::QueryKey:
      case ReadOp::QueryString: {
        const NamePair &Names = Universe[Plan.KeyIds[KeyIdx]];
        QueryAnswer A = Op == ReadOp::QueryKey
                            ? Svc.query(Key)
                            : Svc.query(Names.Class, Names.Member);
        bool Unknown = A.S.code() == ErrorCode::UnknownClass;
        Bad = A.Approximate || A.DeadlineExpired || A.TableQuarantined ||
              (!A.S.isOk() && !Unknown);
        S = Sample{A.Epoch, 0, A.Result.Status, Unknown,
                   A.Result.SharedStatic, A.Result.DefiningClass};
        break;
      }
      }
      if (Timed) {
        uint64_t T1 = nowNs();
        if (Out.LatNs.size() < Out.LatNs.capacity())
          Out.LatNs.push_back(float(T1 - T0));
        if (BlockTraced && (N % SpanStride) == 0)
          Out.Spans.add(Op == ReadOp::Probe      ? "read.probe"
                        : Op == ReadOp::QueryKey ? "read.query_key"
                                                 : "read.query_string",
                        T0, T1, 0, OpIdBase + N);
      }
      Out.Flagged += Bad;
      // Every epoch this reader sees gets at least one sample.
      if (S.Epoch != LastEpoch || (N % SampleStride) == 0) {
        LastEpoch = S.Epoch;
        S.Key = Plan.KeyIds[KeyIdx];
        if (Out.Samples.size() < Out.Samples.capacity())
          Out.Samples.push_back(S);
      }
    }
    BlockReads += 256;
    const uint64_t T = nowNs();
    if (Traced &&
        (T - PhaseStart) / TraceBlockNs != (BlockStart - PhaseStart) / TraceBlockNs)
      CloseBlock(T);
    if (!Measuring && T >= MeasureStart) {
      Measuring = true;
      MeasureReads = N;
      MeasureCpu = threadCpuNs();
      MeasureLat = Out.LatNs.size();
    }
  }
  if (Measuring)
    Out.Slices.push_back({N - MeasureReads, threadCpuNs() - MeasureCpu,
                          MeasureLat, Out.LatNs.size()});
  CloseBlock(nowNs());
  Out.Reads += N;
  Out.CpuNs += threadCpuNs() - Cpu0;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

struct StageTimes {
  double ApplyMs = 0, ImpactMs = 0, RewarmMs = 0, WalMs = 0, CommitMs = 0;
  uint32_t Retabulated = 0, Shared = 0;
};

struct WriterResult {
  std::vector<double> LatencyMs; ///< from due time to commit return
  std::vector<double> LagMs;     ///< start minus due time
  std::vector<StageTimes> Stages; ///< traced run only
  uint64_t Attempted = 0, Failed = 0;
  SpanLog Spans;
};

/// Replays one commit's stages on the current (base) snapshot, timing
/// each module call, without publishing anything.
StageTimes replayStages(const LookupService &Svc,
                        const std::vector<Transaction::Op> &Ops,
                        WriteAheadLog *ScratchWal, SpanLog &Spans,
                        uint64_t Root, uint64_t OpId) {
  StageTimes St;
  std::shared_ptr<const Snapshot> Base = Svc.snapshot();
  uint64_t A = nowNs();
  Expected<Hierarchy> NewH =
      applyEditScript(*Base->H, Ops, Svc.options().Budget);
  uint64_t B = nowNs();
  Spans.add("commit.apply_edit", A, B, Root, OpId);
  St.ApplyMs = double(B - A) / 1e6;
  if (!NewH || !Base->Table)
    return St;
  ImpactSet Impact = computeImpactSet(*Base->H, *NewH, Ops);
  uint64_t C = nowNs();
  Spans.add("commit.impact", B, C, Root, OpId);
  St.ImpactMs = double(C - B) / 1e6;
  std::shared_ptr<const LookupTable> T = LookupTable::rewarm(
      *NewH, *Base->H, *Base->Table, Impact.MemberNames, Deadline::never(), 1);
  uint64_t D = nowNs();
  Spans.add("commit.rewarm", C, D, Root, OpId);
  St.RewarmMs = double(D - C) / 1e6;
  if (T) {
    St.Retabulated = T->buildStats().ColumnsBuilt;
    St.Shared = T->buildStats().ColumnsShared;
  }
  if (ScratchWal) {
    uint64_t E = nowNs();
    if (!ScratchWal->append(ScratchWal->lastEpoch() + 1, Ops).isOk())
      die("scratch log append failed");
    uint64_t F = nowNs();
    Spans.add("commit.wal_append", E, F, Root, OpId);
    St.WalMs = double(F - E) / 1e6;
  }
  return St;
}

/// Runs commits [Next, Last) of the script open-loop, one due every
/// PeriodMs from now, stopping early when Stop is set. A traced run
/// replays each commit's stages before its due time, on a schedule of
/// twice the period, so the replay does not make the real commit late.
void runWriter(LookupService &Svc, const EditScript &Script, size_t &Next,
               size_t Last, uint32_t PeriodMs, const std::atomic<bool> *Stop,
               WriteAheadLog *ScratchWal, bool Traced,
               std::map<uint64_t, std::vector<Transaction::Op>> &EpochOps,
               WriterResult &Out) {
  const auto Period = std::chrono::milliseconds(PeriodMs * (Traced ? 2 : 1));
  const auto Start = Clock::now();
  for (size_t I = 0; Next != Last; ++I) {
    std::vector<Transaction::Op> Ops = Script.ops(Next);
    const uint64_t OpId = 1'000'000'000ull + Next;
    const uint64_t Root = Traced ? Out.Spans.add("commit", 0, 0, 0, OpId) : 0;
    const uint64_t R0 = nowNs();
    StageTimes St;
    if (Traced)
      St = replayStages(Svc, Ops, ScratchWal, Out.Spans, Root, OpId);

    // Traced: the schedule starts one period late, so that even the
    // first replay finishes before its commit is due.
    const auto Due = Start + Period * (I + (Traced ? 1 : 0));
    auto Stopped = [&] {
      if (!Stop || !Stop->load(std::memory_order_relaxed))
        return false;
      if (Traced)
        Out.Spans.close(Root, R0, nowNs());
      return true;
    };
    while (Clock::now() < Due) {
      if (Stopped())
        return;
      std::this_thread::sleep_for(std::min<Clock::duration>(
          Due - Clock::now(), std::chrono::milliseconds(5)));
    }
    if (Stopped())
      return;
    const uint64_t DueNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Due.time_since_epoch())
            .count());
    const uint64_t T0 = nowNs();
    Transaction Txn = Svc.beginTxn();
    for (const Transaction::Op &Op : Ops) {
      if (Op.Kind == Transaction::OpKind::AddMember)
        Txn.addMember(Op.Class, Op.Member);
      else
        Txn.removeMember(Op.Class, Op.Member);
    }
    const uint64_t C0 = nowNs();
    Status S = Svc.commit(Txn);
    const uint64_t C1 = nowNs();
    ++Out.Attempted;
    if (!S.isOk()) {
      ++Out.Failed;
      std::cerr << "perfbench: commit " << Next << " failed: " << S.toString()
                << "\n";
    } else {
      EpochOps[Svc.currentEpoch()] = std::move(Ops);
    }
    if (Traced) {
      Out.Spans.add("commit.service", C0, C1, Root, OpId);
      Out.Spans.close(Root, R0, C1);
      St.CommitMs = double(C1 - C0) / 1e6;
      Out.Stages.push_back(St);
    }
    Out.LagMs.push_back(double(T0 - std::min(T0, DueNs)) / 1e6);
    Out.LatencyMs.push_back(double(C1 - std::min(C1, DueNs)) / 1e6);
    ++Next;
  }
}

//===----------------------------------------------------------------------===//
// Correctness
//===----------------------------------------------------------------------===//

/// Compares one sampled answer with the reference engine's.
bool sampleMatches(const Hierarchy &H, SubobjectLookupEngine &Ref,
                   const NamePair &Names, const Sample &S, bool &Unverified) {
  ClassId C = H.findClass(Names.Class);
  if (!C.isValid())
    return S.UnknownContext;
  if (S.UnknownContext)
    return false;
  Symbol M = H.findName(Names.Member);
  LookupResult R = M.isValid() ? Ref.lookup(C, M) : LookupResult::notFound();
  if (isBudgetDegraded(R.Status)) {
    Unverified = true;
    return true;
  }
  if (R.Status != S.Status)
    return false;
  if (R.Status != LookupStatus::Unambiguous)
    return true;
  return R.DefiningClass == S.DefiningClass &&
         R.SharedStatic == S.SharedStatic;
}

struct CheckResult {
  uint64_t Checked = 0, Mismatched = 0, Unverified = 0, EpochsChecked = 0;
};

/// Rebuilds every epoch's hierarchy from the base by replaying the
/// committed edit scripts, and checks the samples of each epoch on it.
CheckResult checkSamples(Hierarchy Base,
                         const std::map<uint64_t, std::vector<Transaction::Op>>
                             &EpochOps,
                         std::vector<Sample> Samples,
                         const std::vector<NamePair> &Universe,
                         const ResourceBudget &Budget) {
  CheckResult R;
  std::stable_sort(Samples.begin(), Samples.end(),
                   [](const Sample &A, const Sample &B) {
                     return A.Epoch < B.Epoch;
                   });
  std::shared_ptr<const Hierarchy> H =
      std::make_shared<Hierarchy>(std::move(Base)); // epoch 1
  uint64_t Epoch = 1;
  size_t I = 0;
  while (I != Samples.size()) {
    uint64_t Want = Samples[I].Epoch;
    while (Epoch < Want) {
      auto It = EpochOps.find(Epoch + 1);
      if (It == EpochOps.end())
        die("no edit script recorded for epoch " + std::to_string(Epoch + 1));
      Expected<Hierarchy> Next = applyEditScript(*H, It->second, Budget);
      if (!Next)
        die("replaying epoch " + std::to_string(Epoch + 1) + ": " +
            Next.status().toString());
      H = std::make_shared<Hierarchy>(Next.takeValue());
      ++Epoch;
    }
    SubobjectLookupEngine Ref(*H);
    ++R.EpochsChecked;
    for (; I != Samples.size() && Samples[I].Epoch == Epoch; ++I) {
      bool Unverified = false;
      bool Ok = sampleMatches(*H, Ref, Universe[Samples[I].Key], Samples[I],
                              Unverified);
      ++R.Checked;
      R.Unverified += Unverified;
      if (!Ok) {
        if (R.Mismatched < 5)
          std::cerr << "perfbench: wrong answer at epoch " << Epoch << " for "
                    << Universe[Samples[I].Key].Class
                    << "::" << Universe[Samples[I].Key].Member << "\n";
        ++R.Mismatched;
      }
    }
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Per-layer read timings (traced run)
//===----------------------------------------------------------------------===//

/// Median ns per call of \p Body over the key stream, several rounds.
template <typename Fn> double nsPerCall(size_t Calls, Fn &&Body) {
  std::vector<double> Rounds;
  for (int Round = 0; Round != 7; ++Round) {
    uint64_t T0 = nowNs();
    for (size_t I = 0; I != Calls; ++I)
      Body(I);
    Rounds.push_back(double(nowNs() - T0) / double(Calls));
  }
  return median(Rounds);
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  std::ostringstream S;
  S.precision(17);
  S << V;
  return S.str();
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::cout << "{\"correct\": " << (Correct ? "true" : "false")
            << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
            << ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I)
    std::cout << (I ? ", " : "") << "\"" << Metrics[I].Name
              << "\": {\"value\": " << jsonNumber(Metrics[I].Value)
              << ", \"unit\": \"" << Metrics[I].Unit << "\"}";
  std::cout << "}}" << std::endl;
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir;
  bool InjectCorruption = false;
  bool DumpScript = false;
};

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false, HaveDir = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        die("missing value for " + Flag);
      return Argv[++I];
    };
    try {
      if (Flag == "--workload") {
        A.Workload = Value();
        HaveWorkload = true;
      } else if (Flag == "--seed") {
        A.Seed = std::stoull(Value());
      } else if (Flag == "--seconds") {
        A.Seconds = std::stod(Value());
      } else if (Flag == "--trace") {
        A.Trace = std::stoi(Value()) != 0;
      } else if (Flag == "--workdir") {
        A.WorkDir = Value();
        HaveDir = true;
      } else if (Flag == "--inject-corruption") {
        A.InjectCorruption = true;
      } else if (Flag == "--dump-script") {
        A.DumpScript = true;
      } else {
        die("unknown argument " + Flag);
      }
    } catch (const std::logic_error &) {
      die("bad value for " + Flag);
    }
  }
  if (!HaveWorkload || (!HaveDir && !A.DumpScript) || !(A.Seconds > 0))
    die("usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --workdir <dir> [--inject-corruption] [--dump-script]");
  return A;
}

} // namespace

int main(int Argc, char **Argv) {
  const Args A = parseArgs(Argc, Argv);
  const WorkloadSpec *SpecPtr = nullptr;
  for (const WorkloadSpec &S : Specs)
    if (A.Workload == S.Name)
      SpecPtr = &S;
  if (!SpecPtr)
    die("unknown workload '" + A.Workload + "'");
  const WorkloadSpec &Spec = *SpecPtr;

  // Thread budget: busy threads <= cores - 1, so the read tail measures
  // the program, not the scheduler. Table builds and rewarms run on the
  // committing thread (WarmThreads = 1); the main thread sleeps while
  // the readers and the writer run.
  const uint32_t Cores = usableCores();
  const uint32_t Budget = std::max(1u, Cores - 1);
  const uint32_t WriterThreads = Spec.WriterWithReaders ? 1 : 0;
  const uint32_t Readers = std::max(
      1u, std::min(Spec.WriterWithReaders ? 2u : 3u,
                   Budget - std::min(Budget - 1, WriterThreads)));

  const double SliceS = A.Seconds / Rounds;
  const double DelayMs = std::min(WriterDelayMs, SliceS * 1000.0 / 5);
  const size_t SliceCommits =
      Spec.WriterWithReaders
          ? static_cast<size_t>(std::max(
                1.0, std::ceil((SliceS * 1000.0 - DelayMs) /
                               Spec.CommitPeriodMs)))
          : Spec.ReaderFreeCommits;
  const size_t TailCommits = Spec.Durable ? WalTail : 0;
  // Per round: one priming commit, the slice's commits, the WAL tail.
  const size_t ScriptLength =
      1 + Spec.WarmupCommits + Rounds * (1 + SliceCommits + TailCommits);

  Workload W0 = makeWorkload(Spec.K);
  const EditScript Script = makeEditScript(W0.H, A.Seed, ScriptLength);

  if (A.DumpScript) {
    for (size_t K = 0; K != Script.Classes.size(); ++K) {
      std::cout << "commit " << K;
      for (const Transaction::Op &Op : Script.ops(K))
        std::cout << (Op.Kind == Transaction::OpKind::AddMember ? " add "
                                                                : " remove ")
                  << Op.Class << "::" << Op.Member;
      std::cout << "\n";
    }
    return 0;
  }

  namespace fs = std::filesystem;
  const fs::path Dir = A.WorkDir;
  fs::create_directories(Dir);
  const std::string WalPath = (Dir / "service.wal").string();
  const std::string SnapPath = (Dir / "service.snap").string();

  ServiceOptions Opts;
  Opts.WarmThreads = 1;
  if (Spec.Durable) {
    Opts.WalPath = WalPath;
    Opts.WalSyncEachAppend = true;
  }

  // Key universe: the hot set (read_forest, drawn as bench_query draws
  // it) or, per reader, 64Ki pairs drawn uniformly over (class, member):
  // their table entries do not fit in a core's L2.
  std::vector<NamePair> Universe;
  std::vector<uint32_t> ReaderFirstKey;
  uint32_t KeysPerReader = 0;
  {
    const Hierarchy &H = W0.H;
    const std::vector<Symbol> &Names = H.allMemberNames();
    SplitMix R(A.Seed ^ 0x4b3f5eedULL);
    if (Spec.HotSet) {
      KeysPerReader = 256;
      for (uint32_t I = 0; I != KeysPerReader; ++I) {
        ClassId C = W0.QueryClasses[R.below(W0.QueryClasses.size())];
        Symbol S = W0.QueryMembers[R.below(W0.QueryMembers.size())];
        Universe.push_back({std::string(H.className(C)),
                            std::string(H.spelling(S))});
      }
      ReaderFirstKey.assign(Readers, 0);
    } else {
      KeysPerReader = 1u << 16;
      for (uint32_t Rd = 0; Rd != Readers; ++Rd) {
        ReaderFirstKey.push_back(static_cast<uint32_t>(Universe.size()));
        for (uint32_t I = 0; I != KeysPerReader; ++I) {
          ClassId C(static_cast<uint32_t>(R.below(H.numClasses())));
          Symbol S = Names[R.below(Names.size())];
          Universe.push_back({std::string(H.className(C)),
                              std::string(H.spelling(S))});
        }
      }
    }
  }

  uint64_t Attempted = 0, Failed = 0;
  auto Fail = [&](uint64_t Count, const std::string &Why) {
    Failed += Count;
    std::cerr << "perfbench: FAILED: " << Why << "\n";
  };

  // ---- Set-up: the serving service. -------------------------------------
  std::vector<double> SetupS;
  std::unique_ptr<LookupService> Svc;
  {
    Hierarchy H = std::move(W0.H);
    uint64_t T0 = threadCpuNs();
    Svc = std::make_unique<LookupService>(std::move(H), Opts);
    SetupS.push_back(double(threadCpuNs() - T0) / 1e9);
  }

  std::map<uint64_t, std::vector<Transaction::Op>> EpochOps;
  size_t NextCommit = 0;
  auto Commits = [&](size_t Count, uint32_t PeriodMs,
                     const std::atomic<bool> *Stop, WriteAheadLog *Scratch,
                     bool Traced, WriterResult &Out) {
    const size_t Last = std::min(NextCommit + Count, Script.Classes.size());
    runWriter(*Svc, Script, NextCommit, Last, PeriodMs, Stop, Scratch, Traced,
              EpochOps, Out);
  };

  // Traced run: a scratch log with the service's sync policy prices the
  // WAL append stage on its own.
  std::unique_ptr<WriteAheadLog> ScratchWal;
  if (A.Trace && Spec.Durable) {
    Expected<WriteAheadLog> L = WriteAheadLog::create(
        (Dir / "scratch.wal").string(), 1, 0, Opts.WalSyncEachAppend);
    if (!L)
      die("scratch log: " + L.status().toString());
    ScratchWal = std::make_unique<WriteAheadLog>(L.takeValue());
  }

  // ---- Reader-free warm-up: the priming commit, then a few more. --------
  WriterResult Untimed;
  Commits(1 + Spec.WarmupCommits, Spec.CommitPeriodMs, nullptr, nullptr, false,
          Untimed);

  // Peak memory is read here, before any reader exists: with readers, a
  // pinned epoch may or may not be held for reclamation at the moment
  // of the peak, and the figure flips between two values.
  const double PeakRssMb = peakRssMb();

  std::vector<ReaderPlan> Plans;
  for (uint32_t Rd = 0; Rd != Readers; ++Rd)
    Plans.push_back(makeReaderPlan(*Svc, Universe, ReaderFirstKey[Rd],
                                   KeysPerReader, A.Seed * 31 + Rd));
  const ServiceStats StatsBefore = Svc->stats();
  LatencyHistogram ServiceReads, ServiceCommits;
  std::vector<ReaderResult> RR(Readers);
  WriterResult Writer; // the commits the commit rows report
  Writer.Spans.setIdBase(1ull << 50);
  uint32_t MaxThreads = 0;
  uint64_t LimboMax = 0;
  double SnapshotMb = 0;
  std::vector<double> RestoreS, AuditS;
  const RestoreRung WantRung =
      Spec.Durable ? RestoreRung::SnapshotAndWal : RestoreRung::Snapshot;

  for (uint32_t Round = 0; Round != Rounds; ++Round) {
    // An untimed commit first: the measurements between slices evict the
    // serving epoch from cache, and the first commit after them would
    // form a slow mode of its own at the p90.
    Commits(1, 0, nullptr, nullptr, false, Untimed);

    // Corrupt, before the last slice, an entry the first reader reads
    // first: the sampled-answer check must count it. The service refuses
    // to persist a table carrying such an override, so this round skips
    // save and restore.
    const bool Corrupted = A.InjectCorruption && Round + 1 == Rounds;
    if (Corrupted) {
      const NamePair &Victim =
          Universe[Plans[0].KeyIds[Plans[0].Stream[0].second]];
      if (!Svc->corruptTableEntryForTesting(Victim.Class, Victim.Member))
        die("could not corrupt " + Victim.Class + "::" + Victim.Member);
    }

    // ---- Timed slice: closed-loop readers (+ the open-loop writer). -----
    const LatencyHistogram ReadHist[3] = {
        Svc->latencySnapshot(QueryPath::Probe),
        Svc->latencySnapshot(QueryPath::Key),
        Svc->latencySnapshot(QueryPath::String)};
    const LatencyHistogram CommitHist = Svc->commitLatencySnapshot();
    std::atomic<bool> Stop{false};
    const uint64_t SliceStart = nowNs();
    // Reads are measured from the writer's first due commit on: before
    // that, readers re-resolve cold keys and no commit makes them stale.
    const uint64_t MeasureStart = SliceStart + uint64_t(DelayMs * 1e6);
    {
      std::vector<std::thread> Threads;
      for (uint32_t Rd = 0; Rd != Readers; ++Rd)
        Threads.emplace_back([&, Rd] {
          runReader(*Svc, Plans[Rd], Universe, Stop, A.Trace, SliceStart,
                    MeasureStart,
                    ((uint64_t(Rd) + 1) << 40) + (uint64_t(Round) << 32),
                    RR[Rd]);
        });
      if (Spec.WriterWithReaders)
        Threads.emplace_back([&] {
          const auto Start = Clock::now();
          while (!Stop.load() && Clock::now() - Start <
                                     std::chrono::duration<double, std::milli>(
                                         DelayMs))
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          Commits(SliceCommits, Spec.CommitPeriodMs, &Stop, ScratchWal.get(),
                  A.Trace, Writer);
        });
      const auto End = Clock::now() + std::chrono::duration<double>(SliceS);
      while (Clock::now() < End) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        MaxThreads = std::max(MaxThreads, threadCount());
        if (A.Trace)
          LimboMax = std::max(LimboMax, Svc->stats().SnapshotLimboDepth);
      }
      Stop.store(true);
      for (std::thread &T : Threads)
        T.join();
    }
    ServiceReads.merge(
        Svc->latencySnapshot(QueryPath::Probe).diffSince(ReadHist[0]));
    ServiceReads.merge(
        Svc->latencySnapshot(QueryPath::Key).diffSince(ReadHist[1]));
    ServiceReads.merge(
        Svc->latencySnapshot(QueryPath::String).diffSince(ReadHist[2]));

    // ---- Reader-free commits (workloads whose readers run alone). -------
    if (!Spec.WriterWithReaders)
      Commits(SliceCommits, Spec.CommitPeriodMs, nullptr, ScratchWal.get(),
              A.Trace, Writer);
    ServiceCommits.merge(Svc->commitLatencySnapshot().diffSince(CommitHist));

    // ---- Snapshot, WAL tail, restore. ------------------------------------
    if (Corrupted)
      continue;
    ++Attempted;
    if (Status S = Svc->saveSnapshot(SnapPath); !S.isOk())
      Fail(1, "saveSnapshot: " + S.toString());
    SnapshotMb = double(fs::file_size(SnapPath)) / (1024.0 * 1024.0);
    Commits(TailCommits, 0, nullptr, nullptr, false, Untimed);
    if (uint64_t Depth = Svc->stats().SnapshotLimboDepth)
      Fail(1, "SnapshotLimboDepth " + std::to_string(Depth) +
                  " after the readers stopped");
    {
      // Restore reads fresh copies: it takes over the log it replays.
      const std::string RSnap = (Dir / "restore.snap").string();
      const std::string RWal = (Dir / "restore.wal").string();
      fs::copy_file(SnapPath, RSnap, fs::copy_options::overwrite_existing);
      ServiceOptions RO = Opts;
      if (Spec.Durable) {
        fs::copy_file(WalPath, RWal, fs::copy_options::overwrite_existing);
        RO.WalPath = RWal;
      }
      RestoreReport Rep;
      uint64_t T0 = threadCpuNs();
      Expected<std::unique_ptr<LookupService>> R =
          LookupService::restore(RSnap, Hierarchy(), RO, &Rep);
      RestoreS.push_back(double(threadCpuNs() - T0) / 1e9);
      ++Attempted;
      if (!R || Rep.Rung != WantRung || Rep.DataLoss ||
          Rep.WalRecordsReplayed != TailCommits ||
          (*R)->currentEpoch() != Svc->currentEpoch())
        Fail(1, "restore: " + (R ? Rep.toString() : R.status().toString()));
    }

    // ---- One more set-up, from a freshly generated hierarchy. -----------
    {
      Workload W = makeWorkload(Spec.K);
      ServiceOptions SO = Opts;
      if (Spec.Durable)
        SO.WalPath = (Dir / "setup.wal").string();
      uint64_t T0 = threadCpuNs();
      auto S = std::make_unique<LookupService>(std::move(W.H), SO);
      SetupS.push_back(double(threadCpuNs() - T0) / 1e9);
    }

    // ---- Audit of the serving service, with the readers stopped. --------
    // Set-up, restore and audit are single-threaded compute (1 warm
    // thread; restore reads page-cached files and replays the WAL tail
    // with no log attached) and are timed in thread CPU time: in wall
    // time, host steal moved a run's median audit by up to 30%.
    if ((Round + 1) * Spec.Audits / Rounds != Round * Spec.Audits / Rounds) {
      uint64_t T0 = threadCpuNs();
      AuditReport Rep = Svc->auditNow();
      AuditS.push_back(double(threadCpuNs() - T0) / 1e9);
      ++Attempted;
      if (!Rep.passed())
        Fail(1, "audit: " + Rep.toString());
    }
  }
  Attempted += Untimed.Attempted + Writer.Attempted;
  if (Untimed.Failed + Writer.Failed)
    Fail(Untimed.Failed + Writer.Failed, "commits rejected");

  // ---- Reads, and the service's own view of them. -------------------------
  uint64_t Reads = 0, Flagged = 0;
  std::vector<Sample> Samples;
  uint64_t ReadsTraced = 0, ReadsUntraced = 0, NsTraced = 0, NsUntraced = 0;
  SpanLog Spans;
  Spans.setIdBase(1ull << 52);
  for (ReaderResult &R : RR) {
    Reads += R.Reads;
    Flagged += R.Flagged;
    Samples.insert(Samples.end(), R.Samples.begin(), R.Samples.end());
    ReadsTraced += R.ReadsTraced;
    ReadsUntraced += R.ReadsUntraced;
    NsTraced += R.NsTraced;
    NsUntraced += R.NsUntraced;
    Spans.append(R.Spans);
  }
  Attempted += Reads;
  if (Flagged)
    Fail(Flagged, std::to_string(Flagged) +
                      " reads approximate, late, quarantined or in error");
  // Read figures pool the measured part of every slice. Throughput is
  // each reader's reads per second of its own CPU time, summed: a
  // closed-loop reader never blocks and busy threads stay below the core
  // count, so this is wall throughput minus the time the host took the
  // vCPU away (steal). Slices run at one of two speeds (the host, and
  // where each slice's threads and epoch land), so pooled figures, which
  // move in proportion to the slow share, are steadier than medians over
  // slices, which jump when that share crosses one half. The per-slice
  // throughput is printed as a diagnostic.
  std::vector<double> SliceQps(Rounds, 0);
  double ReadQps = 0;
  std::vector<float> PoolLat;
  for (const ReaderResult &R : RR) {
    uint64_t Measured = 0, CpuNs = 0;
    for (size_t I = 0; I != R.Slices.size(); ++I) {
      const MeasuredSlice &S = R.Slices[I];
      Measured += S.Reads;
      CpuNs += S.CpuNs;
      if (I < SliceQps.size())
        SliceQps[I] += double(S.Reads) / (double(S.CpuNs) / 1e9);
      PoolLat.insert(PoolLat.end(), R.LatNs.begin() + S.LatBegin,
                     R.LatNs.begin() + S.LatEnd);
    }
    if (CpuNs == 0)
      die("no measured reads; run longer");
    ReadQps += double(Measured) / (double(CpuNs) / 1e9);
  }
  std::sort(PoolLat.begin(), PoolLat.end());
  const double ReadP50 = sortedPercentile(PoolLat, 50);
  const double ReadP99 = sortedPercentile(PoolLat, 99);

  ServiceStats St = Svc->stats();
  if (St.Queries + St.Probes !=
      St.RungAnswers[0] + St.RungAnswers[1] + St.RungAnswers[2])
    Fail(1, "Queries+Probes != sum of RungAnswers");
  const uint64_t ServiceCounted =
      (St.Queries + St.Probes) - (StatsBefore.Queries + StatsBefore.Probes);
  if (ServiceCounted != Reads)
    Fail(1, "service counted " + std::to_string(ServiceCounted) +
                " reads, the benchmark " + std::to_string(Reads));

  const double CommitP50 = percentile(Writer.LatencyMs, 50);
  const double CommitP90 = percentile(Writer.LatencyMs, 90);
  const double ObsReadP99Ratio = ServiceReads.percentile(99) / ReadP99;
  const double ObsCommitP50Ratio =
      ServiceCommits.percentile(50) / 1e6 / CommitP50;

  // ---- Correctness of every sampled answer. ------------------------------
  CheckResult Check =
      checkSamples(std::move(makeWorkload(Spec.K).H), EpochOps,
                   Samples, Universe, Svc->options().Budget);
  if (Check.Mismatched)
    Fail(Check.Mismatched, std::to_string(Check.Mismatched) + " of " +
                               std::to_string(Check.Checked) +
                               " sampled answers wrong");

  // ---- Traced run: per-layer prices. --------------------------------------
  std::vector<Metric> Layer;
  if (A.Trace) {
    // Read path: each entry point over the first reader's key stream,
    // one thread, no writer.
    std::vector<QueryKey> Keys = Plans[0].Keys;
    const std::vector<uint32_t> &KeyIds = Plans[0].KeyIds;
    std::vector<uint32_t> Stream;
    for (const auto &Entry : Plans[0].Stream)
      Stream.push_back(Entry.second);
    const size_t Calls = Stream.size();
    for (QueryKey &K : Keys)
      (void)Svc->probe(K); // re-resolve at the current epoch
    std::shared_ptr<const Snapshot> Snap = Svc->snapshot();
    const LookupTable &T = *Snap->Table;
    uint64_t Sink = 0;
    auto Code = [](LookupStatus S) { return static_cast<uint64_t>(S); };
    const double TableProbe = nsPerCall(Calls, [&](size_t I) {
      const QueryKey &K = Keys[Stream[I]];
      Sink += Code(T.probe(K.Context, K.Member).Status);
    });
    const double ProbeOn = nsPerCall(Calls, [&](size_t I) {
      Sink += Code(Svc->probeOn(*Snap, Keys[Stream[I]]).Status);
    });
    const double Probe = nsPerCall(Calls, [&](size_t I) {
      Sink += Code(Svc->probe(Keys[Stream[I]]).Status);
    });
    const double QueryKeyNs = nsPerCall(Calls, [&](size_t I) {
      Sink += Code(Svc->query(Keys[Stream[I]]).Result.Status);
    });
    const double QueryString = nsPerCall(Calls, [&](size_t I) {
      const NamePair &N = Universe[KeyIds[Stream[I]]];
      Sink += Code(Svc->query(N.Class, N.Member).Result.Status);
    });
    const double Resolve = nsPerCall(Calls, [&](size_t I) {
      const NamePair &N = Universe[KeyIds[Stream[I]]];
      Sink += Svc->resolve(N.Class, N.Member).Epoch;
    });
    // The batch entry point is priced here only, per key.
    constexpr size_t BatchSize = 256;
    std::vector<QueryKey> Batch(BatchSize);
    std::vector<QueryAnswer> BatchOut(BatchSize);
    const double QueryMany =
        nsPerCall(Calls / BatchSize,
                  [&](size_t I) {
                    for (size_t J = 0; J != BatchSize; ++J)
                      Batch[J] = Keys[Stream[I * BatchSize + J]];
                    Svc->queryMany(Batch, BatchOut);
                    Sink += Code(BatchOut[0].Result.Status);
                  }) /
        double(BatchSize);
    const double Stale = nsPerCall(Calls, [&](size_t I) {
      QueryKey &K = Keys[Stream[I]];
      K.Epoch = 0; // as after a commit: the key re-resolves
      Sink += Code(Svc->probe(K).Status);
    });
    if (Sink == 0)
      std::cerr << "perfbench: no read answered\n";
    Layer.push_back({"read.table_probe_ns", TableProbe, "ns"});
    Layer.push_back({"read.probe_on_ns", ProbeOn, "ns"});
    Layer.push_back({"read.probe_ns", Probe, "ns"});
    Layer.push_back({"read.query_key_ns", QueryKeyNs, "ns"});
    Layer.push_back({"read.query_string_ns", QueryString, "ns"});
    Layer.push_back({"read.resolve_ns", Resolve, "ns"});
    Layer.push_back({"read.query_many_ns", QueryMany, "ns"});
    Layer.push_back({"read.accounting_ns", ProbeOn - TableProbe, "ns"});
    Layer.push_back({"read.pin_ns", Probe - ProbeOn, "ns"});
    Layer.push_back({"read.materialize_ns", QueryKeyNs - Probe, "ns"});
    Layer.push_back({"read.intern_ns", QueryString - QueryKeyNs, "ns"});
    Layer.push_back({"read.stale_reresolve_ns", Stale - Probe, "ns"});

    // Commit stages, replayed before each reported commit.
    auto StageMedian = [&](auto Field) {
      std::vector<double> Xs;
      for (const StageTimes &S : Writer.Stages)
        Xs.push_back(double(S.*Field));
      return median(Xs);
    };
    const double Apply = StageMedian(&StageTimes::ApplyMs);
    const double Impact = StageMedian(&StageTimes::ImpactMs);
    const double Rewarm = StageMedian(&StageTimes::RewarmMs);
    const double WalMs = StageMedian(&StageTimes::WalMs);
    const double Commit = StageMedian(&StageTimes::CommitMs);
    const double Retab = StageMedian(&StageTimes::Retabulated);
    const double Shared = StageMedian(&StageTimes::Shared);
    Layer.push_back({"commit.apply_edit_ms", Apply, "ms"});
    Layer.push_back({"commit.impact_ms", Impact, "ms"});
    Layer.push_back({"commit.rewarm_ms", Rewarm, "ms"});
    Layer.push_back({"commit.columns_retabulated", Retab, "count"});
    Layer.push_back({"commit.columns_shared", Shared, "count"});
    Layer.push_back({"commit.retab_fraction",
                     Retab + Shared > 0 ? Retab / (Retab + Shared) : 0,
                     "ratio"});
    Layer.push_back({"commit.wal_append_ms", WalMs, "ms"});
    Layer.push_back(
        {"commit.other_ms", Commit - (Apply + Impact + Rewarm + WalMs), "ms"});
    Layer.push_back({"commit.service_ms", Commit, "ms"});
    Layer.push_back({"gen.writer_lag_ms", median(Writer.LagMs), "ms"});

    // Build, persistence and audit layers are timed in thread CPU time,
    // like the end-to-end metrics they split.
    {
      std::vector<double> Ms;
      std::shared_ptr<const LookupTable> Built;
      for (int I = 0; I != 3; ++I) {
        uint64_t T0 = nowNs(), C0 = threadCpuNs();
        Built = LookupTable::build(*Snap->H, Deadline::never(), 1);
        Ms.push_back(cpuMsSince(C0));
        Spans.add("build.tabulate", T0, nowNs(), 0, 2'000'000'000ull + I);
      }
      Layer.push_back({"build.tabulate_ms", median(Ms), "ms"});
      Layer.push_back({"build.table_mb",
                       double(Built->heapBytes()) / (1024.0 * 1024.0), "MB"});
      Layer.push_back({"build.columns_deduped",
                       double(Built->buildStats().ColumnsDeduped), "count"});
    }

    // Persistence: the module calls restore() is made of.
    {
      std::vector<double> Load, Scan;
      uint64_t Records = 0;
      for (int I = 0; I != 3; ++I) {
        uint64_t C0 = threadCpuNs();
        Expected<SnapshotPayload> P = readSnapshotFile(SnapPath, Opts.Budget);
        Load.push_back(cpuMsSince(C0));
        if (!P)
          die("readSnapshotFile: " + P.status().toString());
        C0 = threadCpuNs();
        if (Spec.Durable)
          Records = WriteAheadLog::replayFile(WalPath).Records.size();
        Scan.push_back(Spec.Durable ? cpuMsSince(C0) : 0.0);
      }
      Layer.push_back({"restore.snapshot_load_ms", median(Load), "ms"});
      Layer.push_back({"restore.wal_scan_ms", median(Scan), "ms"});
      Layer.push_back({"restore.wal_records", double(Records), "count"});
      Layer.push_back({"restore.other_ms",
                       trimmedMean(RestoreS) * 1e3 - median(Load) - median(Scan),
                       "ms"});
    }

    // Audit: the engine-vs-engine check on the same snapshot; the rest
    // of auditNow() is the sampled table check.
    {
      uint64_t T0 = nowNs(), C0 = threadCpuNs();
      DifferentialReport D = runDifferentialCheck(*Snap->H, Opts.Budget);
      const double EngineMs = cpuMsSince(C0);
      Spans.add("audit.engine_check", T0, nowNs(), 0, 3'000'000'000ull);
      Layer.push_back({"audit.engine_check_ms", EngineMs, "ms"});
      Layer.push_back({"audit.engine_pairs", double(D.PairsChecked), "count"});
      // The sampled table check alone: auditNow() on a second service
      // over the same workload with the engine check switched off.
      ServiceOptions SampleOnly;
      SampleOnly.WarmThreads = 1;
      SampleOnly.AuditEngineCheck = false;
      LookupService Sampler(makeWorkload(Spec.K).H, SampleOnly);
      std::vector<double> SampleMs;
      for (int I = 0; I != 3; ++I) {
        uint64_t C1 = threadCpuNs();
        if (!Sampler.auditNow().passed())
          Fail(1, "table-only audit failed");
        SampleMs.push_back(cpuMsSince(C1));
      }
      Layer.push_back({"audit.sample_ms", median(SampleMs), "ms"});
    }

    St = Svc->stats();
    Layer.push_back({"ebr.limbo_depth_max", double(LimboMax), "count"});
    Layer.push_back({"ebr.retired", double(St.SnapshotsRetired), "count"});
    Layer.push_back({"ebr.reclaimed", double(St.SnapshotsReclaimed), "count"});

    std::vector<double> Scrape;
    for (int I = 0; I != 5; ++I) {
      uint64_t T0 = nowNs();
      std::string Text = Svc->metricsText();
      Scrape.push_back(msSince(T0));
      if (Text.empty())
        Fail(1, "metricsText() is empty");
    }
    Layer.push_back({"obs.scrape_ms", median(Scrape), "ms"});
    Layer.push_back({"obs.read_p99_ratio", ObsReadP99Ratio, "ratio"});
    Layer.push_back({"obs.commit_p50_ratio", ObsCommitP50Ratio, "ratio"});
    const double TracedQps =
        NsTraced ? double(ReadsTraced) / (double(NsTraced) / 1e9) : 0;
    const double UntracedQps =
        NsUntraced ? double(ReadsUntraced) / (double(NsUntraced) / 1e9) : 0;
    Layer.push_back({"trace.overhead_frac",
                     UntracedQps > 0 ? (UntracedQps - TracedQps) / UntracedQps
                                     : 0,
                     "ratio"});

    SpanLog All;
    All.append(Spans);
    All.append(Writer.Spans);
    All.write((Dir.parent_path() / ("spans-" + A.Workload + "-seed" +
                                    std::to_string(A.Seed) + ".jsonl"))
                  .string());
  }

  // Diagnostics for the benchmark's own tests, before the result line.
  auto List = [](const std::vector<double> &Xs) {
    std::string Out = "[";
    for (size_t I = 0; I != Xs.size(); ++I)
      Out += (I ? ", " : "") + jsonNumber(Xs[I]);
    return Out + "]";
  };
  std::cout << "info {\"cores\": " << Cores << ", \"readers\": " << Readers
            << ", \"writer_threads\": " << WriterThreads
            << ", \"max_threads\": " << MaxThreads
            << ", \"reads\": " << Reads
            << ", \"samples_checked\": " << Check.Checked
            << ", \"samples_unverified\": " << Check.Unverified
            << ", \"epochs_checked\": " << Check.EpochsChecked
            << ", \"obs_read_p99_ratio\": " << jsonNumber(ObsReadP99Ratio)
            << ", \"obs_commit_p50_ratio\": " << jsonNumber(ObsCommitP50Ratio)
            << ", \"slice_qps\": " << List(SliceQps)
            << ", \"commit_ms\": " << List(Writer.LatencyMs)
            << ", \"setup_s\": " << List(SetupS)
            << ", \"restore_s\": " << List(RestoreS)
            << ", \"audit_s\": " << List(AuditS) << "}\n";

  const std::vector<Metric> EndToEnd = {
      {"read_qps", ReadQps, "ops/s"},
      {"read_p50_ns", ReadP50, "ns"},
      {"read_p99_ns", ReadP99, "ns"},
      {"commit_p50_ms", CommitP50, "ms"},
      {"commit_p90_ms", CommitP90, "ms"},
      {"setup_s", trimmedMean(SetupS), "s"},
      {"restore_s", trimmedMean(RestoreS), "s"},
      {"audit_s", trimmedMean(AuditS), "s"},
      {"peak_rss_mb", PeakRssMb, "MB"},
      {"snapshot_mb", SnapshotMb, "MB"},
  };
  printResult(Failed == 0, Attempted, Failed, A.Trace ? Layer : EndToEnd);
  return 0;
}
