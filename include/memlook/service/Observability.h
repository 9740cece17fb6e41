//===- memlook/service/Observability.h - Service observability --*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service's observability layer: sampled per-path latency
/// histograms, a bounded per-thread trace ring of recent events, a
/// rate-limited anomaly log, and the metric catalog behind
/// LookupService::metricsText() / metricsJson().
///
/// Design constraint: none of this may slow the probe hot path. The
/// latency instruments therefore clock only 1 in SamplePeriod
/// operations (a thread-local tick and one predictable branch decide;
/// the clocked operation pays two steady_clock reads and a sharded
/// histogram record). Trace events are written lock-free into
/// per-thread ring shards under a per-entry sequence lock, so draining
/// the ring never stops readers. Anomalies pass an atomic token bucket
/// before any string is built, so an anomaly storm costs suppressed
/// counters, not mutexes. See docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_SERVICE_OBSERVABILITY_H
#define MEMLOOK_SERVICE_OBSERVABILITY_H

#include "memlook/support/Histogram.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace memlook {
namespace service {

enum class AnswerRung : uint8_t;
struct ServiceStats;

/// Monotonic wall-clock stamp in nanoseconds: what every duration and
/// trace timestamp in this layer is measured with.
inline uint64_t observabilityNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Which entry point answered: the label axis of the latency
/// histograms (string queries, resolved-key queries - each key of a
/// queryMany() included - and probes).
enum class QueryPath : uint8_t {
  String = 0,
  Key = 1,
  Probe = 2,
};
inline constexpr size_t NumQueryPaths = 3;

/// Returns "string" / "key" / "probe".
const char *queryPathLabel(QueryPath Path);

/// What a trace-ring record describes.
enum class TraceKind : uint8_t {
  /// A sampled string- or key-path query (rung + flags meaningful).
  Query = 0,
  /// A sampled probe.
  Probe = 1,
  /// A published commit (always traced; duration covers validate +
  /// WAL append + warm + publish).
  Commit = 2,
  /// A rejected/conflicted commit (always traced).
  CommitReject = 3,
  /// A restore() that produced this service; Rung carries the
  /// RestoreRung, not an AnswerRung.
  Restore = 4,
  /// A warmCurrent() that built a table.
  Warm = 5,
  /// An auditNow() pass (duration covers both audit layers).
  Audit = 6,
  /// An audit quarantined the table (paired with the Audit event).
  Quarantine = 7,
  /// A saveSnapshot() that hit disk.
  SnapshotSave = 8,
};
inline constexpr size_t NumTraceKinds = 9;

/// Returns "query" / "probe" / ... / "snapshot-save".
const char *traceKindLabel(TraceKind Kind);

/// Flag bits qualifying a TraceEvent, mirroring the QueryAnswer /
/// ProbeAnswer booleans.
enum TraceFlag : uint8_t {
  TfApproximate = 1,
  TfDeadlineExpired = 2,
  TfTableQuarantined = 4,
  TfStaleKey = 8,
  TfUnknownContext = 16,
  TfRejected = 32,
};

/// One drained trace record: plain POD, stable across the drain.
struct TraceEvent {
  TraceKind Kind = TraceKind::Query;
  /// AnswerRung for query-ish kinds, RestoreRung for Restore, 0 else.
  uint8_t Rung = 0;
  uint8_t Flags = 0;
  uint64_t Epoch = 0;
  uint64_t DurationNanos = 0;
  /// observabilityNowNanos() at record time; drain() sorts by this.
  uint64_t WhenNanos = 0;

  /// One-line rendering, e.g.
  /// "probe epoch=4 rung=tabulated 312ns [stale-key]".
  std::string toString() const;
};

/// A bounded, lock-free ring of recent TraceEvents. Writers are
/// wait-free: each thread is round-robin-assigned one of NumShards
/// rings (threadShardIndex), claims a slot with one
/// relaxed fetch_add, and publishes the record under a per-entry
/// sequence lock whose payload words are themselves relaxed atomics -
/// so a concurrent drain() sees either a whole record or none, and
/// TSan sees no data race. The ring keeps the newest CapacityPerShard
/// events per shard; older ones are overwritten, counted, and gone.
class TraceRing {
public:
  static constexpr size_t NumShards = 8;

  /// \p CapacityPerShard is rounded up to a power of two (>= 8).
  explicit TraceRing(uint32_t CapacityPerShard);

  /// Wait-free publish of one event into the caller's shard.
  void record(const TraceEvent &E);

  /// Copies out every stable record, oldest first (sorted by
  /// WhenNanos). Non-destructive and lock-free against writers: a
  /// record being overwritten mid-drain is simply skipped.
  std::vector<TraceEvent> drain() const;

  /// Events ever recorded (sum over shards, relaxed).
  uint64_t recordedTotal() const;
  /// Events lost to ring wrap-around (recorded minus retained).
  uint64_t overwrittenTotal() const;

  uint32_t capacityPerShard() const { return Capacity; }

private:
  struct Entry {
    /// Even = stable, odd = write in progress, 0 = never written.
    std::atomic<uint64_t> Ver{0};
    /// kind | rung<<8 | flags<<16 | duration<<24 (duration clamped to
    /// 40 bits, ~18 minutes).
    std::atomic<uint64_t> Packed{0};
    std::atomic<uint64_t> Epoch{0};
    std::atomic<uint64_t> When{0};
  };
  struct alignas(64) Shard {
    std::atomic<uint64_t> Head{0};
    std::unique_ptr<Entry[]> Entries;
  };

  uint32_t Capacity;
  Shard Shards[NumShards];
};

/// Why an anomaly-log record exists.
enum class AnomalyKind : uint8_t {
  /// A query was answered by a non-tabulated rung (cold, quarantined,
  /// or deadline-squeezed epoch): the ladder did its job, but an
  /// operator watching p99 wants to know the fast rung was skipped.
  RungDrop = 0,
  /// A resolved key crossed a commit and re-resolved itself in place.
  StaleKeyReresolve = 1,
  /// A sampled operation exceeded ObservabilityOptions::SlowQueryNanos.
  SlowQuery = 2,
  /// An audit or restore quarantined a table / snapshot / log.
  Quarantine = 3,
};
inline constexpr size_t NumAnomalyKinds = 4;

/// Returns "rung-drop" / "stale-key-reresolve" / "slow-query" /
/// "quarantine".
const char *anomalyKindLabel(AnomalyKind Kind);

/// One retained anomaly.
struct AnomalyRecord {
  AnomalyKind Kind = AnomalyKind::RungDrop;
  uint64_t Epoch = 0;
  /// Answering rung for RungDrop / SlowQuery records, 0 otherwise.
  uint8_t Rung = 0;
  /// Sampled duration for SlowQuery records, 0 otherwise.
  uint64_t DurationNanos = 0;
  uint64_t WhenNanos = 0;
  std::string Detail;

  std::string toString() const;
};

/// A bounded log of recent anomalies behind an atomic token bucket.
/// The hot path pays one relaxed load (and on acquisition one
/// fetch_sub) before any allocation; once the per-second budget is
/// spent, further anomalies only bump a suppressed counter. Quarantine
/// records bypass the bucket - they are rare and always worth keeping.
class AnomalyLog {
public:
  AnomalyLog(uint32_t Capacity, uint32_t RatePerSecond);

  /// Rate-limited append. Returns false (and counts a suppression)
  /// when the bucket is dry. \p Force bypasses the bucket.
  bool note(AnomalyKind Kind, uint64_t Epoch, uint8_t Rung,
            uint64_t DurationNanos, std::string Detail, bool Force = false);

  /// Newest-last copy of the retained records.
  std::vector<AnomalyRecord> recent() const;

  uint64_t loggedTotal() const {
    return NumLogged.load(std::memory_order_relaxed);
  }
  uint64_t suppressedTotal() const {
    return NumSuppressed.load(std::memory_order_relaxed);
  }

private:
  bool tryAcquireToken();

  uint32_t Capacity;
  uint32_t RatePerSecond;
  std::atomic<int64_t> Tokens;
  std::atomic<uint64_t> LastRefillSecond{0};
  std::atomic<uint64_t> NumLogged{0};
  std::atomic<uint64_t> NumSuppressed{0};

  mutable std::mutex Mutex;
  std::vector<AnomalyRecord> Ring; ///< guarded by Mutex, size <= Capacity
  size_t Next = 0;                 ///< guarded by Mutex
};

/// Observability tuning knobs (ServiceOptions::Observability).
struct ObservabilityOptions {
  /// Clock 1 in SamplePeriod hot-path operations into the latency
  /// histograms and trace ring. Must be a power of two; 0 disables
  /// latency sampling and query tracing entirely (writer-side events
  /// are still traced). A sampled op pays two clock reads plus a
  /// histogram shard increment and a trace-ring write (~150 ns); the
  /// default amortizes that under 1 ns against the ~26 ns probe path,
  /// keeping the bench's 3%-overhead guard honest.
  uint32_t SamplePeriod = 256;
  /// Trace-ring capacity per shard (TraceRing::NumShards shards).
  uint32_t TraceShardCapacity = 256;
  /// Anomaly token-bucket refill per second.
  uint32_t AnomalyRatePerSecond = 64;
  /// A sampled operation at or above this duration logs a SlowQuery
  /// anomaly (0 disables).
  uint64_t SlowQueryNanos = 1'000'000;
};

/// The per-service aggregate owning every instrument above. The
/// LookupService holds one (mutable - recording is logically const)
/// and calls the record hooks from its entry points; the exposition
/// layer in Observability.cpp reads it back out.
class ObservabilityCenter {
public:
  explicit ObservabilityCenter(const ObservabilityOptions &O);

  const ObservabilityOptions &options() const { return Opts; }

  /// The hot-path gate: bumps the calling thread's tick and returns a
  /// start timestamp when this operation drew the 1-in-SamplePeriod
  /// straw, 0 otherwise. Cost when not sampled: one thread-local
  /// increment and one predictable branch.
  uint64_t sampleBegin() {
    thread_local uint64_t Tick = 0;
    if ((++Tick & SampleMask) != 0)
      return 0;
    return observabilityNowNanos();
  }

  /// Completes a sampled read begun at \p T0: histogram record, trace
  /// event, and a SlowQuery check.
  void recordQuerySample(QueryPath Path, AnswerRung Rung, uint64_t T0,
                         uint64_t Epoch, uint8_t Flags);

  /// Writer-side event (commit/restore/warm/audit/save): always
  /// traced, never sampled. Commit durations additionally feed the
  /// commit latency histogram.
  void recordWriterEvent(TraceKind Kind, uint64_t Epoch,
                         uint64_t DurationNanos, uint8_t Rung = 0,
                         uint8_t Flags = 0);

  /// A query answered off the tabulated rung (rate-limited anomaly).
  void noteRungDrop(QueryPath Path, AnswerRung Rung, uint64_t Epoch,
                    bool DeadlineExpired);

  /// A key re-resolved across a commit (rate-limited anomaly).
  void noteStaleKey(uint64_t Epoch);

  /// A quarantine (audit, restore, or WAL): bypasses the rate limit.
  void noteQuarantine(uint64_t Epoch, std::string Detail);

  LatencyHistogram latency(QueryPath Path, AnswerRung Rung) const;
  /// All rungs of one path merged.
  LatencyHistogram latencyMerged(QueryPath Path) const;
  LatencyHistogram commitLatency() const;

  /// Total operations clocked into the latency histograms.
  uint64_t latencySamplesTotal() const;

  const TraceRing &trace() const { return Ring; }
  const AnomalyLog &anomalies() const { return Anomalies; }

private:
  ObservabilityOptions Opts;
  /// Tick mask: SamplePeriod-1, or ~0 (fires every 2^64 ticks, i.e.
  /// never) when sampling is disabled.
  uint64_t SampleMask;
  ShardedLatencyHistogram PathLatency[NumQueryPaths][3];
  ShardedLatencyHistogram CommitNanos;
  TraceRing Ring;
  AnomalyLog Anomalies;
};

/// One row of the metric catalog: the self-description metricsText()
/// and metricsJson() render from. StatField names the ServiceStats
/// field the value comes from - the docs-consistency check
/// (tests/tools/check_docs.py) holds catalog, header, and
/// docs/OBSERVABILITY.md to the same field set.
struct MetricDesc {
  enum class Kind : uint8_t { Counter, Gauge };
  const char *PromName;  ///< e.g. "memlook_commits_total"
  const char *StatField; ///< e.g. "Commits"
  Kind K;
  const char *Help;
  uint64_t (*Get)(const ServiceStats &);
};

/// The full counter/gauge catalog over ServiceStats (histograms are
/// exposed separately - they are not single scalars).
std::span<const MetricDesc> serviceMetricCatalog();

} // namespace service
} // namespace memlook

#endif // MEMLOOK_SERVICE_OBSERVABILITY_H
