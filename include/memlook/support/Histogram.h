//===- memlook/support/Histogram.h - Latency histograms ---------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-bucket latency histograms for the service's observability
/// layer: a plain merge-able value type (LatencyHistogram) and a
/// lock-free sharded recorder (ShardedLatencyHistogram) reusing the
/// ShardedCounters discipline.
///
/// Bucketing is HDR-style log2-with-sub-buckets: each power-of-two
/// octave is split into SubBucketCount linear sub-buckets, so relative
/// resolution is bounded by 1/SubBucketCount (12.5%) everywhere instead
/// of the factor-of-2 a pure log2 histogram gives. That is what lets a
/// percentile read off the histogram agree with a sampled-reservoir
/// percentile within the bench harness's 15% tolerance. Values below
/// SubBucketCount get exact unit buckets; values above the top octave
/// clamp into the last bucket (2^37 ns is ~137 s - nothing the service
/// does legitimately takes longer).
///
/// The recorder shards bucket counters across cache-line-aligned slabs
/// exactly like ShardedCounters: each thread is round-robin-assigned a
/// shard at first use, a record() is a handful of relaxed fetch_adds
/// confined to that shard, and only snapshot() walks all shards.
/// Totals are monotone and eventually consistent - the same
/// racy-totals contract ServiceStats has always had.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_SUPPORT_HISTOGRAM_H
#define MEMLOOK_SUPPORT_HISTOGRAM_H

#include "memlook/support/ThreadShard.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace memlook {

/// A plain, copyable, merge-able histogram value: what snapshot(),
/// diffSince(), and the exposition layer traffic in. All arithmetic is
/// on uint64_t nanoseconds, but nothing here is latency-specific.
class LatencyHistogram {
public:
  /// Sub-buckets per power-of-two octave (8 -> <= 12.5% resolution).
  static constexpr uint32_t SubBucketBits = 3;
  static constexpr uint32_t SubBucketCount = 1u << SubBucketBits;
  /// Largest distinguished exponent: values >= 2^(MaxExponent+1) clamp
  /// into the final bucket.
  static constexpr uint32_t MaxExponent = 37;
  /// [0, SubBucketCount) exact unit buckets, then SubBucketCount
  /// per octave for octaves SubBucketBits..MaxExponent.
  static constexpr uint32_t NumBuckets =
      SubBucketCount + (MaxExponent - SubBucketBits + 1) * SubBucketCount;

  /// Bucket index for a value; total over all values of the clamp.
  static constexpr uint32_t bucketOf(uint64_t Value) {
    if (Value < SubBucketCount)
      return static_cast<uint32_t>(Value);
    uint32_t Msb = 63 - static_cast<uint32_t>(std::countl_zero(Value));
    if (Msb > MaxExponent)
      return NumBuckets - 1;
    uint32_t Sub = static_cast<uint32_t>(Value >> (Msb - SubBucketBits)) &
                   (SubBucketCount - 1);
    return SubBucketCount + (Msb - SubBucketBits) * SubBucketCount + Sub;
  }

  /// Smallest value mapping to bucket \p Idx.
  static constexpr uint64_t bucketLow(uint32_t Idx) {
    assert(Idx < NumBuckets && "bucket index out of range");
    if (Idx < SubBucketCount)
      return Idx;
    uint32_t Rel = Idx - SubBucketCount;
    uint32_t Msb = SubBucketBits + Rel / SubBucketCount;
    uint32_t Sub = Rel % SubBucketCount;
    return (uint64_t(1) << Msb) |
           (uint64_t(Sub) << (Msb - SubBucketBits));
  }

  /// One past the largest value mapping to bucket \p Idx (the last
  /// bucket reports the end of its lowest octave-width span; values
  /// beyond it were clamped).
  static constexpr uint64_t bucketHigh(uint32_t Idx) {
    assert(Idx < NumBuckets && "bucket index out of range");
    if (Idx + 1 < NumBuckets)
      return bucketLow(Idx + 1);
    return uint64_t(1) << (MaxExponent + 1);
  }

  void record(uint64_t Value) {
    ++Counts[bucketOf(Value)];
    ++NumSamples;
    SumValues += Value;
    MaxSeen = std::max(MaxSeen, Value);
  }

  /// Elementwise sum: recording two streams separately and merging is
  /// identical to recording their concatenation.
  void merge(const LatencyHistogram &Other) {
    for (uint32_t I = 0; I != NumBuckets; ++I)
      Counts[I] += Other.Counts[I];
    NumSamples += Other.NumSamples;
    SumValues += Other.SumValues;
    MaxSeen = std::max(MaxSeen, Other.MaxSeen);
  }

  /// Elementwise difference against an earlier snapshot of the same
  /// monotone recorder: the histogram of everything recorded in
  /// between. MaxSeen cannot be windowed (a maximum is not
  /// subtractable), so the diff keeps this snapshot's - an
  /// overestimate for the window, never an underestimate.
  LatencyHistogram diffSince(const LatencyHistogram &Earlier) const {
    LatencyHistogram D;
    for (uint32_t I = 0; I != NumBuckets; ++I) {
      assert(Counts[I] >= Earlier.Counts[I] && "diff against a later snapshot");
      D.Counts[I] = Counts[I] - Earlier.Counts[I];
    }
    D.NumSamples = NumSamples - Earlier.NumSamples;
    D.SumValues = SumValues - Earlier.SumValues;
    D.MaxSeen = MaxSeen;
    return D;
  }

  uint64_t count() const { return NumSamples; }
  uint64_t sum() const { return SumValues; }
  uint64_t maxSeen() const { return MaxSeen; }
  uint64_t bucketCount(uint32_t Idx) const {
    assert(Idx < NumBuckets && "bucket index out of range");
    return Counts[Idx];
  }
  double mean() const {
    return NumSamples ? double(SumValues) / double(NumSamples) : 0.0;
  }

  /// Nearest-rank percentile (\p P in [0,100]) with linear
  /// interpolation inside the winning bucket, clamped to the recorded
  /// maximum. Empty histogram: 0. The estimate always lands within the
  /// bucket holding the true nearest-rank sample, so its relative
  /// error is bounded by that bucket's width (<= 12.5% above
  /// SubBucketCount).
  double percentile(double P) const {
    if (NumSamples == 0)
      return 0.0;
    P = std::clamp(P, 0.0, 100.0);
    uint64_t Rank = static_cast<uint64_t>(P / 100.0 * double(NumSamples));
    Rank = std::clamp<uint64_t>(Rank, 1, NumSamples);
    uint64_t Cum = 0;
    for (uint32_t I = 0; I != NumBuckets; ++I) {
      if (Counts[I] == 0)
        continue;
      if (Cum + Counts[I] >= Rank) {
        double Frac = double(Rank - Cum) / double(Counts[I]);
        double Low = double(bucketLow(I));
        double High = double(bucketHigh(I));
        return std::min(Low + Frac * (High - Low), double(MaxSeen));
      }
      Cum += Counts[I];
    }
    return double(MaxSeen);
  }

private:
  friend class ShardedLatencyHistogram;
  uint64_t Counts[NumBuckets] = {};
  uint64_t NumSamples = 0;
  uint64_t SumValues = 0;
  uint64_t MaxSeen = 0;
};

/// The lock-free concurrent recorder: per-thread bucket shards with
/// relaxed atomics, merged on demand into a LatencyHistogram value.
/// record() is wait-free and touches only the calling thread's
/// assigned shard - the callers in the service have already paid for a
/// clock read (they are the 1-in-N sampled operations), so the
/// recorder itself must cost no more than the sharded stat counters
/// next to it.
class ShardedLatencyHistogram {
public:
  /// Fewer shards than ShardedCounters' 16: a histogram shard is a
  /// multi-KB slab rather than one cache line, and the record path is
  /// pre-sampled so collisions are already rare.
  static constexpr size_t NumShards = 8;
  static_assert((NumShards & (NumShards - 1)) == 0,
                "shard masking requires a power of two");

  void record(uint64_t Value) {
    Shard &S = Shards[threadShardIndex(NumShards)];
    S.Counts[LatencyHistogram::bucketOf(Value)].fetch_add(
        1, std::memory_order_relaxed);
    S.NumSamples.fetch_add(1, std::memory_order_relaxed);
    S.SumValues.fetch_add(Value, std::memory_order_relaxed);
    // Racy max: losing a CAS to a larger value is success.
    uint64_t Seen = S.MaxSeen.load(std::memory_order_relaxed);
    while (Seen < Value && !S.MaxSeen.compare_exchange_weak(
                               Seen, Value, std::memory_order_relaxed))
      ;
  }

  /// Merged value snapshot: per-bucket relaxed loads summed across
  /// shards. Eventually consistent like ShardedCounters::total() - a
  /// concurrent record() may be half-visible (bucket bumped, sum not
  /// yet), which a later snapshot repairs.
  LatencyHistogram snapshot() const {
    LatencyHistogram Out;
    for (const Shard &S : Shards) {
      for (uint32_t I = 0; I != LatencyHistogram::NumBuckets; ++I)
        Out.Counts[I] += S.Counts[I].load(std::memory_order_relaxed);
      Out.NumSamples += S.NumSamples.load(std::memory_order_relaxed);
      Out.SumValues += S.SumValues.load(std::memory_order_relaxed);
      Out.MaxSeen = std::max(Out.MaxSeen,
                             S.MaxSeen.load(std::memory_order_relaxed));
    }
    return Out;
  }

  /// Sampled operations recorded so far (sum over shards, relaxed).
  uint64_t countTotal() const {
    uint64_t N = 0;
    for (const Shard &S : Shards)
      N += S.NumSamples.load(std::memory_order_relaxed);
    return N;
  }

private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> Counts[LatencyHistogram::NumBuckets] = {};
    std::atomic<uint64_t> NumSamples{0};
    std::atomic<uint64_t> SumValues{0};
    std::atomic<uint64_t> MaxSeen{0};
  };
  Shard Shards[NumShards];
};

} // namespace memlook

#endif // MEMLOOK_SUPPORT_HISTOGRAM_H
