//===- memlook/support/ShardedCounters.h - Sharded counters -----*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Monotone event counters sharded across cache-line-padded slots.
///
/// A single std::atomic counter bumped by every reader thread turns the
/// service's query path into a cache-line ping-pong: each increment
/// steals the line from whichever core incremented last, so counting
/// costs more than the O(1) table probe being counted and throughput
/// stops scaling with reader threads. Sharding fixes the common case:
/// each thread is assigned one of NumShards cache-line-aligned shards
/// (round-robin at first use), increments stay within that line, and
/// only total() walks all shards.
///
/// Increments remain atomic (relaxed) because shard assignment is
/// pigeonholed - more threads than shards means two threads legally
/// share a slot - but the *contended* case becomes rare instead of
/// universal. Totals are monotone and eventually consistent: total()
/// sums per-shard relaxed loads, so a concurrent reader can observe
/// counter A's newest increment while missing counter B's (there is no
/// cross-counter snapshot). That is the same racy-totals contract
/// ServiceStats always had, now per shard.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_SUPPORT_SHARDEDCOUNTERS_H
#define MEMLOOK_SUPPORT_SHARDEDCOUNTERS_H

#include "memlook/support/ThreadShard.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace memlook {

/// \p NumCounters monotone uint64 counters, sharded NumShards ways.
/// Shards are assigned per *thread*, not per instance (threadShardIndex):
/// a thread uses the same shard index in every ShardedCounters it
/// touches, which keeps the assignment a single thread_local and costs
/// nothing in distribution.
template <size_t NumCounters> class ShardedCounters {
public:
  static constexpr size_t NumShards = 16;
  static_assert((NumShards & (NumShards - 1)) == 0,
                "shard index is computed by mask");

  /// Adds \p Delta to counter \p Counter on the calling thread's shard.
  void add(size_t Counter, uint64_t Delta = 1) {
    assert(Counter < NumCounters && "counter index out of range");
    Shards[threadShardIndex(NumShards)].Slots[Counter].fetch_add(
        Delta, std::memory_order_relaxed);
  }

  /// The eventually-consistent total of counter \p Counter across all
  /// shards. Monotone per counter; no cross-counter atomicity.
  uint64_t total(size_t Counter) const {
    assert(Counter < NumCounters && "counter index out of range");
    uint64_t Sum = 0;
    for (const Shard &S : Shards)
      Sum += S.Slots[Counter].load(std::memory_order_relaxed);
    return Sum;
  }

private:
  /// One thread's slice: its counters share this line (or run of lines)
  /// and no other thread's line, so uncontended increments never bounce.
  struct alignas(64) Shard {
    std::atomic<uint64_t> Slots[NumCounters] = {};
  };

  Shard Shards[NumShards];
};

} // namespace memlook

#endif // MEMLOOK_SUPPORT_SHARDEDCOUNTERS_H
