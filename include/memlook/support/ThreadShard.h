//===- memlook/support/ThreadShard.h - Per-thread shard index ---*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thread -> shard assignment shared by every sharded structure
/// (ShardedCounters, ShardedLatencyHistogram, the service's TraceRing).
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_SUPPORT_THREADSHARD_H
#define MEMLOOK_SUPPORT_THREADSHARD_H

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace memlook {

/// The calling thread's shard among \p NumShards (a power of two). Each
/// thread takes one round-robin ticket from a process-wide counter at
/// its first call and keeps it, so a thread lands on the same slot in
/// every sharded structure it touches and distinct threads spread
/// evenly until there are more threads than shards.
inline size_t threadShardIndex(size_t NumShards) {
  static std::atomic<uint32_t> NextTicket{0};
  thread_local uint32_t Ticket =
      NextTicket.fetch_add(1, std::memory_order_relaxed);
  return Ticket & (NumShards - 1);
}

} // namespace memlook

#endif // MEMLOOK_SUPPORT_THREADSHARD_H
