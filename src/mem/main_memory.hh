/**
 * @file
 * Main-memory timing model with a single contended channel.
 *
 * Table 1: the first 8-byte chunk of a block arrives after 260 cycles
 * (258 in the pure-private configuration, where the request skips the
 * sharing interconnect), subsequent chunks every 4 cycles; with 64 B
 * blocks that is 2 B/cycle, the paper's 9 GB/s at 4.5 GHz. Congestion
 * is modeled by serializing block fetches on the channel: a fetch
 * occupies the channel for a full block-transfer slot and later
 * fetches queue behind it. Writebacks are absorbed by a write buffer
 * and drained in otherwise-idle slots, so they never delay demand
 * fetches (they are counted for bandwidth accounting). Modeling them
 * as head-of-line FIFO entries would be wrong twice over: real
 * controllers prioritize reads, and evictions are timestamped at
 * fill-completion time, which a single busy-until pointer would turn
 * into a future reservation blocking earlier arrivals.
 */

#ifndef NUCA_MEM_MAIN_MEMORY_HH
#define NUCA_MEM_MAIN_MEMORY_HH

#include <string>

#include "base/stats.hh"
#include "base/types.hh"

namespace nuca {

/** Timing parameters for the memory channel. */
struct MainMemoryParams
{
    /** Latency to the first (critical) chunk, in cycles. */
    Cycle firstChunkLatency = 260;
    /** Cycles between subsequent chunks. */
    Cycle interChunkLatency = 4;
    /** Chunk size in bytes. */
    unsigned chunkBytes = 8;
};

/** The off-chip memory channel shared by all cores. */
class MainMemory
{
  public:
    MainMemory(stats::Group &parent, const std::string &name,
               const MainMemoryParams &params);

    /**
     * Fetch the block containing @p addr, queuing behind earlier
     * transfers.
     *
     * @param now cycle the request reaches the channel
     * @return cycle the critical chunk is available
     */
    Cycle fetchBlock(Addr addr, Cycle now);

    /**
     * Write a dirty block back to memory. Enters the write buffer;
     * drained in idle slots, so it delays nothing (bandwidth is
     * accounted in the writebacks() statistic).
     */
    void writebackBlock(Addr addr, Cycle now);

    /** Cycles a block transfer occupies the channel. */
    Cycle transferSlot() const { return transferSlot_; }

    /** Cycle until which the channel is busy (for tests). */
    Cycle busyUntil() const { return busyUntil_; }

    /**
     * Fault injection: hold the channel busy until @p until, so every
     * fetch queues behind a transfer that never finishes. Exercises
     * the forward-progress watchdog.
     */
    void injectChannelStall(Cycle until);

    Counter fetches() const { return fetches_.value(); }
    Counter writebacks() const { return writebacks_.value(); }

    /** Total cycles requests spent queued behind the channel. */
    Counter queueCycles() const { return queueCycles_.value(); }

    /** Checkpoint the channel occupancy. */
    void checkpoint(Serializer &s) const;
    /** Restore a checkpoint written by checkpoint(). */
    void restore(Deserializer &d);

  private:
    /** Claim the channel; @return the slot start cycle. */
    Cycle claimChannel(Cycle now);

    MainMemoryParams params_;
    Cycle transferSlot_;
    Cycle busyUntil_ = 0;

    stats::Group statsGroup_;
    stats::Scalar fetches_;
    stats::Scalar writebacks_;
    stats::Scalar queueCycles_;
};

} // namespace nuca

#endif // NUCA_MEM_MAIN_MEMORY_HH
