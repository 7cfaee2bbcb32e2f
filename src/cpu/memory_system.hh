/**
 * @file
 * The per-core private memory hierarchy (Table 1): split L1
 * instruction/data caches (64 KB, 2-way, 2/3 cycles), split L2
 * instruction/data caches (128/256 KB, 4-way, 9 cycles), I/D TLBs
 * (128-entry, 30-cycle miss), in front of the shared last-level
 * cache organization.
 *
 * Timing style: an access walks the hierarchy once at issue time and
 * returns its completion cycle (latency-accumulating, like
 * SimpleScalar's sim-outorder). Tag state updates immediately;
 * overlap limits come from MSHRs (merging + bounded outstanding
 * misses) and the shared memory channel.
 */

#ifndef NUCA_CPU_MEMORY_SYSTEM_HH
#define NUCA_CPU_MEMORY_SYSTEM_HH

#include <memory>
#include <string>

#include "base/stats.hh"
#include "base/types.hh"
#include "cache/cache_level.hh"
#include "cache/stride_prefetcher.hh"
#include "cache/tlb.hh"
#include "nuca/l3_organization.hh"

namespace nuca {
class CoherenceHub;
} // namespace nuca

namespace nuca {

/** Parameters of one core's private hierarchy (defaults: Table 1). */
struct CoreMemoryParams
{
    CacheLevelParams l1i{64ull << 10, 2, 2, 16};
    CacheLevelParams l1d{64ull << 10, 2, 3, 16};
    CacheLevelParams l2i{128ull << 10, 4, 9, 16};
    CacheLevelParams l2d{256ull << 10, 4, 9, 16};
    unsigned tlbEntries = 128;
    Cycle tlbMissPenalty = 30;
    /** Optional L2 stride prefetcher (extension; default off —
     * Table 1 has none). */
    bool enablePrefetcher = false;
    StridePrefetcherParams prefetcher{};
};

/** One core's view of the memory hierarchy. */
class MemorySystem
{
  public:
    MemorySystem(stats::Group &parent, const std::string &name,
                 CoreId core, const CoreMemoryParams &params,
                 L3Organization &l3);

    /**
     * Timed data access (load or store).
     * @param pc the accessing instruction's PC (drives the optional
     *        stride prefetcher; 0 = unknown)
     * @return cycle the data is available (loads) / accepted
     *         (stores).
     */
    Cycle dataAccess(Addr addr, bool is_write, Cycle now,
                     Addr pc = 0);

    /** The optional prefetcher, or nullptr when disabled. */
    StridePrefetcher *prefetcher() { return prefetcher_.get(); }
    /** Prefetches issued to the L2 (extension stat). */
    Counter prefetchesIssued() const
    {
        return prefetchesIssued_.value();
    }

    /** Timed instruction fetch of the block containing @p addr. */
    Cycle instFetch(Addr addr, Cycle now);

    /**
     * Enable coherence: stores broadcast invalidations through the
     * hub (used by the parallel-workload extension).
     */
    void setCoherenceHub(CoherenceHub *hub) { hub_ = hub; }

    /**
     * Coherence callback: a dirty copy of @p addr was invalidated in
     * this core's caches; push it down the L3 writeback path.
     */
    void flushDirtyBlock(Addr addr, Cycle now);

    /** Data accesses that reached the L3 (primary L2D misses). */
    Counter l3DataAccesses() const { return l3DataAccesses_.value(); }
    /** Instruction fetches that reached the L3. */
    Counter l3InstAccesses() const { return l3InstAccesses_.value(); }
    /** L3 misses triggered by this core's data accesses. */
    Counter l3DataMisses() const { return l3DataMisses_.value(); }

    CacheLevel &l1i() { return l1i_; }
    CacheLevel &l1d() { return l1d_; }
    CacheLevel &l2i() { return l2i_; }
    CacheLevel &l2d() { return l2d_; }
    Tlb &dtlb() { return dtlb_; }
    Tlb &itlb() { return itlb_; }

    /** Checkpoint all four cache levels, both TLBs, and the
     * prefetcher when present. */
    void checkpoint(Serializer &s) const;
    /** Restore a checkpoint of an identically configured hierarchy. */
    void restore(Deserializer &d);

  private:
    /**
     * Walk one L1/L2 pair and the shared L3.
     * @return the completion cycle.
     */
    Cycle accessPath(CacheLevel &l1, CacheLevel &l2, MemOp op,
                     Addr addr, Cycle now);

    /** Propagate a dirty block displaced from an L1 into its L2. */
    void handleL1Victim(CacheLevel &l2, const EvictedBlock &victim,
                        Cycle now);

    /** Fetch a predicted block into the L2 (no one waits for it). */
    void issuePrefetch(Addr addr, Cycle now);

    CoreId core_;
    L3Organization &l3_;
    CoherenceHub *hub_ = nullptr;

    stats::Group statsGroup_;
    CacheLevel l1i_;
    CacheLevel l1d_;
    CacheLevel l2i_;
    CacheLevel l2d_;
    Tlb itlb_;
    Tlb dtlb_;
    stats::Scalar l3DataAccesses_;
    stats::Scalar l3InstAccesses_;
    stats::Scalar l3DataMisses_;
    std::unique_ptr<StridePrefetcher> prefetcher_;
    stats::Scalar prefetchesIssued_;
};

} // namespace nuca

#endif // NUCA_CPU_MEMORY_SYSTEM_HH
