/**
 * @file
 * The functional L3 miss-vs-associativity replay behind Figure 3
 * (bench/fig03_miss_curves).
 *
 * An application's reference stream is filtered through functional
 * L1D/L2D caches (Table 1 geometry); the L2 misses probe one
 * standalone L3 tag array per associativity, all in the same pass.
 * Timing is irrelevant to the curve, so the replay is purely
 * functional and fast, and it is bit-deterministic: the same
 * (profile, params) always yields the same counts.
 */

#ifndef NUCA_WORKLOAD_MISS_CURVE_HH
#define NUCA_WORKLOAD_MISS_CURVE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "base/types.hh"
#include "workload/profile.hh"

namespace nuca {

/** Geometry and length of one miss-curve replay (fig03 defaults). */
struct MissCurveParams
{
    unsigned l3Sets = 4096;
    unsigned maxWays = 16;
    /** Instructions replayed (REPRO_FIG3_INSTS in the bench). */
    std::uint64_t insts = 20000000;
    /** SynthWorkload seed; fig03 pins 2024. */
    std::uint64_t seed = 2024;
};

/**
 * Periodic observer: called with the instruction count and the
 * misses-per-way counters accumulated so far. The bench harness
 * hangs its telemetry sink off this.
 */
using MissCurveSampleFn = std::function<void(
    std::uint64_t inst, const std::vector<Counter> &missesPerWay)>;

/**
 * Replay @p profile for params.insts instructions and return the L3
 * miss count per associativity (index w = w+1 ways). When @p sample
 * is set and @p samplePeriod nonzero, it fires every samplePeriod
 * instructions (skipping instruction 0) and once more at the end —
 * the exact cadence fig03's telemetry always had.
 */
std::vector<Counter>
l3MissCurve(const WorkloadProfile &profile,
            const MissCurveParams &params,
            const MissCurveSampleFn &sample = {},
            std::uint64_t samplePeriod = 0);

} // namespace nuca

#endif // NUCA_WORKLOAD_MISS_CURVE_HH
