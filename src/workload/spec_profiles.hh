/**
 * @file
 * Synthetic stand-ins for the SPEC CPU2000 applications the paper
 * evaluates (all of SPEC2000 except vortex and sixtrack, which the
 * authors had to exclude too).
 *
 * Each profile is calibrated against two published observables the
 * paper's results hinge on:
 *  - the miss-vs-ways curve of the last-level cache (Figure 3):
 *    which applications saturate at 1, 4 or 16 ways per set;
 *  - the last-level-cache access intensity (Figure 5): which
 *    applications exceed ~9 data accesses per kilocycle and are
 *    therefore "LLC intensive".
 *
 * The absolute IPCs are synthetic; the *relative* behaviour (who is
 * cache-hungry, who streams, who fits in L2) follows the published
 * characteristics of the suite.
 */

#ifndef NUCA_WORKLOAD_SPEC_PROFILES_HH
#define NUCA_WORKLOAD_SPEC_PROFILES_HH

#include <string>
#include <vector>

#include "workload/profile.hh"

namespace nuca {

/** All 24 profiles, in a stable order. */
const std::vector<WorkloadProfile> &specProfiles();

/** Look up a profile by name ("idle" resolves to idleProfile());
 *  fatal() if unknown. */
const WorkloadProfile &specProfile(const std::string &name);

/** Names of the LLC-intensive subset (paper Section 4.1). */
std::vector<std::string> llcIntensiveNames();

/** Names of every profile. */
std::vector<std::string> allProfileNames();

/**
 * A compute-only spinner that never touches the memory hierarchy
 * beyond its (tiny) code and stack. Used as the companion workload
 * when characterizing a single application without interference
 * (Figures 3 and 5).
 */
const WorkloadProfile &idleProfile();

/**
 * Compute-bound core of the performance benchmarks: a small,
 * cache-resident working set and a mostly-ALU stream, so the core
 * is busy nearly every cycle and the per-tick cost of the core and
 * cache fast paths dominates.
 */
const WorkloadProfile &computeBoundProfile();

/**
 * Pointer-chase core of the performance benchmarks: nearly every
 * load depends on the previous one, over 64 MB of random lines, so
 * the core mostly waits on memory.
 */
const WorkloadProfile &pointerChaseProfile();

} // namespace nuca

#endif // NUCA_WORKLOAD_SPEC_PROFILES_HH
