/**
 * @file
 * The multiprogrammed experiment methodology of Section 3: draw
 * random 4-application mixes from a benchmark pool, fast-forward
 * each application by a random amount (modeled by seeding the
 * generators), warm the caches, then measure per-core IPC under a
 * given system configuration.
 */

#ifndef NUCA_SIM_EXPERIMENT_HH
#define NUCA_SIM_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "base/types.hh"
#include "sim/checkpoint.hh"
#include "sim/robustness.hh"
#include "sim/system_config.hh"
#include "sim/telemetry.hh"

namespace nuca {

/** One multiprogrammed mix: four application names plus a seed. */
struct ExperimentSpec
{
    std::vector<std::string> apps;
    std::uint64_t seed;
};

/** Per-core results of running one mix on one configuration. */
struct MixResult
{
    std::vector<double> ipc;
    std::vector<double> l3AccessesPerKilocycle;
};

/** Simulation window lengths (see RunOptions::window). */
struct SimWindow
{
    Cycle warmupCycles;
    Cycle measureCycles;
};

/**
 * Draw @p count random 4-app mixes (with replacement, like the
 * paper's random selection) from @p pool.
 */
std::vector<ExperimentSpec>
makeMixes(const std::vector<std::string> &pool, unsigned count,
          unsigned apps_per_mix, std::uint64_t seed);

/**
 * Everything runMix applies to the systems it builds. The default is
 * the plain run: no checkpoint cache, no tracing, the default
 * watchdog, the decoupled scheduler. Binaries take theirs from
 * RunOptions; concurrent jobs may each pass their own.
 */
struct RunPolicy
{
    /** Checkpoint cache + snapshot period for this run. */
    CheckpointConfig ckpt;
    /** Consume a matching mid-run snapshot when one exists. */
    bool resume = false;
    /** JSONL telemetry; traced runs write tracePathFor(path, label). */
    TelemetryConfig telemetry;
    /** Watchdog, invariant checks, cycle budget, simulator faults. */
    RobustnessConfig robustness;
    /** Run loop: the decoupled scheduler, or the reference loop. */
    bool fastForward = true;
};

/** Install @p policy's robustness and run loop on @p system. */
void applyRunPolicy(CmpSystem &system, const RunPolicy &policy);

/**
 * Run one mix on one configuration under @p policy. A traced run
 * writes tracePathFor(policy.telemetry.tracePath, trace_label), one
 * file per experiment; tracing never changes the results. A run
 * killed after a mid-run snapshot and rerun with resume set goes on
 * from it, bit-identical to an uninterrupted run.
 */
MixResult runMix(const SystemConfig &config,
                 const ExperimentSpec &spec, const SimWindow &window,
                 const std::string &trace_label = std::string(),
                 const RunPolicy &policy = RunPolicy{});

/**
 * runMix's simulation, returning the measured system for callers
 * that read more of it than a MixResult holds. Its telemetry sink is
 * already flushed and detached.
 */
std::unique_ptr<CmpSystem>
simulateMix(const SystemConfig &config, const ExperimentSpec &spec,
            const SimWindow &window, const std::string &trace_label,
            const RunPolicy &policy);

} // namespace nuca

#endif // NUCA_SIM_EXPERIMENT_HH
