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

#include <string>
#include <vector>

#include "base/types.hh"
#include "sim/checkpoint.hh"
#include "sim/system_config.hh"

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

/** Simulation window lengths. */
struct SimWindow
{
    Cycle warmupCycles;
    Cycle measureCycles;

    /**
     * Defaults scaled for interactive runs, overridable through the
     * REPRO_WARMUP_CYCLES / REPRO_MEASURE_CYCLES environment
     * variables (the paper simulates 200 M cycles per experiment;
     * that is reachable by setting the variables accordingly).
     */
    static SimWindow fromEnv(Cycle warmup_default = 200000,
                             Cycle measure_default = 1000000);
};

/** Read an unsigned environment override, or the default. */
std::uint64_t envOr(const char *name, std::uint64_t def);

/** Raw environment string, or empty when unset. */
std::string envString(const char *name);

/**
 * Draw @p count random 4-app mixes (with replacement, like the
 * paper's random selection) from @p pool.
 */
std::vector<ExperimentSpec>
makeMixes(const std::vector<std::string> &pool, unsigned count,
          unsigned apps_per_mix, std::uint64_t seed);

/**
 * Explicit per-run policy for checkpointing and resume. The classic
 * runMix overloads build one from the environment; a caller that
 * runs concurrent jobs against different checkpoint directories
 * passes its own instead, since the environment is process-global.
 */
struct RunPolicy
{
    /** Checkpoint cache + snapshot period for this run. */
    CheckpointConfig ckpt;
    /** Consume a matching mid-run snapshot when one exists. */
    bool resume = false;

    /** REPRO_CKPT_DIR / REPRO_CKPT_PERIOD / REPRO_RESUME. */
    static RunPolicy fromEnv();
};

/** Run one mix on one configuration. */
MixResult runMix(const SystemConfig &config,
                 const ExperimentSpec &spec, const SimWindow &window);

/**
 * As above, but when REPRO_TRACE is set the run is traced to the
 * label-derived file tracePathFor(REPRO_TRACE, trace_label) — one
 * file per experiment, so parallel sweeps never share a writer. An
 * empty label traces to the REPRO_TRACE path itself. Tracing never
 * changes the simulated results.
 */
MixResult runMix(const SystemConfig &config,
                 const ExperimentSpec &spec, const SimWindow &window,
                 const std::string &trace_label);

/**
 * The fully explicit form: checkpointing and resume come from
 * @p policy instead of the environment. A run killed after a mid-run
 * snapshot and called again with the same policy (resume set)
 * restores it and continues, producing a result bit-identical to an
 * uninterrupted run.
 */
MixResult runMix(const SystemConfig &config,
                 const ExperimentSpec &spec, const SimWindow &window,
                 const std::string &trace_label,
                 const RunPolicy &policy);

} // namespace nuca

#endif // NUCA_SIM_EXPERIMENT_HH
