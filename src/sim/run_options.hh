/**
 * @file
 * RunOptions: every run-time setting of a binary as one value. Its
 * main() builds it once from the REPRO_* environment (fromEnv) and
 * passes it, or the parts it needs, down; no library code reads the
 * environment. Tests build it with parse() from an explicit map. The
 * knobs are tabulated in README.md ("Run options"; a test checks the
 * table against knobNames()).
 */

#ifndef NUCA_SIM_RUN_OPTIONS_HH
#define NUCA_SIM_RUN_OPTIONS_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/proc_pool.hh"

namespace nuca {

/** REPRO_* environment entries, name -> value. */
using EnvMap = std::map<std::string, std::string>;

struct RunOptions
{
    /** What runMix applies to every system it builds. */
    RunPolicy run;
    SweepPolicy sweep;
    ProcIsolation isolate;
    /** Sweep worker threads (REPRO_JOBS); 0 = the hardware's. */
    unsigned jobs = 0;
    /** Sweep results document (REPRO_JSON); empty = none. */
    std::string jsonPath;
    /** fsync every sidecar append (REPRO_SYNC). */
    bool sync = false;
    /** REPRO_WARMUP_CYCLES / REPRO_MEASURE_CYCLES / REPRO_MIXES. */
    std::optional<Cycle> warmupCycles;
    std::optional<Cycle> measureCycles;
    std::optional<unsigned> mixes;
    /** REPRO_PROFILE / REPRO_PROFILE_OUT / REPRO_PERFETTO. */
    bool profile = false;
    std::string profileOut;
    std::string perfettoPath;
    /** The calling binary's own knobs, verbatim (see parse). */
    EnvMap extra;

    /**
     * Build the options from @p env. Malformed values are fatal;
     * REPRO_* names listed in @p extra_names are kept in `extra`, and
     * any other REPRO_* name parse does not read draws one warning
     * that it has no effect.
     */
    static RunOptions parse(const EnvMap &env,
                            const std::vector<std::string>
                                &extra_names = {});

    /**
     * parse() over the process environment, then arm the process-wide
     * observers it asks for (the self-profiler and the Perfetto
     * trace-event log, both written at exit). Call once, from main.
     */
    static RunOptions fromEnv(const std::vector<std::string>
                                  &extra_names = {});

    /** Every knob name parse() reads, sorted. */
    static std::vector<std::string> knobNames();

    /** A figure's window and mix count, overrides applied. */
    SimWindow
    window(Cycle warmup_default, Cycle measure_default) const
    {
        return {warmupCycles.value_or(warmup_default),
                measureCycles.value_or(measure_default)};
    }
    unsigned mixCount(unsigned def) const { return mixes.value_or(def); }
    /** `jobs`, or hardware_concurrency() (at least 1). */
    unsigned workers() const;

    /** Binary knob @p name under the numeric-knob rules, or @p def. */
    std::uint64_t extraNumber(const std::string &name,
                              std::uint64_t def) const;
    /** Binary knob @p name verbatim, or @p def when unset or empty. */
    std::string extraString(const std::string &name,
                            const std::string &def) const;
};

} // namespace nuca

#endif // NUCA_SIM_RUN_OPTIONS_HH
