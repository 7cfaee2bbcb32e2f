#include "sim/experiment.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <memory>

#include "base/logging.hh"
#include "base/profiler.hh"
#include "base/random.hh"
#include "serialize/checkpoint_io.hh"
#include "sim/checkpoint.hh"
#include "sim/cmp_system.hh"
#include "sim/robustness.hh"
#include "sim/telemetry.hh"
#include "workload/spec_profiles.hh"

namespace nuca {

std::uint64_t
envOr(const char *name, std::uint64_t def)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return def;
    // strtoull silently wraps negative input ("-1" parses to
    // 2^64-1, which once sent a sweep off to run 18 quintillion
    // mixes) and saturates on overflow; reject both explicitly.
    const char *digits = value;
    while (std::isspace(static_cast<unsigned char>(*digits)))
        ++digits;
    fatal_if(*digits == '-', "environment variable ", name,
             " must be non-negative: '", value, "'");
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(digits, &end, 10);
    fatal_if(end == digits || *end != '\0',
             "environment variable ", name,
             " is not a number: '", value, "'");
    fatal_if(errno == ERANGE, "environment variable ", name,
             " overflows 64 bits: '", value, "'");
    return parsed;
}

std::string
envString(const char *name)
{
    const char *value = std::getenv(name);
    return value == nullptr ? std::string() : std::string(value);
}

SimWindow
SimWindow::fromEnv(Cycle warmup_default, Cycle measure_default)
{
    SimWindow w;
    w.warmupCycles = envOr("REPRO_WARMUP_CYCLES", warmup_default);
    w.measureCycles = envOr("REPRO_MEASURE_CYCLES", measure_default);
    return w;
}

std::vector<ExperimentSpec>
makeMixes(const std::vector<std::string> &pool, unsigned count,
          unsigned apps_per_mix, std::uint64_t seed)
{
    fatal_if(pool.empty(), "empty benchmark pool");
    Rng rng(seed);
    std::vector<ExperimentSpec> mixes;
    mixes.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        ExperimentSpec spec;
        spec.apps.reserve(apps_per_mix);
        for (unsigned a = 0; a < apps_per_mix; ++a)
            spec.apps.push_back(pool[rng.below(pool.size())]);
        // The per-mix seed models each application's random
        // fast-forward of 0.5-1.5 G instructions.
        spec.seed = rng.next();
        mixes.push_back(std::move(spec));
    }
    return mixes;
}

RunPolicy
RunPolicy::fromEnv()
{
    RunPolicy policy;
    policy.ckpt = CheckpointConfig::fromEnv();
    policy.resume = resumeFromEnv();
    return policy;
}

MixResult
runMix(const SystemConfig &config, const ExperimentSpec &spec,
       const SimWindow &window)
{
    return runMix(config, spec, window, std::string());
}

MixResult
runMix(const SystemConfig &config, const ExperimentSpec &spec,
       const SimWindow &window, const std::string &trace_label)
{
    return runMix(config, spec, window, trace_label,
                  RunPolicy::fromEnv());
}

MixResult
runMix(const SystemConfig &config, const ExperimentSpec &spec,
       const SimWindow &window, const std::string &trace_label,
       const RunPolicy &policy)
{
    // Every experiment harness funnels through here, so this is
    // where REPRO_PROFILE arms the self-profiler (idempotent; costs
    // one static check per experiment).
    prof::initFromEnv();

    std::vector<WorkloadProfile> apps;
    apps.reserve(spec.apps.size());
    for (const auto &name : spec.apps)
        apps.push_back(specProfile(name));

    auto system =
        std::make_unique<CmpSystem>(config, apps, spec.seed);

    // Content-addressed checkpoint cache: restore a matching mid-run
    // snapshot (REPRO_RESUME=1 after a killed sweep) or warmup
    // artifact instead of re-simulating it. With the directory unset
    // every branch below is dead and the run proceeds exactly as it
    // always has.
    const auto &ckpt = policy.ckpt;
    const std::uint64_t hash =
        ckpt.enabled() ? configHash(config) : 0;
    const std::string warmFile =
        ckpt.enabled()
            ? warmupPath(ckpt, warmupKey(config, spec.apps,
                                         spec.seed,
                                         window.warmupCycles))
            : std::string();
    const std::string runFile =
        ckpt.enabled()
            ? runPath(ckpt, runKey(config, spec.apps, spec.seed,
                                   window.warmupCycles,
                                   window.measureCycles))
            : std::string();

    // A payload that fails to decode mid-restore (format drift the
    // version check missed) leaves partial state behind; rebuild the
    // system so the from-scratch fallback starts clean.
    const auto restoreOrRebuild = [&](const std::string &path) {
        if (!checkpointFileExists(path))
            return false;
        if (tryRestoreCheckpoint(*system, path, hash))
            return true;
        system = std::make_unique<CmpSystem>(config, apps,
                                             spec.seed);
        return false;
    };

    bool restoredMid = false;
    bool restoredWarm = false;
    if (ckpt.enabled()) {
        if (policy.resume)
            restoredMid = restoreOrRebuild(runFile);
        if (!restoredMid)
            restoredWarm = restoreOrRebuild(warmFile);
    }

    const auto trace = attachTelemetryFromEnv(*system, trace_label);

    if (!restoredMid) {
        if (!restoredWarm) {
            system->run(window.warmupCycles);
            if (ckpt.enabled()) {
                saveCheckpoint(*system, warmFile, hash);
                pruneCheckpointDir(ckpt);
            }
        }
        system->resetStats();
    }

    const Cycle end = window.warmupCycles + window.measureCycles;
    if (ckpt.enabled() && ckpt.period != 0) {
        // Measure in period-sized chunks, snapshotting between them
        // so a killed job restarts from its last chunk boundary. The
        // artifact only covers the measurement window: the warmup is
        // already backed by its own artifact above.
        while (system->now() < end) {
            const Cycle step =
                std::min<Cycle>(ckpt.period, end - system->now());
            system->run(step);
            if (system->now() >= end)
                break;
            saveCheckpoint(*system, runFile, hash);
        }
        removeCheckpoint(runFile);
        pruneCheckpointDir(ckpt);
    } else if (system->now() < end) {
        system->run(end - system->now());
    }

    MixResult result;
    result.ipc = system->ipcs();
    result.l3AccessesPerKilocycle.reserve(system->numCores());
    for (unsigned c = 0; c < system->numCores(); ++c) {
        result.l3AccessesPerKilocycle.push_back(
            system->l3AccessesPerKilocycle(static_cast<CoreId>(c)));
    }
    return result;
}

} // namespace nuca
