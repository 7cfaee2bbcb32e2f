/**
 * @file
 * perf_bench: the host-performance trajectory for the skipping run
 * loop (docs/PERFORMANCE.md). Runs three fixed mixes under every
 * L3 scheme through both run loops — the cycle-by-cycle reference
 * loop and the decoupled per-core event scheduler (the default; the
 * "fastforward" rows) — and writes BENCH_perf.json with wall
 * seconds, simulated kilocycles per second, committed MIPS, per-core
 * executed-tick fractions, the decoupled scheduler's batch-span
 * histogram, and the measured speedup. Every row also asserts the
 * two runs produced bit-identical stats dumps and checkpoint bytes;
 * a mismatch fails the benchmark (exit 1), which is what lets CI gate
 * on loop equivalence without a separate harness. CI uploads the file
 * and fails when throughput regresses >20% against the committed
 * baseline or a per-mix speedup floor is missed.
 *
 * Mixes:
 *  - "pchase_latency": four pointer-chasing cores with ~1 MSHR of
 *    memory-level parallelism each under the Figure 10 scaled-tech
 *    configuration (330-cycle memory). Serialized misses put the
 *    whole machine to sleep for full memory round trips — the
 *    workload class the fast-forward exists for, and the mix the
 *    >=1.3x acceptance criterion is measured on.
 *  - "spec_memory": mcf/art/swim/equake under the baseline
 *    configuration. Memory-bound by SPEC standards but with enough
 *    overlap that some core almost always has work; reported so the
 *    modest speedup on realistic mixes is on record next to the
 *    latency-bound headline.
 *  - "compute_bound": four cache-resident ALU-heavy cores under the
 *    baseline configuration. Almost no cycle is skippable, so this
 *    mix times the busy-core tick path itself — the issue/commit/
 *    cache hot loops — and catches regressions the stall-dominated
 *    mixes hide behind fast-forward jumps.
 *
 * Environment: REPRO_BENCH_CYCLES (per pchase run, default 8M),
 * REPRO_BENCH_SPEC_CYCLES (per spec run, default 2M),
 * REPRO_BENCH_COMPUTE_CYCLES (per compute run, default 2M),
 * REPRO_BENCH_OUT (output path, default BENCH_perf.json).
 *
 * Observability: REPRO_PROFILE=1 turns on the host self-profiler for
 * the timed runs; its hierarchical report lands on stderr at exit and
 * a "profile" section (plus a dedicated profiler-overhead measurement
 * on the compute_bound mix) is folded into the JSON document.
 * REPRO_PERFETTO=<path> exports the benched systems' simulated-time
 * events as a Chrome trace.
 */

#include <sys/utsname.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "base/profiler.hh"
#include "serialize/serializer.hh"
#include "sim/cmp_system.hh"
#include "sim/experiment.hh"
#include "sim/json_writer.hh"
#include "sim/trace_event.hh"
#include "workload/spec_profiles.hh"

namespace {

using namespace nuca;

/** Pointer-chase latency mix: every load depends on the previous. */
WorkloadProfile
pchaseProfile()
{
    WorkloadProfile p;
    p.name = "pchase";
    p.loadFrac = 0.40;
    p.storeFrac = 0.02;
    p.branchFrac = 0.08;
    p.meanDepDist = 3.0;
    p.loadChainFrac = 0.95;
    p.codeFootprintBytes = 8ull << 10;
    p.regions = {MemRegion{64ull << 20, 1.0, RegionPattern::Random}};
    p.llcIntensive = true;
    return p;
}

/**
 * Compute-bound mix: a small, cache-resident working set and a
 * mostly-ALU instruction stream. The cores stay busy nearly every
 * cycle, so the benchmark measures the per-tick cost of the core
 * and cache fast paths rather than the fast-forward machinery.
 */
WorkloadProfile
computeProfile()
{
    WorkloadProfile p;
    p.name = "compute";
    p.loadFrac = 0.20;
    p.storeFrac = 0.08;
    p.branchFrac = 0.15;
    p.fpFrac = 0.30;
    p.mulDivFrac = 0.05;
    p.meanDepDist = 16.0;
    p.loadChainFrac = 0.0;
    p.codeFootprintBytes = 16ull << 10;
    // 48 KB of high-locality data: lives in the 64 KB L1D, so the
    // memory system resolves almost everything at hit latency.
    p.regions = {MemRegion{48ull << 10, 1.0, RegionPattern::Cyclic}};
    p.llcIntensive = false;
    return p;
}

/** The two run loops a row is timed under. */
enum class LoopMode { Reference, Decoupled };

struct RunResult
{
    double wallSeconds = 0.0;
    double kcyclesPerSec = 0.0;
    double mips = 0.0;
    double skippedFrac = 0.0;
    std::uint64_t jumps = 0;
    /** Fraction of the window each core actually ticked. */
    std::vector<double> coreTickFrac;
    /** Decoupled advance-batch span histogram (bit_width buckets). */
    std::vector<Counter> horizonHist;
    /** End-of-run observables for the loop-equivalence assert. */
    std::string stats;
    std::vector<std::uint8_t> machine;
};

RunResult
timeRun(const SystemConfig &config,
        const std::vector<WorkloadProfile> &apps, LoopMode mode,
        Cycle cycles, const std::string &label)
{
    // A zero-cycle window would divide by zero below and report NaN
    // throughput, which JSON cannot even represent; it can only come
    // from a bad REPRO_BENCH_*_CYCLES override, so refuse loudly.
    panic_if(cycles == 0, "perf_bench run with a zero-cycle window");
    CmpSystem system(config, apps, /*seed=*/20070201);
    system.setFastForward(mode == LoopMode::Decoupled);
    TraceEventLog &events = traceEventsFromEnv();
    if (events.enabled())
        system.attachTraceEvents(&events, label);

    const auto start = std::chrono::steady_clock::now();
    system.run(cycles);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;

    Counter committed = 0;
    for (unsigned c = 0; c < system.numCores(); ++c)
        committed += system.coreAt(static_cast<CoreId>(c)).committed();

    RunResult r;
    r.wallSeconds = wall.count();
    r.kcyclesPerSec =
        static_cast<double>(cycles) / 1000.0 / r.wallSeconds;
    r.mips = static_cast<double>(committed) / 1e6 / r.wallSeconds;
    r.skippedFrac = static_cast<double>(system.fastForwardedCycles()) /
                    static_cast<double>(cycles);
    r.jumps = system.fastForwardJumps();
    for (unsigned c = 0; c < system.numCores(); ++c) {
        r.coreTickFrac.push_back(
            static_cast<double>(
                system.coreTicksExecuted(static_cast<CoreId>(c))) /
            static_cast<double>(cycles));
    }
    if (mode == LoopMode::Decoupled)
        r.horizonHist = system.horizonHistogram();

    // Captured outside the timed window: the stats dump and the
    // checkpoint image are what the loop-equivalence check below
    // compares across the two loops.
    std::ostringstream os;
    system.statsRoot().dump(os);
    r.stats = os.str();
    Serializer s;
    system.checkpoint(s);
    r.machine = s.bytes();
    return r;
}

json::Value
runJson(const RunResult &r, LoopMode mode)
{
    json::Value v = json::Value::object();
    v.set("wall_seconds", r.wallSeconds);
    v.set("kcycles_per_sec", r.kcyclesPerSec);
    v.set("mips", r.mips);
    json::Value fracs = json::Value::array();
    for (const double f : r.coreTickFrac)
        fracs.append(f);
    v.set("core_tick_frac", std::move(fracs));
    if (mode == LoopMode::Decoupled) {
        v.set("skipped_frac", r.skippedFrac);
        v.set("jumps", r.jumps);
        // Non-empty buckets of the advance-span histogram: bucket k
        // holds spans in [2^(k-1), 2^k).
        json::Value hist = json::Value::array();
        for (std::size_t k = 1; k < r.horizonHist.size(); ++k) {
            if (r.horizonHist[k] == 0)
                continue;
            json::Value bucket = json::Value::object();
            bucket.set("span_min", std::uint64_t(1) << (k - 1));
            bucket.set("span_max",
                       k >= 64 ? ~std::uint64_t(0)
                               : (std::uint64_t(1) << k) - 1);
            bucket.set("batches", r.horizonHist[k]);
            hist.append(std::move(bucket));
        }
        v.set("horizon_hist", std::move(hist));
    }
    return v;
}

} // namespace

int
main()
{
    prof::initFromEnv();
    const Cycle pchaseCycles = envOr("REPRO_BENCH_CYCLES", 8000000);
    const Cycle specCycles =
        envOr("REPRO_BENCH_SPEC_CYCLES", 2000000);
    const Cycle computeCycles =
        envOr("REPRO_BENCH_COMPUTE_CYCLES", 2000000);
    const char *outEnv = std::getenv("REPRO_BENCH_OUT");
    const std::string outPath =
        outEnv && *outEnv ? outEnv : "BENCH_perf.json";

    const std::vector<WorkloadProfile> pchaseMix(4, pchaseProfile());
    const std::vector<WorkloadProfile> specMix = {
        specProfile("mcf"), specProfile("art"), specProfile("swim"),
        specProfile("equake")};
    const std::vector<WorkloadProfile> computeMix(4,
                                                  computeProfile());

    struct MixSpec
    {
        const char *name;
        const char *configName;
        const std::vector<WorkloadProfile> *apps;
        Cycle cycles;
        bool criterion; // counts toward the headline min speedup
    };
    const MixSpec mixSpecs[] = {
        {"pchase_latency", "scaledTech", &pchaseMix, pchaseCycles,
         true},
        {"spec_memory", "baseline", &specMix, specCycles, false},
        {"compute_bound", "baseline", &computeMix, computeCycles,
         false},
    };
    const L3Scheme schemes[] = {L3Scheme::Private, L3Scheme::Shared,
                                L3Scheme::Adaptive,
                                L3Scheme::RandomReplacement};

    json::Value mixes = json::Value::array();
    double minCriterionSpeedup = 0.0;
    double minSpecSpeedup = 0.0;
    bool firstCriterion = true;
    bool firstSpec = true;
    bool allBitIdentical = true;
    for (const auto &spec : mixSpecs) {
        for (const auto scheme : schemes) {
            const SystemConfig config =
                std::string(spec.configName) == "scaledTech"
                    ? SystemConfig::scaledTech(scheme)
                    : SystemConfig::baseline(scheme);
            const std::string runLabel =
                std::string(spec.name) + "." + to_string(scheme);
            const RunResult ref =
                timeRun(config, *spec.apps, LoopMode::Reference,
                        spec.cycles, runLabel + ".ref");
            const RunResult ff =
                timeRun(config, *spec.apps, LoopMode::Decoupled,
                        spec.cycles, runLabel + ".ff");
            const double speedup = ref.wallSeconds / ff.wallSeconds;
            const bool bitIdentical =
                ff.stats == ref.stats && ff.machine == ref.machine;
            if (!bitIdentical) {
                allBitIdentical = false;
                std::fprintf(stderr,
                             "BIT-IDENTITY MISMATCH on %s: "
                             "decoupled stats %s machine %s\n",
                             runLabel.c_str(),
                             ff.stats == ref.stats ? "ok" : "DIFF",
                             ff.machine == ref.machine ? "ok"
                                                       : "DIFF");
            }

            json::Value row = json::Value::object();
            row.set("mix", spec.name);
            row.set("scheme", to_string(scheme));
            row.set("config", spec.configName);
            row.set("cycles", spec.cycles);
            row.set("reference", runJson(ref, LoopMode::Reference));
            row.set("fastforward", runJson(ff, LoopMode::Decoupled));
            row.set("speedup", speedup);
            row.set("bit_identical", bitIdentical);
            mixes.append(std::move(row));

            std::printf("%-15s %-18s ref %6.2fs  ff %6.2fs  "
                        "speedup %.2fx  skipped %.1f%%  %s\n",
                        spec.name, to_string(scheme).c_str(),
                        ref.wallSeconds, ff.wallSeconds, speedup,
                        100.0 * ff.skippedFrac,
                        bitIdentical ? "bit-identical"
                                     : "MISMATCH");
            std::fflush(stdout);

            if (spec.criterion) {
                minCriterionSpeedup =
                    firstCriterion
                        ? speedup
                        : std::min(minCriterionSpeedup, speedup);
                firstCriterion = false;
            }
            if (std::string(spec.name) == "spec_memory") {
                minSpecSpeedup =
                    firstSpec ? speedup
                              : std::min(minSpecSpeedup, speedup);
                firstSpec = false;
            }
        }
    }

    // Profiler-overhead check: the same compute-bound run (the mix
    // with the fewest skippable cycles, i.e. the most scope entries
    // per wall second) timed with the profiler off and on. The
    // acceptance bound is <= 2% — sampled scopes should cost a few
    // nanoseconds per simulated tick.
    json::Value overhead = json::Value::object();
    {
        const bool wasEnabled = prof::enabled();
        const SystemConfig config =
            SystemConfig::baseline(L3Scheme::Adaptive);
        prof::setEnabled(false);
        const RunResult off =
            timeRun(config, computeMix, LoopMode::Reference,
                    computeCycles, "profiler_overhead.off");
        prof::setEnabled(true);
        const RunResult on =
            timeRun(config, computeMix, LoopMode::Reference,
                    computeCycles, "profiler_overhead.on");
        prof::setEnabled(wasEnabled);
        const double frac =
            on.wallSeconds / off.wallSeconds - 1.0;
        overhead.set("mix", "compute_bound");
        overhead.set("scheme", "adaptive");
        overhead.set("cycles", computeCycles);
        overhead.set("off_seconds", off.wallSeconds);
        overhead.set("on_seconds", on.wallSeconds);
        overhead.set("overhead_frac", frac);
        std::printf("profiler overhead on compute_bound: "
                    "off %5.2fs  on %5.2fs  (%+.2f%%)\n",
                    off.wallSeconds, on.wallSeconds, 100.0 * frac);
        std::fflush(stdout);
    }

    struct utsname uts = {};
    ::uname(&uts);
    json::Value host = json::Value::object();
    host.set("sysname", uts.sysname);
    host.set("release", uts.release);
    host.set("machine", uts.machine);
    host.set("cpus",
             static_cast<std::uint64_t>(
                 std::thread::hardware_concurrency()));
    host.set("compiler", __VERSION__);

    json::Value doc = json::Value::object();
    doc.set("version", 1);
    doc.set("host", std::move(host));
    doc.set("mixes", std::move(mixes));
    doc.set("min_speedup_pchase", minCriterionSpeedup);
    doc.set("min_speedup_spec", minSpecSpeedup);
    doc.set("bit_identical", allBitIdentical);
    doc.set("profiler_overhead", std::move(overhead));
    if (prof::enabled()) {
        // The self-profiler's own JSON (phase tree with estimated
        // nanoseconds and call counts) rides along in the benchmark
        // document so CI artifacts carry the attribution.
        doc.set("profile", json::Value::parse(prof::jsonReport()));
    }
    json::writeFileAtomic(outPath, doc);
    std::printf("wrote %s (min pchase speedup %.2fx, "
                "min spec speedup %.2fx)\n",
                outPath.c_str(), minCriterionSpeedup, minSpecSpeedup);
    if (!allBitIdentical) {
        std::fprintf(stderr, "perf_bench: run loops are NOT "
                             "bit-identical; failing\n");
        return 1;
    }
    return 0;
}
