/**
 * @file
 * nucabench: the simulator's host-performance benchmark. One process
 * runs one workload for a fixed time budget and prints its metrics;
 * run.py builds this program and is the command users invoke. See
 * README.md for the workloads, the metrics and how each is measured.
 *
 * Everything is timed from outside the library: the benchmark calls
 * the public interfaces of workload, cpu, cache, nuca, mem, serialize
 * and sim and wraps them with its own clocks, spans and decorators
 * (probes.hh). Simulated outputs are deterministic, so every timed
 * run is checked against the cycle-by-cycle reference loop on the
 * same inputs; a mismatch or an exception is a failed operation and
 * makes the program exit non-zero.
 *
 * Usage: nucabench --workload NAME --seed N --seconds S --trace 0|1
 *            [--out-dir DIR] [--scale full|tiny]
 *            [--git-describe TEXT] [--inject-mismatch]
 */

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/random.hh"
#include "common.hh"
#include "cpu/memory_system.hh"
#include "mem/main_memory.hh"
#include "nuca/adaptive_nuca.hh"
#include "nuca/private_l3.hh"
#include "nuca/random_replacement_l3.hh"
#include "nuca/shared_l3.hh"
#include "probes.hh"
#include "serialize/serializer.hh"
#include "sim/checkpoint.hh"
#include "sim/cmp_system.hh"
#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sim/parallel_runner.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth_workload.hh"

extern char **environ;

namespace {

using namespace nuca;
using namespace nucabench;

/** Per-core seed stride of CmpSystem's profile constructor. */
constexpr std::uint64_t kCoreSeedStride = 0x9e3779b9ull;

/**
 * Instances of a single-mix workload, each with its own input streams
 * drawn from the seed, so one run averages over several streams.
 */
constexpr unsigned kInstances = 4;

/** 1-in-N sampling periods of the per-call boundaries. */
constexpr unsigned kNextPeriod = 64;
constexpr unsigned kCachePeriod = 16;
constexpr unsigned kNucaPeriod = 8;

const L3Scheme kSchemes[] = {L3Scheme::Private, L3Scheme::Shared,
                             L3Scheme::Adaptive,
                             L3Scheme::RandomReplacement};

// ---------------------------------------------------------------
// Options and guards
// ---------------------------------------------------------------

/** Simulated sizes: "full" is the benchmark, "tiny" the self-test. */
struct Scale
{
    Cycle computeWarmup, computeMeasure;
    Cycle pchaseWarmup, pchaseMeasure;
    Cycle sweepWarmup, sweepMeasure;
    unsigned sweepMixes;
    std::uint64_t isolatedCalls; // next() calls per profile
    std::uint64_t driveOps;      // data accesses per scheme
};

constexpr Scale kFullScale{100000, 300000,  1000000, 16000000, 1000000,
                           1000000, 7,      200000,  100000};
constexpr Scale kTinyScale{5000, 10000, 20000, 100000, 5000,
                           10000, 2,     2000,  2000};

struct Options
{
    std::string workload;
    std::uint64_t seed = bench::paperMixSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";
    /** W: the sweep pool size and the number of concurrent instances. */
    unsigned workers =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    bool tiny = false;
    std::string gitDescribe = "unknown";
    bool injectMismatch = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "nucabench: %s\nusage: nucabench --workload "
                 "compute_bound|pchase_latency|fig06_sweep --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] "
                 "[--scale full|tiny] "
                 "[--git-describe TEXT] [--inject-mismatch]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        usage(flag + " needs a non-negative integer, got '" + text +
              "'");
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE)
        usage(flag + " overflows 64 bits");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    bool haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--inject-mismatch") {
            opt.injectMismatch = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = parseUnsigned(flag, value);
        } else if (flag == "--seconds") {
            const std::uint64_t s = parseUnsigned(flag, value);
            if (s == 0 || s > 600)
                usage("--seconds must be in 1..600");
            opt.seconds = static_cast<double>(s);
            haveSeconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            opt.trace = value == "1";
        } else if (flag == "--out-dir") {
            opt.outDir = value;
        } else if (flag == "--scale") {
            if (value != "full" && value != "tiny")
                usage("--scale must be full or tiny");
            opt.tiny = value == "tiny";
        } else if (flag == "--git-describe") {
            opt.gitDescribe = value;
        } else {
            usage("unknown argument " + flag);
        }
    }
    if (opt.workload != "compute_bound" &&
        opt.workload != "pchase_latency" &&
        opt.workload != "fig06_sweep")
        usage("unknown workload '" + opt.workload + "'");
    if (!haveSeconds)
        usage("--seconds is required");
    return opt;
}

/**
 * The library reads dozens of REPRO_* variables internally (loop
 * selection, profiling, telemetry, checkpoint caches, fault
 * injection, worker counts). Any of them would change what is timed,
 * so a run with one set is refused rather than silently skewed.
 */
void
guardEnvironment()
{
    std::vector<std::string> found;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "REPRO_", 6) == 0)
            found.emplace_back(*e, std::strcspn(*e, "="));
    }
    if (found.empty())
        return;
    std::string names;
    for (const auto &n : found)
        names += " " + n;
    std::fprintf(stderr,
                 "nucabench: refusing to run with simulator "
                 "environment overrides set:%s\n",
                 names.c_str());
    std::exit(2);
}

/** Refuse to time a build whose checks are compiled in. */
void
guardBuild()
{
#ifndef NDEBUG
    std::fprintf(stderr, "nucabench: refusing to time a build without "
                         "NDEBUG (assertions enabled)\n");
    std::exit(2);
#endif
#ifdef NUCA_DEBUG_CHECKS
    std::fprintf(stderr, "nucabench: refusing to time a build with "
                         "NUCA_DEBUG_CHECKS\n");
    std::exit(2);
#endif
}

// ---------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------

/** Four cache-resident ALU cores (perf_bench's compute profile). */
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
    p.regions = {MemRegion{48ull << 10, 1.0, RegionPattern::Cyclic}};
    p.llcIntensive = false;
    return p;
}

/** Pointer chasing over 64 MB (perf_bench's pchase profile). */
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

/** One simulation: a system, its per-core apps, seed and windows. */
struct Job
{
    SystemConfig config;
    std::vector<WorkloadProfile> apps;
    std::uint64_t seed = 0;
    SimWindow window{0, 0};
    /** The mix as runMix takes it (sweep jobs only). */
    ExperimentSpec spec;
};

struct Workload
{
    std::string name;
    /** fig06_sweep: timed through runMix passes over every job. */
    bool sweep = false;
    std::vector<Job> jobs;
    /** Profiles the isolated next() loop runs over. */
    std::vector<WorkloadProfile> profiles;
};

/**
 * @p count random 4-app mixes from @p pool, filled from back-to-back
 * seeded shuffles of the pool: when count * 4 is a multiple of the
 * pool size, every app fills the same number of slots. The seed picks
 * which apps share a mix and each mix's fast-forward seed, as
 * makeMixes does, but not how often each app runs, so a sweep's total
 * work barely depends on the seed.
 */
std::vector<ExperimentSpec>
balancedMixes(const std::vector<std::string> &pool, unsigned count,
              std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::string> slots;
    while (slots.size() < std::size_t(count) * 4) {
        std::vector<std::string> order = pool;
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        slots.insert(slots.end(), order.begin(), order.end());
    }
    std::vector<ExperimentSpec> mixes(count);
    for (unsigned m = 0; m < count; ++m) {
        mixes[m].apps.assign(slots.begin() + m * 4,
                             slots.begin() + m * 4 + 4);
        mixes[m].seed = rng.next();
    }
    return mixes;
}

Workload
makeWorkload(const Options &opt)
{
    const Scale &scale = opt.tiny ? kTinyScale : kFullScale;
    Workload w;
    w.name = opt.workload;
    if (opt.workload == "fig06_sweep") {
        w.sweep = true;
        const auto mixes = balancedMixes(llcIntensiveNames(),
                                         scale.sweepMixes, opt.seed);
        std::vector<std::string> seen;
        for (const auto &mix : mixes) {
            for (const auto scheme : kSchemes) {
                Job job;
                job.config = SystemConfig::baseline(scheme);
                for (const auto &app : mix.apps)
                    job.apps.push_back(specProfile(app));
                job.seed = mix.seed;
                job.window = {scale.sweepWarmup, scale.sweepMeasure};
                job.spec = mix;
                w.jobs.push_back(std::move(job));
            }
            for (const auto &app : mix.apps) {
                if (std::find(seen.begin(), seen.end(), app) ==
                    seen.end()) {
                    seen.push_back(app);
                    w.profiles.push_back(specProfile(app));
                }
            }
        }
        return w;
    }
    const bool compute = opt.workload == "compute_bound";
    Rng rng(opt.seed);
    for (unsigned i = 0; i < kInstances; ++i) {
        Job job;
        job.config = compute
                         ? SystemConfig::baseline(L3Scheme::Adaptive)
                         : SystemConfig::scaledTech(L3Scheme::Adaptive);
        job.apps.assign(4, compute ? computeProfile() : pchaseProfile());
        job.seed = rng.next();
        job.window =
            compute ? SimWindow{scale.computeWarmup, scale.computeMeasure}
                    : SimWindow{scale.pchaseWarmup, scale.pchaseMeasure};
        w.jobs.push_back(std::move(job));
    }
    w.profiles = w.jobs[0].apps;
    return w;
}

// ---------------------------------------------------------------
// Direct runs: one job built, warmed, checkpointed and measured
// ---------------------------------------------------------------

struct Digests
{
    std::uint64_t stats = 0;
    std::uint64_t image = 0;

    bool operator==(const Digests &) const = default;
};

/** L3 outcome counters, summed from the organization's stats. */
struct L3Tally : stats::Visitor
{
    double hits = 0, remote = 0, misses = 0, repartitions = 0;

    void
    record(const std::string &name, double value) override
    {
        if (name.rfind("system.l3_", 0) != 0)
            return;
        const auto ends = [&](const char *suffix) {
            const std::size_t n = std::strlen(suffix);
            return name.size() >= n &&
                   name.compare(name.size() - n, n, suffix) == 0;
        };
        // Per-scheme group layout: a "hits" scalar (private, shared)
        // or per-core "local_hits"/"remote_hits" vectors.
        const auto depth = std::count(name.begin(), name.end(), '.');
        if (ends(".misses.total"))
            misses += value;
        else if (ends(".remote_hits.total"))
            remote += value;
        else if (ends(".local_hits.total") || (depth == 2 && ends(".hits")))
            hits += value;
        else if (ends(".sharing_engine.repartitions"))
            repartitions += value;
    }
};

/** What one pass (cold or warm) of a job measured and produced. */
struct PassResult
{
    double setupS = 0;   ///< construct + warm-up, or construct + restore
    double measureS = 0; ///< CmpSystem::run over the measured window
    double wallS = 0;    ///< the whole pass up to the end of measuring
    Digests digests;
    std::vector<double> ipc;
    Cycle cycles = 0; ///< measured window
    Counter committed = 0;
    // Layer counters over the measured window.
    Counter ticks = 0, skipped = 0, heapPops = 0, horizonPushes = 0;
    Counter l3DataAccesses = 0, memFetches = 0, memQueueCycles = 0;
    L3Tally l3;
    /** next() calls and samples inside the measured window. */
    Probe next{kNextPeriod};
};

/** A cold pass plus a warm pass restoring the cold pass's warm-up. */
struct JobRecord
{
    /** Index of the job in Workload::jobs. */
    std::size_t job = 0;
    PassResult cold;
    PassResult warm;
    double saveMs = 0;
    double restoreMs = 0;
    std::size_t imageBytes = 0;
};

enum class Loop { Default, Reference };

std::uint64_t
digestOf(const std::vector<std::uint8_t> &bytes)
{
    return hashBytes(bytes.data(), bytes.size());
}

Digests
digestsOf(CmpSystem &system)
{
    std::ostringstream os;
    system.statsRoot().dump(os);
    const std::string dump = os.str();
    Serializer image;
    system.checkpoint(image);
    return {hashBytes(reinterpret_cast<const std::uint8_t *>(dump.data()),
                      dump.size()),
            digestOf(image.bytes())};
}

std::unique_ptr<CmpSystem>
buildSystem(const Job &job, Loop loop, Probe *next)
{
    std::unique_ptr<CmpSystem> system;
    if (next == nullptr) {
        system = std::make_unique<CmpSystem>(job.config, job.apps,
                                             job.seed);
    } else {
        // Seeded exactly as the profile constructor seeds its cores.
        std::vector<std::unique_ptr<InstSource>> sources;
        for (unsigned c = 0; c < job.apps.size(); ++c) {
            sources.push_back(std::make_unique<CountingSource>(
                std::make_unique<SynthWorkload>(
                    job.apps[c], static_cast<CoreId>(c),
                    job.seed + c * kCoreSeedStride),
                *next));
        }
        system = std::make_unique<CmpSystem>(job.config,
                                             std::move(sources));
    }
    if (loop == Loop::Reference)
        system->setFastForward(false);
    return system;
}

/**
 * Cumulative counters of a system. resetStats() only moves the IPC
 * baselines, so the measured window's share is a difference of two
 * snapshots.
 */
struct Snapshot
{
    Counter committed = 0, ticks = 0, l3DataAccesses = 0;
    Counter memFetches = 0, memQueueCycles = 0;
    Counter skipped = 0, heapPops = 0, horizonPushes = 0;
    L3Tally l3;

    explicit Snapshot(CmpSystem &system)
    {
        for (unsigned c = 0; c < system.numCores(); ++c) {
            const auto core = static_cast<CoreId>(c);
            committed += system.coreAt(core).committed();
            ticks += system.coreTicksExecuted(core);
            l3DataAccesses += system.memOf(core).l3DataAccesses();
        }
        memFetches = system.memory().fetches();
        memQueueCycles = system.memory().queueCycles();
        skipped = system.fastForwardedCycles();
        heapPops = system.wakeHeapPops();
        horizonPushes = system.horizonRecomputes();
        system.statsRoot().visit(l3);
    }
};

/** Run the measured window on a warmed, stats-reset system. */
void
measure(CmpSystem &system, const Job &job, Probe *next, SpanLog &spans,
        std::uint64_t parent, Clock::time_point passStart,
        PassResult &r)
{
    const Snapshot before(system);
    const Probe next0 = next ? *next : Probe(kNextPeriod);
    {
        SpanScope span(spans, "sim.measure", parent);
        const auto start = Clock::now();
        system.run(job.window.measureCycles);
        r.measureS = secondsSince(start);
    }
    r.wallS = secondsSince(passStart);
    const Snapshot after(system);
    r.cycles = job.window.measureCycles;
    r.committed = after.committed - before.committed;
    r.ticks = after.ticks - before.ticks;
    r.l3DataAccesses = after.l3DataAccesses - before.l3DataAccesses;
    r.memFetches = after.memFetches - before.memFetches;
    r.memQueueCycles = after.memQueueCycles - before.memQueueCycles;
    r.skipped = after.skipped - before.skipped;
    r.heapPops = after.heapPops - before.heapPops;
    r.horizonPushes = after.horizonPushes - before.horizonPushes;
    r.l3.hits = after.l3.hits - before.l3.hits;
    r.l3.remote = after.l3.remote - before.l3.remote;
    r.l3.misses = after.l3.misses - before.l3.misses;
    r.l3.repartitions = after.l3.repartitions - before.l3.repartitions;
    r.ipc = system.ipcs();
    if (next) {
        r.next.calls = next->calls - next0.calls;
        r.next.sampled = next->sampled - next0.sampled;
        r.next.sampledNs = next->sampledNs - next0.sampledNs;
    }
    r.digests = digestsOf(system);
}

/**
 * The benchmark's own run of one job. Cold pass: construct, warm up,
 * checkpoint the warmed machine, reset stats, measure. Warm pass (when
 * asked): construct, restore that image, reset stats, measure — the
 * set-up a cached warm-up buys. With a probe, every core's instruction
 * source is wrapped in a CountingSource.
 */
JobRecord
runDirect(const Job &job, Loop loop, bool warmToo, Probe *next,
          SpanLog &spans, std::uint64_t parent)
{
    JobRecord rec;
    Serializer image;
    {
        const auto start = Clock::now();
        std::unique_ptr<CmpSystem> system;
        {
            SpanScope span(spans, "sim.construct", parent);
            system = buildSystem(job, loop, next);
        }
        {
            SpanScope span(spans, "sim.warmup", parent);
            system->run(job.window.warmupCycles);
        }
        rec.cold.setupS = secondsSince(start);
        {
            SpanScope span(spans, "sim.checkpoint", parent);
            system->checkpoint(image);
        }
        rec.saveMs = 1e3 * (secondsSince(start) - rec.cold.setupS);
        rec.imageBytes = image.bytes().size();
        system->resetStats();
        measure(*system, job, next, spans, parent, start, rec.cold);
    }
    if (!warmToo)
        return rec;
    const auto start = Clock::now();
    std::unique_ptr<CmpSystem> system;
    {
        SpanScope span(spans, "sim.construct", parent);
        system = buildSystem(job, loop, next);
    }
    const double beforeRestore = secondsSince(start);
    {
        SpanScope span(spans, "sim.restore", parent);
        Deserializer d(image.bytes().data(), image.bytes().size());
        system->restore(d);
    }
    rec.warm.setupS = secondsSince(start);
    rec.restoreMs = 1e3 * (rec.warm.setupS - beforeRestore);
    system->resetStats();
    measure(*system, job, next, spans, parent, start, rec.warm);
    return rec;
}

// ---------------------------------------------------------------
// Layer drives: one layer exercised on the workload's own inputs
// ---------------------------------------------------------------

/** Keeps the drives' generated streams observable, so the loops
 * are not optimized away. */
volatile std::uint64_t g_sink = 0;

/** drive.workload: host ns per SynthWorkload::next in a bare loop. */
double
driveWorkload(const Workload &w, std::uint64_t seed,
              std::uint64_t calls, SpanLog &spans, std::uint64_t parent)
{
    SpanScope span(spans, "drive.workload", parent);
    double totalNs = 0;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < w.profiles.size(); ++i) {
        SynthWorkload source(w.profiles[i], static_cast<CoreId>(i % 4),
                             seed + i * kCoreSeedStride);
        const auto start = Clock::now();
        for (std::uint64_t k = 0; k < calls; ++k)
            sink += source.next().effAddr;
        totalNs += nsSince(start);
    }
    g_sink = sink;
    return totalNs / static_cast<double>(calls * w.profiles.size());
}

MainMemoryParams
memParamsFor(const SystemConfig &config)
{
    MainMemoryParams p;
    p.firstChunkLatency = config.scheme == L3Scheme::Private
                              ? config.memFirstChunkPrivate
                              : config.memFirstChunkShared;
    return p;
}

/** The L3 organization CmpSystem would build for @p config. */
std::unique_ptr<L3Organization>
makeL3(const SystemConfig &config, stats::Group &root, MainMemory &memory)
{
    switch (config.scheme) {
      case L3Scheme::Private: {
          PrivateL3Params p;
          p.numCores = config.numCores;
          p.sizePerCoreBytes = config.l3SizePerCoreBytes;
          p.assoc = config.l3LocalAssoc;
          p.hitLatency = config.l3LocalLatency;
          p.policy = config.l3ReplPolicy;
          return std::make_unique<PrivateL3>(root, p, memory);
      }
      case L3Scheme::Shared: {
          SharedL3Params p;
          p.numCores = config.numCores;
          p.sizeBytes = config.l3SizePerCoreBytes * config.numCores;
          p.assoc = config.l3LocalAssoc * config.numCores;
          p.hitLatency = config.l3SharedLatency;
          p.policy = config.l3ReplPolicy;
          return std::make_unique<SharedL3>(root, p, memory);
      }
      case L3Scheme::Adaptive: {
          AdaptiveNucaParams p;
          p.numCores = config.numCores;
          p.sizePerCoreBytes = config.l3SizePerCoreBytes;
          p.localAssoc = config.l3LocalAssoc;
          p.localHitLatency = config.l3LocalLatency;
          p.remoteHitLatency = config.l3SharedLatency;
          p.epochMisses = config.epochMisses;
          p.shadowSampleShift = config.shadowSampleShift;
          p.adaptationEnabled = config.adaptationEnabled;
          p.allowRemotePrivateHits = config.coherentSharing;
          return std::make_unique<AdaptiveNuca>(root, p, memory);
      }
      case L3Scheme::RandomReplacement: {
          RandomReplacementL3Params p;
          p.numCores = config.numCores;
          p.sizePerCoreBytes = config.l3SizePerCoreBytes;
          p.assoc = config.l3LocalAssoc;
          p.localHitLatency = config.l3LocalLatency;
          p.remoteHitLatency = config.l3SharedLatency;
          p.seed = config.schemeSeed;
          return std::make_unique<RandomReplacementL3>(root, p, memory);
      }
    }
    throw std::logic_error("unknown L3 scheme");
}

struct HierarchyDrive
{
    /** Sampled dataAccess calls, time inside the L3 subtracted. */
    Probe cache{kCachePeriod};
    std::map<std::string, double> nucaNs;
};

/**
 * drive.hierarchy: the first job's load/store streams fed straight to
 * four MemorySystems over a TimedL3, once per scheme. Each core issues
 * its next access when the previous one is ready (one access in flight
 * per core), and the core with the earliest issue cycle goes next.
 */
HierarchyDrive
driveHierarchy(const Job &job, std::uint64_t ops, SpanLog &spans,
               std::uint64_t parent)
{
    SpanScope span(spans, "drive.hierarchy", parent);
    HierarchyDrive out;
    for (const auto scheme : kSchemes) {
        SystemConfig config = job.config;
        config.scheme = scheme;
        stats::Group root("system");
        MainMemory memory(root, "memory", memParamsFor(config));
        TimedL3 l3(makeL3(config, root, memory), kNucaPeriod);
        std::vector<std::unique_ptr<MemorySystem>> mems;
        std::vector<SynthWorkload> sources;
        for (unsigned c = 0; c < config.numCores; ++c) {
            const auto core = static_cast<CoreId>(c);
            mems.push_back(std::make_unique<MemorySystem>(
                root, "core" + std::to_string(c) + ".mem", core,
                config.coreMem, l3));
            sources.emplace_back(job.apps[c % job.apps.size()], core,
                                 job.seed + c * kCoreSeedStride);
        }
        std::vector<Cycle> issue(config.numCores, 0);
        for (std::uint64_t op = 0; op < ops; ++op) {
            const auto c = static_cast<std::size_t>(
                std::min_element(issue.begin(), issue.end()) -
                issue.begin());
            SynthInst inst;
            do {
                inst = sources[c].next();
            } while (!inst.isMem());
            const Cycle now = issue[c];
            Cycle ready;
            if (out.cache.sample()) {
                l3.beginNested();
                const auto start = Clock::now();
                ready = mems[c]->dataAccess(inst.effAddr, inst.isStore(),
                                            now, inst.pc);
                const double ns = nsSince(start);
                out.cache.add(ns - l3.endNested());
            } else {
                ready = mems[c]->dataAccess(inst.effAddr, inst.isStore(),
                                            now, inst.pc);
            }
            issue[c] = std::max(ready, now + 1);
        }
        out.nucaNs[to_string(scheme)] = l3.probe.nsPerCall();
    }
    return out;
}

// ---------------------------------------------------------------
// Statistics helpers
// ---------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Operations attempted and failed, with the reason on stderr. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "nucabench: output check failed: %s\n",
                         what.c_str());
        }
    }

    void
    threw(const std::string &what, const std::string &error)
    {
        ++attempted;
        ++failed;
        std::fprintf(stderr, "nucabench: %s threw: %s\n", what.c_str(),
                     error.c_str());
    }
};

/** Sum of the layer counters over a set of passes. */
struct LayerTotals
{
    double measureS = 0;
    double cycles = 0, committed = 0, ticks = 0, skipped = 0;
    double heapPops = 0, horizonPushes = 0;
    double l3DataAccesses = 0, memFetches = 0, memQueueCycles = 0;
    double l3Hits = 0, l3Remote = 0, l3Misses = 0, repartitions = 0;
    Probe next{kNextPeriod};
    std::vector<double> ipc;

    void
    add(const PassResult &r)
    {
        measureS += r.measureS;
        cycles += static_cast<double>(r.cycles);
        committed += static_cast<double>(r.committed);
        ticks += static_cast<double>(r.ticks);
        skipped += static_cast<double>(r.skipped);
        heapPops += static_cast<double>(r.heapPops);
        horizonPushes += static_cast<double>(r.horizonPushes);
        l3DataAccesses += static_cast<double>(r.l3DataAccesses);
        memFetches += static_cast<double>(r.memFetches);
        memQueueCycles += static_cast<double>(r.memQueueCycles);
        l3Hits += r.l3.hits;
        l3Remote += r.l3.remote;
        l3Misses += r.l3.misses;
        repartitions += r.l3.repartitions;
        next.merge(r.next);
        ipc.insert(ipc.end(), r.ipc.begin(), r.ipc.end());
    }
};

/** Per-job timing of one sweep pass, relative to the pass start. */
struct JobTiming
{
    double queueS = 0;
    double runS = 0;
    MixResult result;
};

struct SweepPass
{
    double wallS = 0;
    std::vector<JobOutcome<JobTiming>> jobs;
};

/**
 * Identity of a checkpoint file. A restore leaves it in place; a
 * fallback that re-simulates the warm-up saves it again through a
 * temporary renamed over the old file, which gives it a new inode.
 */
struct FileId
{
    dev_t dev = 0;
    ino_t ino = 0;
    off_t size = 0;

    bool
    operator==(const FileId &o) const
    {
        return dev == o.dev && ino == o.ino && size == o.size;
    }
};

std::optional<FileId>
fileId(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return std::nullopt;
    return FileId{st.st_dev, st.st_ino, st.st_size};
}

// ---------------------------------------------------------------
// Output
// ---------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printTable(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("\n%s\n", title);
    for (const auto &m : metrics)
        std::printf("  %-34s %16.6g  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            out += ' ';
        } else {
            out += ch;
        }
    }
    return out;
}

/**
 * Self time per span name: a span's duration minus the part of it its
 * children cover (their union, since sweep jobs overlap).
 */
void
printSpanTable(const SpanLog &log)
{
    const auto &spans = log.spans();
    std::map<std::uint64_t, std::vector<const SpanLog::Span *>> children;
    for (const auto &s : spans)
        children[s.parent].push_back(&s);
    struct Row
    {
        std::size_t count = 0;
        double total = 0, self = 0;
    };
    std::map<std::string, Row> rows;
    for (const auto &s : spans) {
        std::vector<std::pair<double, double>> iv;
        for (const auto *c : children[s.id])
            iv.emplace_back(c->startS, c->endS);
        std::sort(iv.begin(), iv.end());
        double covered = 0, curS = 0, curE = -1;
        for (const auto &[a, b] : iv) {
            if (a > curE) {
                covered += std::max(0.0, curE - curS);
                curS = a;
                curE = b;
            } else {
                curE = std::max(curE, b);
            }
        }
        covered += std::max(0.0, curE - curS);
        Row &row = rows[s.name];
        ++row.count;
        row.total += s.endS - s.startS;
        row.self += (s.endS - s.startS) - covered;
    }
    std::printf("\nspans (traced run)\n  %-18s %8s %12s %12s\n", "name",
                "count", "total_s", "self_s");
    for (const auto &[name, row] : rows)
        std::printf("  %-18s %8zu %12.4f %12.4f\n", name.c_str(),
                    row.count, row.total, row.self);
}

void
writeSpans(const SpanLog &log, const std::string &path,
           const std::string &runId)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "nucabench: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\"run\": \"%s\", \"spans\": [", runId.c_str());
    bool first = true;
    for (const auto &s : log.spans()) {
        std::fprintf(f,
                     "%s\n  {\"name\": \"%s\", \"id\": %llu, "
                     "\"parent\": %llu, \"start_s\": %.9f, "
                     "\"end_s\": %.9f}",
                     first ? "" : ",", s.name.c_str(),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent), s.startS,
                     s.endS);
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
}

double
peakRssMb()
{
    struct rusage usage = {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------
// The run
// ---------------------------------------------------------------

class BenchRun
{
  public:
    BenchRun(const Options &opt, Workload w)
        : opt_(opt), w_(std::move(w)), spans_(opt.trace)
    {}

    int run();

  private:
    using Pool = std::vector<std::size_t>;

    /** Run fn(i) for i in [0, count) on the worker pool. */
    template <typename Fn>
    auto
    onPool(std::size_t count, Fn fn)
    {
        Pool idx(count);
        std::iota(idx.begin(), idx.end(), 0);
        SweepPolicy policy;
        policy.onFail = FailPolicy::Skip;
        return runParallelOutcomes(idx, fn, opt_.workers, nullptr,
                                   policy);
    }

    /** Run fn(i) for every job index on the worker pool. */
    template <typename Fn>
    auto
    onPool(Fn fn)
    {
        return onPool(w_.jobs.size(), fn);
    }

    void referencePass();
    void runSingle();
    struct WorkerRuns;
    WorkerRuns workerLoop(std::size_t worker, Clock::time_point start);
    void runSweep();
    SweepPass sweepPass(const RunPolicy &policy, bool traced,
                        std::uint64_t parent);
    void checkSweepPass(const SweepPass &pass, const RunPolicy &policy,
                        std::vector<std::optional<FileId>> &saved,
                        bool warm);
    std::vector<Metric> layerMetrics();

    std::string
    jobName(std::size_t i) const
    {
        if (!w_.sweep)
            return w_.name;
        std::string name = to_string(w_.jobs[i].config.scheme) + ":";
        for (std::size_t a = 0; a < w_.jobs[i].spec.apps.size(); ++a)
            name += (a ? "+" : "") + w_.jobs[i].spec.apps[a];
        return name;
    }

    const Options &opt_;
    Workload w_;
    SpanLog spans_;
    /** Untraced work records its spans nowhere. */
    SpanLog quiet_{false};
    std::uint64_t root_ = 0;
    Tally tally_;

    /** Reference-loop digests per job (nullopt: reference failed). */
    std::vector<std::optional<Digests>> reference_;

    // Untraced measurements (end-to-end metrics).
    std::vector<JobRecord> untraced_;
    std::vector<double> setupS_, sweepS_, sweepWarmS_, mcps_, mips_;
    /** Wall time of a single-mix workload's worker loops. */
    double singleWallS_ = 0;
    // Traced measurements (per-layer metrics).
    std::vector<JobRecord> traced_;
    std::vector<SweepPass> tracedPasses_;
    /** Traced over untraced measured time, minus one. */
    double overhead_ = 0;
    double adaptiveVsPrivatePct_ = 0;
};

void
BenchRun::referencePass()
{
    // The cycle-by-cycle loop on the same inputs, outside every timed
    // window: its stats dump and final checkpoint image are what each
    // timed and traced run must reproduce.
    reference_.assign(w_.jobs.size(), std::nullopt);
    SpanScope span(spans_, "sim.reference", root_);
    const std::uint64_t parent = span.id();
    auto outcomes = onPool([&](std::size_t i) {
        return runDirect(w_.jobs[i], Loop::Reference, false, nullptr,
                         spans_, parent);
    });
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].ok()) {
            reference_[i] = outcomes[i].value.cold.digests;
        } else {
            std::fprintf(stderr,
                         "nucabench: reference run of %s threw: %s\n",
                         jobName(i).c_str(), outcomes[i].error.c_str());
        }
    }
    if (opt_.injectMismatch && reference_[0])
        reference_[0]->stats ^= 1;
}

/** What one worker of a single-mix workload ran and checked. */
struct BenchRun::WorkerRuns
{
    std::vector<JobRecord> untraced;
    std::vector<JobRecord> traced;
    Tally tally;
};

BenchRun::WorkerRuns
BenchRun::workerLoop(std::size_t worker, Clock::time_point start)
{
    // This worker cycles through its share of the instances. Untraced
    // and traced repeats of each instance alternate, so drift on the
    // host falls on both sides of the tracing-overhead comparison.
    std::vector<std::size_t> mine;
    for (std::size_t i = worker; i < w_.jobs.size(); i += opt_.workers)
        mine.push_back(i);
    WorkerRuns out;
    std::size_t tries = 0;
    const auto enough = [&] {
        const std::size_t want = 3;
        const bool done = out.untraced.size() >= want &&
                          (!opt_.trace || out.traced.size() >= want);
        return done || tries >= 4 * want + 8;
    };
    while (secondsSince(start) < opt_.seconds || !enough()) {
        const bool traced = opt_.trace && tries % 2 == 1;
        const std::size_t j =
            mine[(opt_.trace ? tries / 2 : tries) % mine.size()];
        ++tries;
        Probe next(kNextPeriod);
        const char *what = traced ? "traced run" : "run";
        SpanLog &log = traced ? spans_ : quiet_;
        try {
            SpanScope span(log, "sweep.job", root_);
            JobRecord rec = runDirect(w_.jobs[j], Loop::Default, true,
                                      traced ? &next : nullptr, log,
                                      span.id());
            rec.job = j;
            const auto &ref = reference_[j];
            out.tally.check(ref && rec.cold.digests == *ref,
                            std::string(what) + " (cold) differs from "
                                                "the reference loop");
            out.tally.check(ref && rec.warm.digests == *ref,
                            std::string(what) +
                                " (restored warm-up) differs from the "
                                "reference loop");
            (traced ? out.traced : out.untraced).push_back(std::move(rec));
        } catch (const std::exception &e) {
            out.tally.threw(what, e.what());
            out.tally.threw(what, e.what());
        }
    }
    return out;
}

void
BenchRun::runSingle()
{
    // The instances repeat concurrently on W workers, loading the host
    // the way a sweep does; pooling their samples halves the run-to-run
    // spread of the medians on a noisy shared host.
    const auto start = Clock::now();
    auto workers =
        onPool(std::min<std::size_t>(opt_.workers, w_.jobs.size()),
               [&](std::size_t k) { return workerLoop(k, start); });
    singleWallS_ = secondsSince(start);
    for (auto &r : workers) {
        if (!r.ok()) {
            tally_.threw("worker", r.error);
            continue;
        }
        tally_.attempted += r.value.tally.attempted;
        tally_.failed += r.value.tally.failed;
        for (auto &rec : r.value.untraced)
            untraced_.push_back(std::move(rec));
        for (auto &rec : r.value.traced)
            traced_.push_back(std::move(rec));
    }
    for (const auto &rec : untraced_) {
        setupS_.push_back(rec.cold.setupS);
        sweepS_.push_back(rec.cold.wallS);
        sweepWarmS_.push_back(rec.warm.wallS);
        for (const PassResult *p : {&rec.cold, &rec.warm}) {
            mcps_.push_back(static_cast<double>(p->cycles) / 1e6 /
                            p->measureS);
            mips_.push_back(static_cast<double>(p->committed) / 1e6 /
                            p->measureS);
        }
    }
    if (opt_.trace) {
        std::vector<double> plain, probed;
        for (const auto &r : untraced_)
            plain.push_back(r.cold.measureS);
        for (const auto &r : traced_)
            probed.push_back(r.cold.measureS);
        overhead_ = median(probed) / median(plain) - 1.0;
    }
}

SweepPass
BenchRun::sweepPass(const RunPolicy &policy, bool traced,
                    std::uint64_t parent)
{
    SpanLog &log = traced ? spans_ : quiet_;
    SpanScope span(log, "sweep.pass", parent);
    const std::uint64_t passId = span.id();
    SweepPass pass;
    const auto start = Clock::now();
    pass.jobs = onPool([&](std::size_t i) {
        JobTiming t;
        const auto begin = Clock::now();
        t.queueS = std::chrono::duration<double>(begin - start).count();
        SpanScope job(log, "sweep.job", passId);
        const Job &j = w_.jobs[i];
        t.result = runMix(j.config, j.spec, j.window, std::string(),
                          policy);
        t.runS = secondsSince(begin);
        return t;
    });
    pass.wallS = secondsSince(start);
    return pass;
}

/**
 * Checks one pass of a round. A cold-pass job must leave its warm-up
 * checkpoint behind, recorded in @p saved; a warm-pass job must have
 * restored it, leaving the recorded file untouched.
 */
void
BenchRun::checkSweepPass(const SweepPass &pass, const RunPolicy &policy,
                         std::vector<std::optional<FileId>> &saved,
                         bool warm)
{
    const std::string label = warm ? "warm pass job " : "cold pass job ";
    for (std::size_t i = 0; i < pass.jobs.size(); ++i) {
        const auto &o = pass.jobs[i];
        if (!o.ok()) {
            tally_.threw(label + jobName(i), o.error);
            continue;
        }
        const Job &j = w_.jobs[i];
        const auto file = fileId(warmupPath(
            policy.ckpt, warmupKey(j.config, j.spec.apps, j.spec.seed,
                                   j.window.warmupCycles)));
        if (!warm)
            saved[i] = file;
        // The direct run of the same job was checked against the
        // reference loop; runMix must agree with it exactly.
        if (untraced_[i].cold.ipc != o.value.result.ipc)
            tally_.check(false, label + jobName(i) +
                                    ": runMix IPC differs from the "
                                    "checked run");
        else if (warm)
            tally_.check(file && saved[i] && *file == *saved[i],
                         label + jobName(i) +
                             " did not restore its warm-up checkpoint");
        else
            tally_.check(file.has_value(),
                         label + jobName(i) +
                             " saved no warm-up checkpoint");
    }
}

void
BenchRun::runSweep()
{
    // Direct pass: every job once, cold and warm, checked against the
    // reference loop; it yields set-up times and the committed counts
    // the runMix passes cannot report.
    {
        auto outcomes = onPool([&](std::size_t i) {
            return runDirect(w_.jobs[i], Loop::Default, true, nullptr,
                             quiet_, 0);
        });
        untraced_.resize(outcomes.size());
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (!outcomes[i].ok()) {
                tally_.threw("direct run of " + jobName(i),
                             outcomes[i].error);
                tally_.threw("direct run of " + jobName(i),
                             outcomes[i].error);
                continue;
            }
            untraced_[i] = std::move(outcomes[i].value);
            const auto &rec = untraced_[i];
            tally_.check(reference_[i] &&
                             rec.cold.digests == *reference_[i],
                         jobName(i) + " (cold) differs from the "
                                      "reference loop");
            tally_.check(reference_[i] &&
                             rec.warm.digests == *reference_[i],
                         jobName(i) + " (restored warm-up) differs "
                                      "from the reference loop");
            setupS_.push_back(rec.cold.setupS);
        }
    }
    if (opt_.trace) {
        SpanScope span(spans_, "sweep.pass", root_);
        const std::uint64_t parent = span.id();
        auto outcomes = onPool([&](std::size_t i) {
            Probe next(kNextPeriod);
            JobRecord rec = runDirect(w_.jobs[i], Loop::Default, true,
                                      &next, spans_, parent);
            rec.job = i;
            return rec;
        });
        double plain = 0, probed = 0;
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (!outcomes[i].ok()) {
                tally_.threw("traced run of " + jobName(i),
                             outcomes[i].error);
                continue;
            }
            const auto &rec = outcomes[i].value;
            tally_.check(rec.cold.digests == untraced_[i].cold.digests &&
                             rec.warm.digests ==
                                 untraced_[i].warm.digests,
                         "traced run of " + jobName(i) +
                             " differs from the untraced run");
            plain += untraced_[i].cold.measureS;
            probed += rec.cold.measureS;
            traced_.push_back(rec);
        }
        overhead_ = ratio(probed, plain) - 1.0;
    }

    // Timed rounds: a cold pass that simulates and saves every
    // warm-up, then a warm pass restoring them, each through runMix
    // into a checkpoint directory created fresh for the round.
    double measuredCommitted = 0, coldCycles = 0, warmCycles = 0;
    for (const auto &rec : untraced_) {
        measuredCommitted += static_cast<double>(rec.cold.committed);
        warmCycles += static_cast<double>(rec.cold.cycles);
    }
    for (const auto &job : w_.jobs)
        coldCycles += static_cast<double>(job.window.warmupCycles +
                                          job.window.measureCycles);
    // A round starts only if one as long as the last still fits in the
    // budget: rounds last several seconds, and overrunning by one would
    // lengthen every run.
    const auto start = Clock::now();
    bool tracedTurn = false;
    std::size_t rounds = 0, tracedRounds = 0;
    double lastRoundS = 0;
    while (secondsSince(start) + lastRoundS <= opt_.seconds ||
           rounds < 2 || (opt_.trace && tracedRounds < 1)) {
        if (rounds + tracedRounds >= 64)
            break;
        const auto roundStart = Clock::now();
        const bool traced = opt_.trace && tracedTurn;
        tracedTurn = !tracedTurn;
        RunPolicy policy;
        policy.ckpt.dir = opt_.outDir + "/ckpt-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(rounds + tracedRounds);
        std::filesystem::remove_all(policy.ckpt.dir);
        std::filesystem::create_directories(policy.ckpt.dir);
        SpanScope round(traced ? spans_ : quiet_, "sweep.round", root_);
        std::vector<std::optional<FileId>> saved(w_.jobs.size());
        SweepPass cold = sweepPass(policy, traced, round.id());
        checkSweepPass(cold, policy, saved, false);
        SweepPass warm = sweepPass(policy, traced, round.id());
        checkSweepPass(warm, policy, saved, true);
        std::filesystem::remove_all(policy.ckpt.dir);
        lastRoundS = secondsSince(roundStart);
        if (traced) {
            ++tracedRounds;
            tracedPasses_.push_back(std::move(cold));
            tracedPasses_.push_back(std::move(warm));
            continue;
        }
        ++rounds;
        double coldJobS = 0, warmJobS = 0;
        for (const auto &o : cold.jobs)
            coldJobS += o.value.runS;
        for (const auto &o : warm.jobs)
            warmJobS += o.value.runS;
        sweepS_.push_back(cold.wallS);
        sweepWarmS_.push_back(warm.wallS);
        mcps_.push_back((coldCycles + warmCycles) / 1e6 /
                        (coldJobS + warmJobS));
        mips_.push_back(measuredCommitted / 1e6 / warmJobS);
    }

    // The paper's Figure 6 headline on this run's mixes: harmonic-mean
    // IPC of adaptive over private, summed over mixes like fig06.
    double hAdaptive = 0, hPrivate = 0;
    for (std::size_t i = 0; i < w_.jobs.size(); ++i) {
        const double h = harmonicMean(untraced_[i].cold.ipc);
        if (w_.jobs[i].config.scheme == L3Scheme::Adaptive)
            hAdaptive += h;
        if (w_.jobs[i].config.scheme == L3Scheme::Private)
            hPrivate += h;
    }
    adaptiveVsPrivatePct_ = 100.0 * (ratio(hAdaptive, hPrivate) - 1.0);
}

std::vector<Metric>
BenchRun::layerMetrics()
{
    const Scale &scale = opt_.tiny ? kTinyScale : kFullScale;
    // Counters from the cold measured window of each job's first
    // traced run, summed over jobs.
    LayerTotals t;
    std::vector<double> saveMs, restoreMs;
    double imageBytes = 0;
    std::size_t jobsCounted = 0;
    std::vector<char> counted(w_.jobs.size(), 0);
    for (const auto &rec : traced_) {
        saveMs.push_back(rec.saveMs);
        restoreMs.push_back(rec.restoreMs);
        if (!counted[rec.job]) {
            counted[rec.job] = 1;
            ++jobsCounted;
            t.add(rec.cold);
            imageBytes += static_cast<double>(rec.imageBytes);
        }
    }

    const double nextNs = t.next.nsPerCall();
    const double runNs = t.measureS * 1e9;
    const double nextTotalNs = nextNs * static_cast<double>(t.next.calls);
    const double l3Total = t.l3Hits + t.l3Remote + t.l3Misses;

    SpanScope drives(spans_, "bench.drives", root_);
    const double isolatedNs = driveWorkload(
        w_, w_.jobs[0].seed, scale.isolatedCalls, spans_, drives.id());
    const HierarchyDrive hier =
        driveHierarchy(w_.jobs[0], scale.driveOps, spans_, drives.id());

    // sweep.*: for a sweep, the traced runMix passes; for a single-job
    // workload, its traced runs on W workers.
    std::vector<double> jobS, queueS;
    double busyNum = 0, busyDen = 0;
    if (w_.sweep) {
        for (const auto &pass : tracedPasses_) {
            for (const auto &o : pass.jobs) {
                jobS.push_back(o.value.runS);
                queueS.push_back(o.value.queueS);
                busyNum += o.value.runS;
            }
            busyDen += opt_.workers * pass.wallS;
        }
    } else {
        for (const auto &rec : traced_) {
            jobS.push_back(rec.cold.wallS);
            jobS.push_back(rec.warm.wallS);
            queueS.push_back(0.0);
            queueS.push_back(0.0);
        }
        for (const auto *runs : {&untraced_, &traced_}) {
            for (const auto &rec : *runs)
                busyNum += rec.cold.wallS + rec.warm.wallS;
        }
        busyDen = opt_.workers * singleWallS_;
    }

    std::vector<Metric> m = {
        {"workload.next_calls", static_cast<double>(t.next.calls),
         "count"},
        {"workload.next_ns", nextNs, "ns"},
        {"workload.isolated_ns", isolatedNs, "ns"},
        {"cpu.ticks", t.ticks, "count"},
        {"cpu.tick_ns", ratio(runNs - nextTotalNs, t.ticks), "ns"},
        {"cpu.ipc_hmean", harmonicMean(t.ipc), "inst/cycle"},
        {"cache.access_ns", hier.cache.nsPerCall(), "ns"},
        {"cache.l3_accesses_per_kinst",
         1000.0 * ratio(t.l3DataAccesses, t.committed), "1/kinst"},
    };
    for (const auto scheme : kSchemes) {
        const std::string s = to_string(scheme);
        m.push_back({"nuca.access_ns." + s, hier.nucaNs.at(s), "ns"});
    }
    const std::vector<Metric> rest = {
        {"nuca.miss_frac", ratio(t.l3Misses, l3Total), "ratio"},
        {"nuca.remote_hit_frac", ratio(t.l3Remote, l3Total), "ratio"},
        {"nuca.repartitions", t.repartitions, "count"},
        {"mem.fetches", t.memFetches, "count"},
        {"mem.queue_cycles_per_fetch",
         ratio(t.memQueueCycles, t.memFetches), "cycles"},
        {"sched.skipped_frac", ratio(t.skipped, t.cycles), "ratio"},
        {"sched.ns_per_cycle", ratio(runNs, t.cycles), "ns"},
        {"sched.wake_heap_pops", t.heapPops, "count"},
        {"sched.horizon_recomputes", t.horizonPushes, "count"},
        {"ckpt.bytes",
         ratio(imageBytes, static_cast<double>(jobsCounted)), "bytes"},
        {"ckpt.save_ms", median(saveMs), "ms"},
        {"ckpt.restore_ms", median(restoreMs), "ms"},
        {"sweep.jobs", static_cast<double>(w_.jobs.size()), "count"},
        {"sweep.job_s_median", median(jobS), "s"},
        {"sweep.job_s_max",
         jobS.empty() ? 0.0 : *std::max_element(jobS.begin(), jobS.end()),
         "s"},
        {"sweep.busy_frac", ratio(busyNum, busyDen), "ratio"},
        {"sweep.queue_s", median(queueS), "s"},
        {"trace.overhead_pct", 100.0 * overhead_, "%"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

int
BenchRun::run()
{
    std::filesystem::create_directories(opt_.outDir);
    const auto &window = w_.jobs[0].window;
    std::printf("nucabench manifest {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"scale\": \"%s\", "
                "\"warmup_cycles\": %llu, \"measure_cycles\": %llu, "
                "\"jobs\": %zu, \"workers\": %u, \"nproc\": %u, "
                "\"git\": \"%s\", \"build_type\": \"%s\", "
                "\"compiler\": \"%s\"}\n",
                w_.name.c_str(), static_cast<unsigned long long>(opt_.seed),
                opt_.seconds, opt_.trace ? 1 : 0,
                opt_.tiny ? "tiny" : "full",
                static_cast<unsigned long long>(window.warmupCycles),
                static_cast<unsigned long long>(window.measureCycles),
                w_.jobs.size(), opt_.workers,
                std::thread::hardware_concurrency(),
                jsonEscape(opt_.gitDescribe).c_str(), NUCABENCH_BUILD_TYPE,
                jsonEscape(__VERSION__).c_str());
    std::fflush(stdout);

    {
        SpanScope workload(spans_, "bench.workload", 0);
        root_ = workload.id();
        referencePass();
        if (w_.sweep)
            runSweep();
        else
            runSingle();
    }
    std::vector<Metric> layer;
    if (opt_.trace)
        layer = layerMetrics();

    const std::vector<Metric> e2e = {
        {"sim_mcycles_per_s", median(mcps_), "Mcycles/s"},
        {"sim_mips", median(mips_), "Minst/s"},
        {"setup_s", median(setupS_), "s"},
        {"sweep_s", median(sweepS_), "s"},
        {"sweep_warm_s", median(sweepWarmS_), "s"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
    };
    printTable("end-to-end (host time unless marked simulated)", e2e);
    std::printf("  %-34s %16.6g  ratio (attempted %llu, failed %llu)\n",
                "failed_frac",
                ratio(static_cast<double>(tally_.failed),
                      static_cast<double>(tally_.attempted)),
                static_cast<unsigned long long>(tally_.attempted),
                static_cast<unsigned long long>(tally_.failed));
    if (w_.sweep) {
        std::printf("  %-34s %+16.2f  %% simulated (paper: +21%%)\n",
                    "adaptive_vs_private_hmean_pct",
                    adaptiveVsPrivatePct_);
    } else {
        std::printf("  %-34s %16s  %% simulated (sweep only)\n",
                    "adaptive_vs_private_hmean_pct", "n/a");
    }
    if (opt_.trace) {
        printTable("per-layer (traced run)", layer);
        printSpanTable(spans_);
        const std::string runId = w_.name + "-" +
                                  std::to_string(opt_.seed) + "-" +
                                  std::to_string(::getpid());
        const std::string path = opt_.outDir + "/spans-" + runId + ".json";
        writeSpans(spans_, path, runId);
        std::printf("spans written to %s\n", path.c_str());
    }

    const std::vector<Metric> &out = opt_.trace ? layer : e2e;
    bool finite = true;
    std::string metrics;
    for (const auto &m : out) {
        finite = finite && std::isfinite(m.value);
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", m.name.c_str(),
                      std::isfinite(m.value) ? m.value : 0.0,
                      m.unit.c_str());
        metrics += buf;
    }
    if (!finite)
        std::fprintf(stderr, "nucabench: a metric is not finite\n");
    const bool correct = tally_.failed == 0 && tally_.attempted > 0 &&
                         finite;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally_.attempted),
                static_cast<unsigned long long>(tally_.failed),
                metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    guardEnvironment();
    guardBuild();
    try {
        BenchRun run(opt, makeWorkload(opt));
        return run.run();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nucabench: %s\n", e.what());
        return 1;
    }
}
