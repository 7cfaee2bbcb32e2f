#include "base/profiler.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <ostream>
#include <sstream>
#include <vector>

#include "base/logging.hh"

namespace nuca {
namespace prof {

namespace {

struct PhaseInfo
{
    const char *name;
    Phase parent;
    unsigned sampleShift;
};

/**
 * Static phase table. Sample shifts are sized from BENCH_perf.json's
 * compute_bound numbers (~475 ns per core-tick): per-tick phases at
 * shift 6 cost ~5 clock reads per 64 ticks, per-miss phases at
 * shift 2 only run off the L1-hit fast path, and everything else is
 * rare enough to time exactly.
 */
constexpr PhaseInfo kPhases[kNumPhases] = {
    // Phase::Run
    {"run", Phase::NumPhases, 0},
    // Phase::CoreTick
    {"core_tick", Phase::Run, 6},
    // Phase::CommitStage
    {"commit_stage", Phase::CoreTick, 6},
    // Phase::IssueStage
    {"issue_stage", Phase::CoreTick, 6},
    // Phase::DispatchStage
    {"dispatch_stage", Phase::CoreTick, 6},
    // Phase::FetchStage
    {"fetch_stage", Phase::CoreTick, 6},
    // Phase::CacheMissWalk
    {"cache_miss_walk", Phase::CoreTick, 2},
    // Phase::L3Access
    {"l3_access", Phase::CacheMissWalk, 2},
    // Phase::CoreAdvance
    {"core_advance", Phase::Run, 6},
    // Phase::WakeHeap
    {"wake_heap", Phase::Run, 6},
    // Phase::UncoreDrain
    {"uncore_drain", Phase::Run, 0},
    // Phase::TelemetrySample
    {"telemetry_sample", Phase::Run, 0},
    // Phase::HeatmapSample
    {"heatmap_sample", Phase::TelemetrySample, 0},
    // Phase::TelemetryFlush
    {"telemetry_flush", Phase::NumPhases, 0},
    // Phase::CheckpointSave
    {"checkpoint_save", Phase::NumPhases, 0},
    // Phase::CheckpointRestore
    {"checkpoint_restore", Phase::NumPhases, 0},
    // Phase::Job
    {"job", Phase::NumPhases, 0},
};

constexpr const char *kCounterNames[kNumCounters] = {
    "trace_records",       "trace_flushes",    "heatmap_records",
    "fastforward_jumps",   "fastforward_cycles",
    "decoupled_batched_cycles", "wake_heap_pops",
    "horizon_recomputes",
    "checkpoint_bytes_out", "checkpoint_bytes_in", "jobs_finished",
    "job_retries",          "job_crashes",
};

/** Exited-thread totals plus the registry of live thread states. */
struct Registry
{
    std::mutex mutex;
    detail::ThreadState merged;
    std::vector<detail::ThreadState *> live;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

void
addInto(detail::ThreadState &dst, const detail::ThreadState &src)
{
    for (unsigned i = 0; i < kNumPhases; ++i) {
        dst.entries[i] += src.entries[i];
        dst.timed[i] += src.timed[i];
        dst.ns[i] += src.ns[i];
    }
    for (unsigned i = 0; i < kNumCounters; ++i)
        dst.counters[i] += src.counters[i];
}

/** Registers the thread's state on construction and folds it into
 * the merged totals when the thread exits. */
struct ThreadHolder
{
    detail::ThreadState state;

    ThreadHolder()
    {
        auto &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        r.live.push_back(&state);
    }

    ~ThreadHolder()
    {
        auto &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        addInto(r.merged, state);
        for (auto it = r.live.begin(); it != r.live.end(); ++it) {
            if (*it == &state) {
                r.live.erase(it);
                break;
            }
        }
    }
};

std::string
humanTime(double seconds)
{
    char buf[32];
    if (seconds >= 1.0)
        std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
    else if (seconds >= 1e-3)
        std::snprintf(buf, sizeof(buf), "%.2f ms", seconds * 1e3);
    else if (seconds >= 1e-6)
        std::snprintf(buf, sizeof(buf), "%.2f us", seconds * 1e6);
    else
        std::snprintf(buf, sizeof(buf), "%.0f ns", seconds * 1e9);
    return buf;
}

std::string
humanCount(std::uint64_t n)
{
    char buf[32];
    if (n >= 10'000'000ull)
        std::snprintf(buf, sizeof(buf), "%.1f M", n / 1e6);
    else if (n >= 10'000ull)
        std::snprintf(buf, sizeof(buf), "%.1f k", n / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(n));
    return buf;
}

void
reportPhase(std::ostream &os, const Snapshot &snap, Phase p,
            unsigned depth, double wall_seconds)
{
    const auto i = static_cast<unsigned>(p);
    const std::uint64_t calls = snap.estCalls(p);
    if (calls == 0 && snap.timed[i] == 0)
        return;

    const double est = snap.estNs(p) / 1e9;
    std::ostringstream name;
    for (unsigned d = 0; d < depth; ++d)
        name << "  ";
    name << phaseName(p);
    if (phaseSampleShift(p) > 0)
        name << " ~";

    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %-28s %10s %6.1f%% %10s %10s\n",
                  name.str().c_str(), humanTime(est).c_str(),
                  wall_seconds > 0 ? 100.0 * est / wall_seconds : 0.0,
                  humanCount(calls).c_str(),
                  calls ? humanTime(est / calls).c_str() : "-");
    os << line;

    for (unsigned c = 0; c < kNumPhases; ++c) {
        const auto child = static_cast<Phase>(c);
        if (phaseParent(child) == p)
            reportPhase(os, snap, child, depth + 1, wall_seconds);
    }
}

} // namespace

const char *
phaseName(Phase p)
{
    return kPhases[static_cast<unsigned>(p)].name;
}

Phase
phaseParent(Phase p)
{
    return kPhases[static_cast<unsigned>(p)].parent;
}

unsigned
phaseSampleShift(Phase p)
{
    return kPhases[static_cast<unsigned>(p)].sampleShift;
}

bool
enabledFromEnv()
{
    const char *e = std::getenv("REPRO_PROFILE");
    return e && *e && std::strcmp(e, "0") != 0;
}

void
setEnabled(bool on)
{
    enabledFlag().store(on, std::memory_order_relaxed);
}

namespace detail {

ThreadState &
threadState()
{
    thread_local ThreadHolder holder;
    return holder.state;
}

std::uint64_t
timerPairNs()
{
    // The overhead a nested timed scope imposes on an enclosing
    // timer is dominated by its two clock reads; measure that pair
    // cost once, averaged over enough iterations to swamp the
    // enclosing reads and loop control. The per-iteration deltas
    // feed a sink so the reads cannot be optimized away.
    static const std::uint64_t cost = [] {
        constexpr unsigned kIters = 8192;
        std::uint64_t sink = 0;
        const auto t0 = Clock::now();
        for (unsigned i = 0; i < kIters; ++i) {
            const auto a = Clock::now();
            const auto b = Clock::now();
            sink += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    b - a)
                    .count());
        }
        const auto t1 = Clock::now();
        static volatile std::uint64_t escape;
        escape = sink;
        (void)escape;
        return static_cast<std::uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       t1 - t0)
                       .count()) /
               kIters;
    }();
    return cost;
}

} // namespace detail

std::uint64_t
Snapshot::estNs(Phase p) const
{
    return ns[static_cast<unsigned>(p)] << phaseSampleShift(p);
}

std::uint64_t
Snapshot::estCalls(Phase p) const
{
    const auto i = static_cast<unsigned>(p);
    if (entries[i])
        return entries[i];
    return timed[i] << phaseSampleShift(p);
}

Snapshot
snapshot()
{
    auto &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    detail::ThreadState sum = r.merged;
    for (const auto *ts : r.live)
        addInto(sum, *ts);

    Snapshot out;
    for (unsigned i = 0; i < kNumPhases; ++i) {
        out.entries[i] = sum.entries[i];
        out.timed[i] = sum.timed[i];
        out.ns[i] = sum.ns[i];
    }
    for (unsigned i = 0; i < kNumCounters; ++i)
        out.counters[i] = sum.counters[i];
    return out;
}

void
resetAll()
{
    auto &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.merged = detail::ThreadState{};
    for (auto *ts : r.live)
        *ts = detail::ThreadState{};
}

void
writeReport(std::ostream &os, double wall_seconds)
{
    const Snapshot snap = snapshot();

    double rootSum = 0.0;
    for (unsigned i = 0; i < kNumPhases; ++i) {
        const auto p = static_cast<Phase>(i);
        if (phaseParent(p) == Phase::NumPhases)
            rootSum += snap.estNs(p) / 1e9;
    }
    const double wall = wall_seconds > 0 ? wall_seconds : rootSum;

    os << "host self-profile";
    if (wall > 0)
        os << " (attributed against " << humanTime(wall) << " wall)";
    os << "\n";
    char header[160];
    std::snprintf(header, sizeof(header),
                  "  %-28s %10s %7s %10s %10s\n", "phase", "est.time",
                  "%wall", "calls", "avg");
    os << header;
    for (unsigned i = 0; i < kNumPhases; ++i) {
        const auto p = static_cast<Phase>(i);
        if (phaseParent(p) == Phase::NumPhases)
            reportPhase(os, snap, p, 0, wall);
    }

    bool anyCounter = false;
    for (unsigned i = 0; i < kNumCounters; ++i)
        anyCounter |= snap.counters[i] != 0;
    if (anyCounter) {
        os << "  counters\n";
        for (unsigned i = 0; i < kNumCounters; ++i) {
            if (!snap.counters[i])
                continue;
            char line[96];
            std::snprintf(line, sizeof(line), "    %-26s %12llu\n",
                          kCounterNames[i],
                          static_cast<unsigned long long>(
                              snap.counters[i]));
            os << line;
        }
    }
    os << "  ~ = sampled phase: times scaled from 1/2^shift "
          "timed calls\n";
}

void
writeJsonReport(std::ostream &os)
{
    // Hand-written JSON: every key is a static identifier and every
    // value an integer, so no escaping is needed (nuca_base sits
    // below the JSON layer in nuca_sim).
    const Snapshot snap = snapshot();
    os << "{\"version\": 1, \"enabled\": "
       << (enabled() ? "true" : "false") << ", \"phases\": [";
    bool first = true;
    for (unsigned i = 0; i < kNumPhases; ++i) {
        const auto p = static_cast<Phase>(i);
        if (snap.estCalls(p) == 0)
            continue;
        if (!first)
            os << ", ";
        first = false;
        os << "{\"name\": \"" << phaseName(p) << "\", \"parent\": ";
        if (phaseParent(p) == Phase::NumPhases)
            os << "null";
        else
            os << "\"" << phaseName(phaseParent(p)) << "\"";
        os << ", \"est_ns\": " << snap.estNs(p)
           << ", \"calls_est\": " << snap.estCalls(p)
           << ", \"timed_calls\": " << snap.timed[i]
           << ", \"sample_shift\": " << phaseSampleShift(p) << "}";
    }
    os << "], \"counters\": {";
    first = true;
    for (unsigned i = 0; i < kNumCounters; ++i) {
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << kCounterNames[i] << "\": " << snap.counters[i];
    }
    os << "}}";
}

std::string
jsonReport()
{
    std::ostringstream os;
    writeJsonReport(os);
    return os.str();
}

namespace {

void
reportAtExit()
{
    if (!enabled())
        return;
    std::ostringstream os;
    writeReport(os);
    std::fputs(os.str().c_str(), stderr);
    if (const char *out = std::getenv("REPRO_PROFILE_OUT");
        out && *out) {
        std::ofstream f(out);
        if (f) {
            writeJsonReport(f);
            f << "\n";
        }
        if (!f)
            warn("profiler: could not write REPRO_PROFILE_OUT=", out);
    }
}

} // namespace

void
initFromEnv()
{
    static bool done = false;
    if (done)
        return;
    done = true;
    if (enabledFromEnv()) {
        setEnabled(true);
        std::atexit(reportAtExit);
    }
}

} // namespace prof
} // namespace nuca
