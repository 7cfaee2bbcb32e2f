/**
 * @file
 * Differential tests for the skipping run loop: the decoupled
 * per-core event scheduler (the default) must be bit-identical to
 * the cycle-by-cycle reference loop (REPRO_FASTFWD=0) — same
 * statistics, same telemetry records, same checkpoint bytes — for
 * every L3 scheme, with tracing and the robustness machinery active,
 * across a checkpoint/restore boundary (including restoring into a
 * system running the other loop), and when a run is cut into many
 * short run() windows.
 *
 * The observability matrix rides the same contract: the host
 * self-profiler and the spatial heatmaps must be strictly
 * observational, so a profiled + heatmapped fast-forward run has to
 * produce the same stats, checkpoint bytes, and (heatmap records
 * aside) the same telemetry as the bare reference run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "base/profiler.hh"
#include "serialize/serializer.hh"
#include "sim/cmp_system.hh"
#include "sim/robustness.hh"
#include "sim/telemetry.hh"
#include "workload/spec_profiles.hh"

namespace nuca {
namespace {

/** Keeps every record as its compact JSON text for comparison. */
class RecordingSink final : public TraceSink
{
  public:
    void
    write(const json::Value &record) override
    {
        lines.push_back(record.dump());
    }
    std::vector<std::string> lines;
};

/** The memory-intensive mix the fast-forward path is aimed at. */
std::vector<WorkloadProfile>
memoryMix()
{
    return {specProfile("mcf"), specProfile("art"),
            specProfile("swim"), specProfile("equake")};
}

/**
 * A cache-resident ALU-heavy mix (perf_bench's "compute_bound"
 * shape): almost no cycle is skippable, so the differential runs
 * almost entirely through the busy-core tick path — the issue
 * scheduler's ready-set walk, parked store-blocked loads, and the
 * completion ring — instead of the stall-skipping machinery the
 * memory mix exercises.
 */
std::vector<WorkloadProfile>
computeMix()
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
    return {p, p, p, p};
}

/** Robustness setup that actually interleaves with the jumps. */
RobustnessConfig
activeRobustness()
{
    RobustnessConfig rc;
    rc.checkEnabled = true;
    rc.checkPeriod = 7000; // deliberately no common factor with the
                           // telemetry period below
    rc.watchdogEnabled = true;
    return rc;
}

constexpr Cycle kTracePeriod = 5000;
constexpr std::uint64_t kSeed = 321;

struct RunArtifacts
{
    std::string stats;
    std::vector<std::uint8_t> machine;
    std::vector<std::string> trace;
    Counter skipped = 0;
};

/** Observability switches for one differential run. */
struct ObsOptions
{
    bool profile = false;
    bool heatmap = false;
};

/** Flips the global profiler flag and restores it on scope exit. */
class ProfileGuard
{
  public:
    explicit ProfileGuard(bool on) : prev_(prof::enabled())
    {
        prof::setEnabled(on);
    }
    ~ProfileGuard() { prof::setEnabled(prev_); }

  private:
    bool prev_;
};

/** Which of the two run loops a differential run uses. */
enum class LoopMode { Reference, Decoupled };

void
selectLoop(CmpSystem &system, LoopMode mode)
{
    system.setFastForward(mode == LoopMode::Decoupled);
}

/** @p window > 0 cuts the run into run() calls of that many cycles. */
RunArtifacts
runOnce(L3Scheme scheme, LoopMode mode, Cycle cycles,
        const std::vector<WorkloadProfile> &mix = memoryMix(),
        const ObsOptions &obs = {}, Cycle window = 0)
{
    ProfileGuard profiling(obs.profile);
    CmpSystem system(SystemConfig::baseline(scheme), mix, kSeed);
    selectLoop(system, mode);
    system.setRobustness(activeRobustness());
    RecordingSink sink;
    system.attachTelemetry(&sink, kTracePeriod);
    if (obs.heatmap) {
        EXPECT_TRUE(system.enableHeatmap(16));
    }
    if (window == 0)
        window = cycles;
    for (Cycle done = 0; done < cycles; done += window)
        system.run(std::min(window, cycles - done));

    RunArtifacts out;
    std::ostringstream os;
    system.statsRoot().dump(os);
    out.stats = os.str();
    Serializer s;
    system.checkpoint(s);
    out.machine = s.bytes();
    out.trace = sink.lines;
    out.skipped = system.fastForwardedCycles();
    return out;
}

TEST(FastForward, BitIdenticalToReferenceForEveryScheme)
{
    for (const auto scheme :
         {L3Scheme::Private, L3Scheme::Shared, L3Scheme::Adaptive,
          L3Scheme::RandomReplacement}) {
        const RunArtifacts ref =
            runOnce(scheme, LoopMode::Reference, 60000);
        EXPECT_EQ(ref.skipped, 0u);
        const RunArtifacts ff =
            runOnce(scheme, LoopMode::Decoupled, 60000);

        // The point of the test: a skipping and a non-skipping run
        // are indistinguishable from every observable surface.
        EXPECT_EQ(ff.stats, ref.stats) << "scheme " << to_string(scheme);
        EXPECT_EQ(ff.machine, ref.machine)
            << "scheme " << to_string(scheme);
        EXPECT_EQ(ff.trace, ref.trace) << "scheme " << to_string(scheme);
        EXPECT_FALSE(ff.trace.empty());

        // ...and the fast path genuinely exercised itself.
        EXPECT_GT(ff.skipped, 0u) << "scheme " << to_string(scheme);
    }
}

TEST(FastForward, BitIdenticalOnComputeBoundMix)
{
    // The busy-core counterpart of the scheme sweep above: with
    // nearly every cycle active, any divergence here points at the
    // issue/commit hot path itself (ready-set walk order, parked
    // load wakeup, completion-ring reuse) or, for the decoupled
    // scheduler, at its dense-cohort lockstep sub-loop, rather than
    // at the jump logic.
    for (const auto scheme : {L3Scheme::Adaptive, L3Scheme::Shared}) {
        const RunArtifacts ref = runOnce(scheme, LoopMode::Reference,
                                         60000, computeMix());
        const RunArtifacts ff = runOnce(scheme, LoopMode::Decoupled,
                                        60000, computeMix());
        EXPECT_EQ(ff.stats, ref.stats) << "scheme " << to_string(scheme);
        EXPECT_EQ(ff.machine, ref.machine)
            << "scheme " << to_string(scheme);
        EXPECT_EQ(ff.trace, ref.trace) << "scheme " << to_string(scheme);
        EXPECT_FALSE(ff.trace.empty());
    }
}

TEST(FastForward, ObservabilityPreservesBitIdentity)
{
    // Profiler + heatmaps on, against the bare reference run. The
    // observability layer must not perturb the simulation: stats and
    // checkpoint bytes stay identical, and removing the (purely
    // additive) heatmap records recovers the baseline telemetry
    // byte for byte.
    bool sawHeatmap = false;
    for (const auto scheme :
         {L3Scheme::Private, L3Scheme::Shared, L3Scheme::Adaptive,
          L3Scheme::RandomReplacement}) {
        const RunArtifacts ref =
            runOnce(scheme, LoopMode::Reference, 60000);
        const RunArtifacts obs = runOnce(scheme, LoopMode::Decoupled,
                                         60000, memoryMix(),
                                         ObsOptions{true, true});

        EXPECT_EQ(obs.stats, ref.stats)
            << "scheme " << to_string(scheme);
        EXPECT_EQ(obs.machine, ref.machine)
            << "scheme " << to_string(scheme);

        std::vector<std::string> filtered;
        std::size_t heatRecords = 0;
        for (const auto &line : obs.trace) {
            const auto record = json::Value::tryParse(line);
            ASSERT_TRUE(record.has_value());
            if (record->at("type").asString() == "heatmap") {
                ++heatRecords;
                EXPECT_GT(record->at("banks").asNumber(), 0.0);
                EXPECT_GT(record->at("buckets").asNumber(), 0.0);
            } else {
                filtered.push_back(line);
            }
        }
        EXPECT_EQ(filtered, ref.trace)
            << "scheme " << to_string(scheme);
        EXPECT_GT(heatRecords, 0u)
            << "scheme " << to_string(scheme);
        sawHeatmap |= heatRecords > 0;
    }
    EXPECT_TRUE(sawHeatmap);

    // The profiled runs must also have fed the profiler: the run
    // phase and the per-tick samples both saw entries.
    const prof::Snapshot snap = prof::snapshot();
    EXPECT_GT(snap.estCalls(prof::Phase::Run), 0u);
    EXPECT_GT(snap.estCalls(prof::Phase::CoreTick), 0u);
}

TEST(FastForward, SurvivesCheckpointRestoreCrossover)
{
    const SystemConfig config =
        SystemConfig::baseline(L3Scheme::Adaptive);
    constexpr Cycle before = 30000, after = 30000;

    // Phase 1 in both loops; the snapshots must already agree.
    auto firstHalf = [&](LoopMode mode) {
        CmpSystem system(config, memoryMix(), kSeed);
        selectLoop(system, mode);
        system.setRobustness(activeRobustness());
        system.run(before);
        Serializer s;
        system.checkpoint(s);
        return s.bytes();
    };
    const auto refBytes = firstHalf(LoopMode::Reference);
    ASSERT_EQ(firstHalf(LoopMode::Decoupled), refBytes);

    // Phase 2: restore the reference loop's snapshot into a system
    // running each loop — a mid-run loop crossover. Both resume from
    // identical state, so any divergence is the skipping path's fault
    // alone.
    auto secondHalf = [&](LoopMode mode) {
        CmpSystem system(config, memoryMix(), kSeed);
        Deserializer d(refBytes.data(), refBytes.size());
        system.restore(d);
        selectLoop(system, mode);
        system.setRobustness(activeRobustness());
        EXPECT_EQ(system.now(), before);
        system.run(after);
        Serializer s;
        system.checkpoint(s);
        std::ostringstream os;
        system.statsRoot().dump(os);
        return std::make_pair(s.bytes(), os.str());
    };
    const auto [refFinal, refStats] =
        secondHalf(LoopMode::Reference);
    const auto [bytes, stats] = secondHalf(LoopMode::Decoupled);
    EXPECT_EQ(bytes, refFinal);
    EXPECT_EQ(stats, refStats);
}

TEST(FastForward, ShortRunWindowsPreserveBitIdentity)
{
    // 16-cycle run() windows make advance() batches end mid-stall
    // constantly, exercising the pending-span handoff between
    // OooCore::advance's internal folds, the settle at every run()
    // exit, and the wake-heap rebuild at every entry.
    const RunArtifacts windowed =
        runOnce(L3Scheme::Adaptive, LoopMode::Decoupled, 60000,
                memoryMix(), {}, 16);
    const RunArtifacts ref =
        runOnce(L3Scheme::Adaptive, LoopMode::Reference, 60000);
    EXPECT_EQ(windowed.stats, ref.stats);
    EXPECT_EQ(windowed.machine, ref.machine);
    EXPECT_EQ(windowed.trace, ref.trace);
    EXPECT_GT(windowed.skipped, 0u);
}

TEST(FastForward, EnvEscapeHatchesSelectTheLoop)
{
    const SystemConfig config =
        SystemConfig::baseline(L3Scheme::Shared);

    // Default: the decoupled scheduler.
    {
        CmpSystem system(config, memoryMix(), kSeed);
        EXPECT_TRUE(system.fastForwardEnabled());
    }
    // REPRO_FASTFWD=0 selects the reference loop.
    ASSERT_EQ(::setenv("REPRO_FASTFWD", "0", 1), 0);
    {
        CmpSystem system(config, memoryMix(), kSeed);
        EXPECT_FALSE(system.fastForwardEnabled());
        system.run(2000);
        EXPECT_EQ(system.fastForwardedCycles(), 0u);
    }
    ASSERT_EQ(::unsetenv("REPRO_FASTFWD"), 0);
}

TEST(FastForward, SchedulerDiagnosticsAccumulate)
{
    // The decoupled scheduler's host-side counters: every executed
    // tick is attributed to its core, batches land in the span
    // histogram, and the heap sees pops and horizon pushes. None of
    // this is part of the simulation (the bit-identity tests above
    // prove that); this pins the diagnostics themselves.
    CmpSystem system(SystemConfig::baseline(L3Scheme::Adaptive),
                     memoryMix(), kSeed);
    selectLoop(system, LoopMode::Decoupled);
    system.run(30000);

    Counter ticks = 0;
    for (unsigned c = 0; c < system.numCores(); ++c)
        ticks += system.coreTicksExecuted(static_cast<CoreId>(c));
    EXPECT_GT(ticks, 0u);
    EXPECT_LT(ticks, 4u * 30000u); // something was skipped
    EXPECT_GT(system.wakeHeapPops(), 0u);
    EXPECT_GT(system.horizonRecomputes(), 0u);
    EXPECT_GT(system.decoupledBatchedCycles(), 0u);
    Counter batches = 0;
    for (const Counter n : system.horizonHistogram())
        batches += n;
    EXPECT_GT(batches, 0u);
}

} // namespace
} // namespace nuca
