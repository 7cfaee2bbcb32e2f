/**
 * @file
 * End-to-end robustness coverage: every REPRO_FAULT kind must be
 * caught by the layer that claims it (the invariant checker for
 * lru_corrupt, the forward-progress watchdog for mshr_leak and
 * channel_stall), the cycle budget must turn runaway runs into a
 * catchable error, the knob parser must reject malformed specs,
 * and — the flip side — a healthy run under full checking must be
 * bit-identical to one with the robustness layer off.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/cmp_system.hh"
#include "sim/robustness.hh"
#include "sim/run_options.hh"
#include "workload/spec_profiles.hh"

namespace nuca {
namespace {

using ::testing::ExitedWithCode;

std::vector<WorkloadProfile>
lightMix()
{
    return {specProfile("eon"), specProfile("crafty"),
            specProfile("mesa"), specProfile("wupwise")};
}

/** Watchdog-off configuration — the do-nothing baseline. */
RobustnessConfig
quietConfig()
{
    RobustnessConfig config;
    config.watchdogEnabled = false;
    return config;
}

std::vector<Counter>
committedAfter(CmpSystem &system, Cycle cycles)
{
    system.run(cycles);
    std::vector<Counter> out;
    for (unsigned c = 0; c < system.numCores(); ++c)
        out.push_back(
            system.coreAt(static_cast<CoreId>(c)).committed());
    return out;
}

// ---------------------------------------------------------------
// Knob parsing (RunOptions::parse over an explicit REPRO_* map).

SweepPolicy
sweepOf(const std::string &fail)
{
    return RunOptions::parse({{"REPRO_FAIL", fail}}).sweep;
}

FaultSpec
faultOf(const std::string &spec)
{
    return RunOptions::parse({{"REPRO_FAULT", spec}})
        .run.robustness.fault;
}

TEST(SweepPolicyEnv, ParsesEveryMode)
{
    EXPECT_EQ(RunOptions::parse({}).sweep.onFail, FailPolicy::Abort);
    EXPECT_EQ(sweepOf("abort").onFail, FailPolicy::Abort);
    EXPECT_EQ(sweepOf("skip").onFail, FailPolicy::Skip);

    const auto policy = sweepOf("retry:3");
    EXPECT_EQ(policy.onFail, FailPolicy::Retry);
    EXPECT_EQ(policy.retries, 3u);
}

TEST(SweepPolicyEnv, ReadsRetryTuningKnobs)
{
    auto policy = RunOptions::parse({}).sweep;
    EXPECT_EQ(policy.backoffMs, 100u);
    EXPECT_EQ(policy.maxCrashes, 2u);

    policy = RunOptions::parse({{"REPRO_RETRY_BACKOFF_MS", "0"},
                                {"REPRO_QUARANTINE", "5"}})
                 .sweep;
    EXPECT_EQ(policy.backoffMs, 0u);
    EXPECT_EQ(policy.maxCrashes, 5u);
}

TEST(SweepPolicyEnv, RejectsMalformedSpecs)
{
    EXPECT_EXIT(sweepOf("continue"), ExitedWithCode(1), "REPRO_FAIL");
    EXPECT_EXIT(sweepOf("retry:0"), ExitedWithCode(1), "N >= 1");
    EXPECT_EXIT(sweepOf("retry:x"), ExitedWithCode(1), "non-numeric");
}

TEST(FaultSpecEnv, ParsesKindsAndArguments)
{
    EXPECT_FALSE(RunOptions::parse({}).run.robustness.fault.enabled());

    auto fault = faultOf("lru_corrupt");
    EXPECT_EQ(fault.kind, FaultKind::LruCorrupt);
    EXPECT_EQ(fault.arg, 0u);
    EXPECT_TRUE(fault.isSimFault());

    fault = faultOf("mshr_leak:5000");
    EXPECT_EQ(fault.kind, FaultKind::MshrLeak);
    EXPECT_EQ(fault.arg, 5000u);

    EXPECT_EQ(faultOf("channel_stall").kind, FaultKind::ChannelStall);

    fault = faultOf("throw_job:7");
    EXPECT_EQ(fault.kind, FaultKind::ThrowJob);
    EXPECT_EQ(fault.arg, 7u);
    EXPECT_FALSE(fault.isSimFault());
    EXPECT_TRUE(fault.isJobFault());
    EXPECT_FALSE(fault.isCrashFault());

    // The crash kinds: job faults that take their process down, so
    // they are flagged for the REPRO_ISOLATE=proc requirement.
    fault = faultOf("segv:2");
    EXPECT_EQ(fault.kind, FaultKind::SegvJob);
    EXPECT_EQ(fault.arg, 2u);
    EXPECT_TRUE(fault.isJobFault());
    EXPECT_TRUE(fault.isCrashFault());

    fault = faultOf("oom:1");
    EXPECT_EQ(fault.kind, FaultKind::OomJob);
    EXPECT_TRUE(fault.isCrashFault());

    fault = faultOf("hang:0");
    EXPECT_EQ(fault.kind, FaultKind::HangJob);
    EXPECT_TRUE(fault.isCrashFault());
    EXPECT_STREQ(to_string(FaultKind::SegvJob), "segv");
    EXPECT_STREQ(to_string(FaultKind::OomJob), "oom");
    EXPECT_STREQ(to_string(FaultKind::HangJob), "hang");
}

TEST(FaultSpecEnv, RejectsMalformedSpecs)
{
    EXPECT_EXIT(faultOf("bit_flip"), ExitedWithCode(1),
                "REPRO_FAULT kind");
    EXPECT_EXIT(faultOf("throw_job"), ExitedWithCode(1), "job index");
    // Every job-fault kind requires its ":K" target index.
    EXPECT_EXIT(faultOf("segv"), ExitedWithCode(1), "job index");
    EXPECT_EXIT(faultOf("hang"), ExitedWithCode(1), "job index");
}

TEST(FaultInjection, ThrowJobFiresOnlyOnItsTarget)
{
    FaultSpec fault;
    fault.kind = FaultKind::ThrowJob;
    fault.arg = 3;
    // Other jobs (and disabled specs) pass through untouched.
    EXPECT_NO_THROW(injectJobFault(fault, 2, "private.mix2"));
    EXPECT_NO_THROW(injectJobFault(FaultSpec{}, 3, "private.mix3"));
    try {
        injectJobFault(fault, 3, "private.mix3");
        FAIL() << "expected SimulationError";
    } catch (const SimulationError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("fault injection"), std::string::npos);
        EXPECT_NE(what.find("private.mix3"), std::string::npos);
    }
}

TEST(RobustnessConfigEnv, ReadsKnobsAndDefaults)
{
    auto config = RunOptions::parse({}).run.robustness;
    EXPECT_FALSE(config.checkEnabled);
    EXPECT_TRUE(config.watchdogEnabled);
    EXPECT_EQ(config.watchdogWindow, 1000000u);
    EXPECT_EQ(config.mshrAgeBound, config.watchdogWindow);
    EXPECT_EQ(config.maxCycles, 0u);

    config = RunOptions::parse({{"REPRO_CHECK", "1"},
                                {"REPRO_WATCHDOG", "0"},
                                {"REPRO_WATCHDOG_WINDOW", "4096"},
                                {"REPRO_MAX_CYCLES", "123456"}})
                 .run.robustness;
    EXPECT_TRUE(config.checkEnabled);
    EXPECT_FALSE(config.watchdogEnabled);
    EXPECT_EQ(config.watchdogWindow, 4096u);
    // The MSHR age bound follows the window.
    EXPECT_EQ(config.mshrAgeBound, 4096u);
    EXPECT_EQ(config.maxCycles, 123456u);
}

TEST(RobustnessConfigEnv, RunPolicyReachesTheSystem)
{
    // The constructor starts from the defaults, whatever the process
    // environment holds; applyRunPolicy installs the parsed knobs.
    CmpSystem system(SystemConfig::baseline(L3Scheme::Private),
                     lightMix(), 1);
    EXPECT_FALSE(system.robustness().checkEnabled);
    EXPECT_EQ(system.robustness().watchdogWindow, 1000000u);

    applyRunPolicy(system,
                   RunOptions::parse({{"REPRO_CHECK", "1"},
                                      {"REPRO_WATCHDOG_WINDOW", "2048"}})
                       .run);
    EXPECT_TRUE(system.robustness().checkEnabled);
    EXPECT_EQ(system.robustness().watchdogWindow, 2048u);
}

// ---------------------------------------------------------------
// Fault: channel_stall -> zero-retirement watchdog.

TEST(RobustnessFault, ChannelStallCaughtByWatchdog)
{
    CmpSystem system(SystemConfig::baseline(L3Scheme::Adaptive),
                     lightMix(), 1);
    RobustnessConfig config;
    config.watchdogWindow = 3000;
    // Keep the age bound out of the way so the zero-retirement
    // detector is the one that reports.
    config.mshrAgeBound = 1u << 30;
    config.fault.kind = FaultKind::ChannelStall;
    config.fault.arg = 1000;
    system.setRobustness(config);

    try {
        system.run(2000000);
        FAIL() << "expected SimulationStalled";
    } catch (const SimulationStalled &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("no instruction retired"),
                  std::string::npos)
            << what;
        // The diagnostic snapshot names every core and the channel.
        EXPECT_NE(what.find("core0"), std::string::npos) << what;
        EXPECT_NE(what.find("core3"), std::string::npos) << what;
        EXPECT_NE(what.find("busy_until"), std::string::npos) << what;
    }
    // The stall was detected long before the requested horizon.
    EXPECT_LT(system.now(), 2000000u);
}

// ---------------------------------------------------------------
// Fault: mshr_leak -> MSHR age bound watchdog.

TEST(RobustnessFault, MshrLeakCaughtByWatchdog)
{
    CmpSystem system(SystemConfig::baseline(L3Scheme::Private),
                     lightMix(), 1);
    RobustnessConfig config;
    // Cores keep retiring around the leak, so the zero-retirement
    // window must not be the detector here.
    config.watchdogWindow = 1u << 30;
    config.mshrAgeBound = 4000;
    config.fault.kind = FaultKind::MshrLeak;
    config.fault.arg = 500;
    system.setRobustness(config);

    try {
        system.run(2000000);
        FAIL() << "expected SimulationStalled";
    } catch (const SimulationStalled &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("MSHR entry outstanding"),
                  std::string::npos)
            << what;
    }
    EXPECT_LT(system.now(), 2000000u);
}

// ---------------------------------------------------------------
// Fault: lru_corrupt -> periodic invariant checker (panics).

TEST(RobustnessFaultDeathTest, LruCorruptCaughtByChecker)
{
    const auto corruptedRun = [](L3Scheme scheme) {
        CmpSystem system(SystemConfig::baseline(scheme), lightMix(),
                         1);
        RobustnessConfig config = quietConfig();
        config.checkEnabled = true;
        config.checkPeriod = 2000;
        config.fault.kind = FaultKind::LruCorrupt;
        config.fault.arg = 1000;
        system.setRobustness(config);
        system.run(100000);
    };
    // The corruption is planted in whichever L3 organization runs;
    // both the flat per-set checker (private) and the adaptive
    // organization's structural pass must catch it.
    EXPECT_DEATH(corruptedRun(L3Scheme::Private),
                 "share use stamp");
    EXPECT_DEATH(corruptedRun(L3Scheme::Adaptive),
                 "share use stamp");
}

// ---------------------------------------------------------------
// Cycle budget.

TEST(RobustnessBudget, MaxCyclesRaisesCycleBudgetExceeded)
{
    CmpSystem system(SystemConfig::baseline(L3Scheme::Private),
                     lightMix(), 1);
    RobustnessConfig config = quietConfig();
    config.maxCycles = 5000;
    system.setRobustness(config);
    EXPECT_THROW(system.run(100000), CycleBudgetExceeded);
    EXPECT_GE(system.now(), 5000u);
    EXPECT_LT(system.now(), 100000u);
}

TEST(RobustnessBudget, GenerousBudgetIsSilent)
{
    CmpSystem system(SystemConfig::baseline(L3Scheme::Private),
                     lightMix(), 1);
    RobustnessConfig config = quietConfig();
    config.maxCycles = 1u << 30;
    system.setRobustness(config);
    EXPECT_NO_THROW(system.run(20000));
    EXPECT_EQ(system.now(), 20000u);
}

// ---------------------------------------------------------------
// The healthy-run contract: checking is purely observational.

TEST(RobustnessOverhead, CheckedRunIsBitIdenticalToUncheckedRun)
{
    for (const auto scheme : {L3Scheme::Private, L3Scheme::Shared,
                              L3Scheme::Adaptive,
                              L3Scheme::RandomReplacement}) {
        CmpSystem plain(SystemConfig::baseline(scheme), lightMix(),
                        42);
        plain.setRobustness(quietConfig());

        CmpSystem checked(SystemConfig::baseline(scheme), lightMix(),
                          42);
        RobustnessConfig config;
        config.checkEnabled = true;
        config.checkPeriod = 3000;
        config.watchdogEnabled = true;
        config.watchdogWindow = 5000;
        checked.setRobustness(config);

        EXPECT_EQ(committedAfter(plain, 40000),
                  committedAfter(checked, 40000))
            << "scheme " << static_cast<int>(scheme);
    }
}

TEST(RobustnessCheck, HealthyStructuresPassAnExplicitPass)
{
    for (const auto scheme : {L3Scheme::Private, L3Scheme::Shared,
                              L3Scheme::Adaptive,
                              L3Scheme::RandomReplacement}) {
        CmpSystem system(SystemConfig::baseline(scheme), lightMix(),
                         7);
        system.run(30000);
        system.checkStructuralInvariants(); // must not panic
    }
}

TEST(RobustnessWatchdog, HealthyRunNeverTrips)
{
    CmpSystem system(SystemConfig::baseline(L3Scheme::Adaptive),
                     lightMix(), 3);
    RobustnessConfig config;
    config.watchdogWindow = 5000;
    // Healthy entries can outlive the memory round trip when the
    // channel queues; the bound must sit above worst-case queueing.
    config.mshrAgeBound = 10000;
    system.setRobustness(config);
    EXPECT_NO_THROW(system.run(50000));
}

} // namespace
} // namespace nuca
