/**
 * @file
 * RunOptions::parse: the one place REPRO_* knobs are read. Defaults,
 * range checks on narrowed fields, the unknown-name warning, the
 * binary-specific knobs, and the README table of knobs.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "sim/run_options.hh"

namespace nuca {
namespace {

using ::testing::ExitedWithCode;

TEST(RunOptions, EmptyEnvironmentGivesTheDefaults)
{
    const RunOptions opts = RunOptions::parse({});
    const RunPolicy plain;
    EXPECT_FALSE(opts.run.ckpt.enabled());
    EXPECT_EQ(opts.run.ckpt.period, plain.ckpt.period);
    EXPECT_EQ(opts.run.ckpt.maxMb, plain.ckpt.maxMb);
    EXPECT_FALSE(opts.run.resume);
    EXPECT_FALSE(opts.run.telemetry.enabled());
    EXPECT_EQ(opts.run.telemetry.samplePeriod,
              plain.telemetry.samplePeriod);
    EXPECT_FALSE(opts.run.telemetry.heatmap);
    EXPECT_TRUE(opts.run.fastForward);
    const RobustnessConfig &robust = opts.run.robustness;
    EXPECT_EQ(robust.checkEnabled, plain.robustness.checkEnabled);
    EXPECT_EQ(robust.checkPeriod, plain.robustness.checkPeriod);
    EXPECT_EQ(robust.watchdogEnabled, plain.robustness.watchdogEnabled);
    EXPECT_EQ(robust.watchdogWindow, plain.robustness.watchdogWindow);
    EXPECT_EQ(robust.mshrAgeBound, plain.robustness.mshrAgeBound);
    EXPECT_EQ(robust.maxCycles, plain.robustness.maxCycles);
    EXPECT_FALSE(robust.fault.enabled());
    EXPECT_EQ(opts.sweep.onFail, FailPolicy::Abort);
    EXPECT_FALSE(opts.isolate.enabled);
    EXPECT_EQ(opts.jobs, 0u);
    EXPECT_TRUE(opts.jsonPath.empty());
    EXPECT_FALSE(opts.sync);
    EXPECT_EQ(opts.mixCount(12), 12u);
    EXPECT_FALSE(opts.profile);
    EXPECT_TRUE(opts.perfettoPath.empty());
}

TEST(RunOptions, ReadsPathsAndObserverSettings)
{
    const RunOptions opts =
        RunOptions::parse({{"REPRO_CKPT_DIR", "ck"},
                           {"REPRO_TRACE", "t.jsonl"},
                           {"REPRO_HEATMAP", "1"},
                           {"REPRO_JSON", "r.json"},
                           {"REPRO_MIXES", "3"},
                           {"REPRO_PROFILE", "yes"},
                           {"REPRO_PROFILE_OUT", "p.json"},
                           {"REPRO_PERFETTO", "x.trace.json"}});
    EXPECT_EQ(opts.run.ckpt.dir, "ck");
    EXPECT_EQ(opts.run.telemetry.tracePath, "t.jsonl");
    EXPECT_TRUE(opts.run.telemetry.heatmap);
    EXPECT_EQ(opts.jsonPath, "r.json");
    EXPECT_EQ(opts.mixCount(12), 3u);
    // REPRO_PROFILE is on for any value but "0".
    EXPECT_TRUE(opts.profile);
    EXPECT_FALSE(RunOptions::parse({{"REPRO_PROFILE", "0"}}).profile);
    EXPECT_EQ(opts.profileOut, "p.json");
    EXPECT_EQ(opts.perfettoPath, "x.trace.json");
}

TEST(RunOptions, PositivePeriodsAreRequired)
{
    EXPECT_EXIT(RunOptions::parse({{"REPRO_TRACE_PERIOD", "0"}}),
                ExitedWithCode(1), "REPRO_TRACE_PERIOD must be positive");
    EXPECT_EXIT(RunOptions::parse({{"REPRO_CHECK", "1"},
                                   {"REPRO_CHECK_PERIOD", "0"}}),
                ExitedWithCode(1), "REPRO_CHECK_PERIOD must be positive");
    EXPECT_EXIT(RunOptions::parse({{"REPRO_WATCHDOG_WINDOW", "0"}}),
                ExitedWithCode(1),
                "REPRO_WATCHDOG_WINDOW must be positive");
}

TEST(RunOptions, NarrowedFieldsRejectValuesTheyCannotHold)
{
    // Each of these lands in an `unsigned`: 2^32 used to wrap to 0
    // (quarantine off, no backoff, serial sweep), 2^32+1 to 1.
    for (const char *name : {"REPRO_JOBS", "REPRO_MIXES",
                             "REPRO_QUARANTINE",
                             "REPRO_RETRY_BACKOFF_MS"}) {
        EXPECT_EXIT(RunOptions::parse({{name, "4294967296"}}),
                    ExitedWithCode(1), "overflows 32 bits")
            << name;
        EXPECT_EXIT(RunOptions::parse({{name, "4294967297"}}),
                    ExitedWithCode(1), "overflows 32 bits")
            << name;
    }
    EXPECT_EXIT(RunOptions::parse({{"REPRO_FAIL", "retry:4294967296"}}),
                ExitedWithCode(1), "overflows 32 bits");

    // The largest value each field holds is still accepted.
    const RunOptions max =
        RunOptions::parse({{"REPRO_JOBS", "4294967295"},
                           {"REPRO_MIXES", "4294967295"},
                           {"REPRO_QUARANTINE", "4294967295"},
                           {"REPRO_RETRY_BACKOFF_MS", "4294967295"},
                           {"REPRO_FAIL", "retry:4294967295"}});
    EXPECT_EQ(max.jobs, 4294967295u);
    EXPECT_EQ(max.mixCount(1), 4294967295u);
    EXPECT_EQ(max.sweep.maxCrashes, 4294967295u);
    EXPECT_EQ(max.sweep.backoffMs, 4294967295u);
    EXPECT_EQ(max.sweep.retries, 4294967295u);
}

TEST(RunOptions, UnknownNamesWarnAndHaveNoEffect)
{
    ::testing::internal::CaptureStderr();
    const RunOptions opts =
        RunOptions::parse({{"REPRO_HEATMAP_BUCKETS", "0"},
                           {"REPRO_DECOUPLE", "0"},
                           {"REPRO_MIXES", "2"},
                           {"HOME", "/nowhere"}});
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("REPRO_HEATMAP_BUCKETS"), std::string::npos)
        << err;
    EXPECT_NE(err.find("REPRO_DECOUPLE"), std::string::npos) << err;
    EXPECT_NE(err.find("has no effect"), std::string::npos) << err;
    // Known and non-REPRO names draw no warning.
    EXPECT_EQ(err.find("REPRO_MIXES"), std::string::npos) << err;
    EXPECT_EQ(err.find("HOME"), std::string::npos) << err;
    EXPECT_EQ(opts.mixCount(12), 2u);
    EXPECT_TRUE(opts.extra.empty());
}

TEST(RunOptions, BinaryKnobsAreKeptForTheirBinary)
{
    ::testing::internal::CaptureStderr();
    const RunOptions opts = RunOptions::parse(
        {{"REPRO_FIG3_INSTS", "200000"}, {"REPRO_BENCH_OUT", "b.json"}},
        {"REPRO_FIG3_INSTS", "REPRO_BENCH_OUT"});
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(opts.extraNumber("REPRO_FIG3_INSTS", 1), 200000u);
    EXPECT_EQ(opts.extraString("REPRO_BENCH_OUT", "x"), "b.json");
    EXPECT_EQ(opts.extraNumber("REPRO_BENCH_CYCLES", 7), 7u);
    EXPECT_EQ(opts.extraString("REPRO_BENCH_CYCLES", "x"), "x");

    const RunOptions bad = RunOptions::parse(
        {{"REPRO_FIG3_INSTS", "-3"}}, {"REPRO_FIG3_INSTS"});
    EXPECT_EXIT(bad.extraNumber("REPRO_FIG3_INSTS", 1),
                ExitedWithCode(1), "must be non-negative");
}

/** The REPRO_* names in the first column of README's run-options
 *  table. */
std::set<std::string>
readmeKnobs()
{
    std::ifstream in(std::string(NUCA_SOURCE_DIR) + "/README.md");
    std::set<std::string> names;
    std::string line;
    bool inSection = false;
    while (std::getline(in, line)) {
        if (line.rfind("## ", 0) == 0)
            inSection = line == "## Run options";
        const std::string cell = "| `REPRO_";
        if (inSection && line.rfind(cell, 0) == 0) {
            const std::size_t end = line.find('`', 3);
            names.insert(line.substr(3, end - 3));
        }
    }
    return names;
}

TEST(RunOptions, ReadmeTableListsExactlyTheParsedKnobs)
{
    const auto parsed = RunOptions::knobNames();
    const std::set<std::string> known(parsed.begin(), parsed.end());
    EXPECT_EQ(readmeKnobs(), known);
}

} // namespace
} // namespace nuca
