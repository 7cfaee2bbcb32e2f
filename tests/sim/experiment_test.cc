/** @file Tests for the multiprogrammed experiment methodology. */

#include <gtest/gtest.h>

#include <set>

#include "sim/experiment.hh"
#include "sim/run_options.hh"
#include "workload/spec_profiles.hh"

namespace nuca {
namespace {

TEST(Experiment, MixesDrawFromPoolOnly)
{
    const std::vector<std::string> pool = {"mcf", "gzip", "ammp"};
    const auto mixes = makeMixes(pool, 20, 4, 99);
    ASSERT_EQ(mixes.size(), 20u);
    for (const auto &mix : mixes) {
        ASSERT_EQ(mix.apps.size(), 4u);
        for (const auto &app : mix.apps) {
            EXPECT_TRUE(app == "mcf" || app == "gzip" ||
                        app == "ammp")
                << app;
        }
    }
}

TEST(Experiment, MixesAreSeededDeterministically)
{
    const auto pool = llcIntensiveNames();
    const auto a = makeMixes(pool, 10, 4, 5);
    const auto b = makeMixes(pool, 10, 4, 5);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].apps, b[i].apps);
        EXPECT_EQ(a[i].seed, b[i].seed);
    }
    const auto c = makeMixes(pool, 10, 4, 6);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        any_diff |= a[i].apps != c[i].apps || a[i].seed != c[i].seed;
    EXPECT_TRUE(any_diff);
}

TEST(Experiment, MixesVaryAcrossExperiments)
{
    const auto pool = allProfileNames();
    const auto mixes = makeMixes(pool, 30, 4, 7);
    std::set<std::vector<std::string>> distinct;
    for (const auto &mix : mixes)
        distinct.insert(mix.apps);
    EXPECT_GT(distinct.size(), 25u);
}

TEST(Experiment, RunMixProducesPerCoreResults)
{
    SimWindow window{5000, 20000};
    ExperimentSpec spec{{"eon", "mesa", "crafty", "wupwise"}, 11};
    const auto result =
        runMix(SystemConfig::baseline(L3Scheme::Private), spec,
               window);
    ASSERT_EQ(result.ipc.size(), 4u);
    ASSERT_EQ(result.l3AccessesPerKilocycle.size(), 4u);
    for (const double ipc : result.ipc)
        EXPECT_GT(ipc, 0.0);
}

// The numeric-knob rules every REPRO_* number follows, exercised
// through one of them (REPRO_MAX_CYCLES: a plain 64-bit field).

std::uint64_t
maxCycles(const std::string &value)
{
    return RunOptions::parse({{"REPRO_MAX_CYCLES", value}})
        .run.robustness.maxCycles;
}

TEST(Experiment, EnvOverrideParsesNumbers)
{
    EXPECT_EQ(maxCycles("12345"), 12345u);
    EXPECT_EQ(RunOptions::parse({}).run.robustness.maxCycles, 0u);
    // An empty value is the same as an unset one.
    EXPECT_EQ(maxCycles(""), 0u);
}

TEST(Experiment, EnvOverrideRejectsNegativeNumbers)
{
    // strtoull would silently wrap "-1" to 2^64-1 — a sweep asked
    // for -1 mixes must fail fast instead of hanging.
    EXPECT_EXIT(maxCycles("-1"), testing::ExitedWithCode(1),
                "must be non-negative");
    EXPECT_EXIT(maxCycles("  -5"), testing::ExitedWithCode(1),
                "must be non-negative");
}

TEST(Experiment, EnvOverrideRejectsOverflow)
{
    // 2^64 saturates strtoull with ERANGE; reject instead.
    EXPECT_EXIT(maxCycles("18446744073709551616"),
                testing::ExitedWithCode(1), "overflows 64 bits");
}

TEST(Experiment, EnvOverrideRejectsTrailingGarbage)
{
    EXPECT_EXIT(maxCycles("123abc"), testing::ExitedWithCode(1),
                "not a number");
    EXPECT_EXIT(maxCycles("abc"), testing::ExitedWithCode(1),
                "not a number");
}

TEST(Experiment, EnvOverrideStillAcceptsMaxUint64)
{
    EXPECT_EQ(maxCycles("18446744073709551615"),
              18446744073709551615ull);
}

TEST(Experiment, WindowOverridesReplaceDefaults)
{
    const auto window = RunOptions::parse({}).window(111, 222);
    EXPECT_EQ(window.warmupCycles, 111u);
    EXPECT_EQ(window.measureCycles, 222u);

    const auto overridden =
        RunOptions::parse({{"REPRO_WARMUP_CYCLES", "333"},
                           {"REPRO_MEASURE_CYCLES", "444"}})
            .window(111, 222);
    EXPECT_EQ(overridden.warmupCycles, 333u);
    EXPECT_EQ(overridden.measureCycles, 444u);
}

} // namespace
} // namespace nuca
