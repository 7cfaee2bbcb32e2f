/**
 * @file
 * Tests for the shared bench harness: the parallel sweep's
 * determinism against the serial reference, the REPRO_JSON results
 * emission, and the ASCII bar clamp.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common.hh"

namespace nuca {
namespace bench {
namespace {

std::vector<std::pair<std::string, SystemConfig>>
smallConfigs()
{
    return {{"private", SystemConfig::baseline(L3Scheme::Private)},
            {"adaptive", SystemConfig::baseline(L3Scheme::Adaptive)}};
}

void
expectIdentical(const std::vector<SchemeResults> &a,
                const std::vector<SchemeResults> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
        EXPECT_EQ(a[s].label, b[s].label);
        ASSERT_EQ(a[s].mixes.size(), b[s].mixes.size());
        for (std::size_t m = 0; m < a[s].mixes.size(); ++m) {
            // Bit-identical, not approximately equal: the pool must
            // reproduce the serial sweep exactly.
            EXPECT_EQ(a[s].mixes[m].ipc, b[s].mixes[m].ipc)
                << a[s].label << " mix " << m;
            EXPECT_EQ(a[s].mixes[m].l3AccessesPerKilocycle,
                      b[s].mixes[m].l3AccessesPerKilocycle)
                << a[s].label << " mix " << m;
        }
    }
}

TEST(RunAll, ParallelSweepMatchesSerialReference)
{
    const SimWindow window{2000, 8000};
    const auto mixes =
        makeMixes({"mcf", "gzip", "ammp", "art"}, 3, 4, 20070202);
    const auto configs = smallConfigs();

    const auto serial = runAllSerial(configs, mixes, window);
    for (const unsigned jobs : {1u, 2u, 8u}) {
        RunOptions opts;
        opts.jobs = jobs;
        const auto parallel = runAll(configs, mixes, window, opts);
        expectIdentical(serial, parallel);
    }
}

TEST(RunAll, ReproJsonEmitsParseableResults)
{
    const std::string path =
        testing::TempDir() + "bench_common_test_results.json";
    RunOptions opts;
    opts.jobs = 2;
    opts.jsonPath = path;
    const SimWindow window{2000, 8000};
    const auto mixes =
        makeMixes({"mcf", "gzip", "ammp", "art"}, 2, 4, 11);
    const auto results = runAll(smallConfigs(), mixes, window, opts);

    const auto doc = json::Value::parse(json::readFile(path));
    std::remove(path.c_str());

    EXPECT_EQ(doc.at("warmup_cycles").asNumber(), 2000.0);
    EXPECT_EQ(doc.at("measure_cycles").asNumber(), 8000.0);
    EXPECT_EQ(doc.at("mix_count").asNumber(), 2.0);

    const auto &records = doc.at("results");
    ASSERT_EQ(records.size(), 4u); // 2 schemes x 2 mixes
    for (std::size_t s = 0; s < results.size(); ++s) {
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            const auto &record = records.at(s * mixes.size() + m);
            EXPECT_EQ(record.at("label").asString(),
                      results[s].label);
            ASSERT_EQ(record.at("mix").size(), 4u);
            for (std::size_t a = 0; a < 4; ++a)
                EXPECT_EQ(record.at("mix").at(a).asString(),
                          mixes[m].apps[a]);
            ASSERT_EQ(record.at("ipc").size(),
                      results[s].mixes[m].ipc.size());
            for (std::size_t c = 0;
                 c < results[s].mixes[m].ipc.size(); ++c)
                EXPECT_EQ(record.at("ipc").at(c).asNumber(),
                          results[s].mixes[m].ipc[c]);
            EXPECT_EQ(record.at("harmonic").asNumber(),
                      mixHarmonic(results[s].mixes[m]));
        }
    }
}

TEST(Bar, ScalesTwentyCharsPerUnit)
{
    EXPECT_EQ(bar(0.0), "");
    EXPECT_EQ(bar(-1.0), "");
    EXPECT_EQ(bar(1.0), std::string(20, '#'));
    EXPECT_EQ(bar(2.5), std::string(50, '#'));
}

TEST(Bar, ClampsAtSixtyCharsWithMarker)
{
    // Exactly 3.0 fills the scale with no marker...
    EXPECT_EQ(bar(3.0), std::string(60, '#'));
    // ...while anything beyond it clamps to the same width but ends
    // in '+', so a pathological speedup is distinguishable.
    EXPECT_EQ(bar(3.1), std::string(59, '#') + '+');
    EXPECT_EQ(bar(1000.0), std::string(59, '#') + '+');
    EXPECT_EQ(bar(3.1).size(), 60u);
}

TEST(MixHarmonic, MatchesHandComputedMean)
{
    MixResult result;
    result.ipc = {1.0, 2.0, 4.0};
    // 3 / (1 + 1/2 + 1/4)
    EXPECT_NEAR(mixHarmonic(result), 3.0 / 1.75, 1e-12);
}

} // namespace
} // namespace bench
} // namespace nuca
