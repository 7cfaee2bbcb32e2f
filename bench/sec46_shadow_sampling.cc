/**
 * @file
 * Section 4.6: reducing the shadow tags to 1/16 of the sets (the
 * lowest-indexed ones), with LRU-hit counts normalized against the
 * scaled shadow-hit counts.
 *
 * Expected result: performance-neutral — the paper measured +0.1%
 * average IPC and -0.1% harmonic IPC. Anything within about a
 * percent reproduces the conclusion that 6% of the sets suffice.
 */

#include <cstdio>

#include "common.hh"
#include "workload/spec_profiles.hh"

int
main()
{
    using namespace nuca;
    using namespace nuca::bench;

    const RunOptions opts = RunOptions::fromEnv();
    const SimWindow window = opts.window(3000000, 3000000);
    const unsigned num_mixes = opts.mixCount(12);
    printHeader("Section 4.6: shadow tags in all sets vs 1/16 of "
                "the sets",
                window, num_mixes, opts.workers());

    auto sampled_cfg = SystemConfig::baseline(L3Scheme::Adaptive);
    sampled_cfg.shadowSampleShift = 4; // 1/16 of the sets

    const auto mixes =
        makeMixes(llcIntensiveNames(), num_mixes, 4,
                  bench::paperMixSeed);
    const auto results = runAll(
        {{"full", SystemConfig::baseline(L3Scheme::Adaptive)},
         {"sampled-1/16", sampled_cfg}},
        mixes, window, opts);

    double mean_full = 0, mean_sampled = 0;
    double harm_full = 0, harm_sampled = 0;
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        mean_full += arithmeticMean(results[0].mixes[m].ipc);
        mean_sampled += arithmeticMean(results[1].mixes[m].ipc);
        harm_full += mixHarmonic(results[0].mixes[m]);
        harm_sampled += mixHarmonic(results[1].mixes[m]);
    }

    std::printf("%-14s %12s %12s\n", "shadow tags", "mean IPC",
                "harmonic IPC");
    std::printf("%-14s %12.4f %12.4f\n", "all sets",
                mean_full / static_cast<double>(num_mixes),
                harm_full / static_cast<double>(num_mixes));
    std::printf("%-14s %12.4f %12.4f\n", "1/16 of sets",
                mean_sampled / static_cast<double>(num_mixes),
                harm_sampled / static_cast<double>(num_mixes));
    std::printf("\ndelta: mean %+0.2f%%, harmonic %+0.2f%% (paper: "
                "+0.1%% / -0.1%% — sampling is free)\n",
                100.0 * (mean_sampled / mean_full - 1.0),
                100.0 * (harm_sampled / harm_full - 1.0));
    return 0;
}
