/**
 * @file
 * Ablation (design-choice study beyond the paper's figures): how
 * sensitive is the scheme to the re-evaluation period? The paper
 * fixes it at 2000 misses, arguing it is "long enough to measure
 * cache sensitivity and short enough to make the scheme dynamic";
 * this sweep quantifies that trade-off.
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
    const unsigned num_mixes = opts.mixCount(8);
    printHeader("Ablation: re-evaluation period (misses per epoch)",
                window, num_mixes, opts.workers());

    const auto mixes =
        makeMixes(llcIntensiveNames(), num_mixes, 4,
                  bench::paperMixSeed);

    std::vector<std::pair<std::string, SystemConfig>> configs;
    configs.emplace_back(
        "private", SystemConfig::baseline(L3Scheme::Private));
    for (const Counter epoch : {250u, 1000u, 2000u, 8000u, 32000u}) {
        auto cfg = SystemConfig::baseline(L3Scheme::Adaptive);
        cfg.epochMisses = epoch;
        configs.emplace_back("epoch-" + std::to_string(epoch), cfg);
    }

    const auto results = runAll(configs, mixes, window, opts);

    std::printf("%-12s %14s %16s\n", "config", "harmonic IPC",
                "vs private");
    double base = 0;
    for (std::size_t m = 0; m < mixes.size(); ++m)
        base += mixHarmonic(results[0].mixes[m]);
    for (const auto &scheme : results) {
        double h = 0;
        for (std::size_t m = 0; m < mixes.size(); ++m)
            h += mixHarmonic(scheme.mixes[m]);
        std::printf("%-12s %14.4f %15.3fx\n", scheme.label.c_str(),
                    h / static_cast<double>(mixes.size()), h / base);
    }
    std::printf("\nexpected: a broad plateau around the paper's "
                "2000-miss period; very short epochs chase noise, "
                "very long ones adapt too slowly.\n");
    return 0;
}
