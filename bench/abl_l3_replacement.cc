/**
 * @file
 * Ablation (design-choice study beyond the paper's figures): the
 * paper manages every cache with LRU. How much does the baseline
 * comparison depend on that? Runs the shared-L3 baseline under LRU,
 * FIFO, NRU and random replacement on intensive mixes.
 *
 * Expected: LRU ahead of NRU, which is ahead of FIFO/random —
 * confirming that the paper's LRU baselines are the strong versions
 * of themselves, so the adaptive scheme's wins are not an artifact
 * of weak baselines.
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
    const unsigned num_mixes = opts.mixCount(6);
    printHeader("Ablation: shared-L3 replacement policy", window,
                num_mixes, opts.workers());

    const auto mixes =
        makeMixes(llcIntensiveNames(), num_mixes, 4,
                  bench::paperMixSeed);

    std::vector<std::pair<std::string, SystemConfig>> configs;
    for (const auto policy :
         {ReplPolicy::Lru, ReplPolicy::Nru, ReplPolicy::Fifo,
          ReplPolicy::Random}) {
        auto cfg = SystemConfig::baseline(L3Scheme::Shared);
        cfg.l3ReplPolicy = policy;
        configs.emplace_back(std::string("shared-") +
                                 to_string(policy),
                             cfg);
    }
    const auto results = runAll(configs, mixes, window, opts);

    std::printf("%-16s %14s %12s\n", "policy", "harmonic IPC",
                "vs LRU");
    std::vector<double> sums(results.size(), 0.0);
    for (std::size_t s = 0; s < results.size(); ++s) {
        for (std::size_t m = 0; m < mixes.size(); ++m)
            sums[s] += mixHarmonic(results[s].mixes[m]);
    }
    for (std::size_t s = 0; s < results.size(); ++s) {
        std::printf("%-16s %14.4f %11.3fx\n",
                    results[s].label.c_str(),
                    sums[s] / static_cast<double>(mixes.size()),
                    sums[s] / sums[0]);
    }
    return 0;
}
