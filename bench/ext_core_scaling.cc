/**
 * @file
 * Extension study: the paper's Section 6 claim that the scheme
 * "will scale to systems with a higher processor count". Runs the
 * adaptive scheme against private caches at 2, 4 and 8 cores
 * (scaling the L3 with the cores: 1 MB per core) on random
 * LLC-intensive mixes.
 *
 * Expected: the adaptive advantage persists (or grows) with more
 * cores — more cores mean more diversity for capacity trading, but
 * also a busier memory channel.
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
    printHeader("Extension: core-count scaling (Section 6 claim)",
                window, num_mixes, opts.workers());

    std::printf("%-7s %12s %12s %12s\n", "cores", "private-H",
                "adaptive-H", "speedup");
    for (const unsigned cores : {2u, 4u, 8u}) {
        const auto mixes = makeMixes(llcIntensiveNames(), num_mixes,
                                     cores, 20070300 + cores);

        auto priv = SystemConfig::baseline(L3Scheme::Private);
        priv.numCores = cores;
        auto adaptive = SystemConfig::baseline(L3Scheme::Adaptive);
        adaptive.numCores = cores;

        const auto results = runAll(
            {{"private-" + std::to_string(cores), priv},
             {"adaptive-" + std::to_string(cores), adaptive}},
            mixes, window, opts);

        double hp = 0, ha = 0;
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            hp += mixHarmonic(results[0].mixes[m]);
            ha += mixHarmonic(results[1].mixes[m]);
        }
        std::printf("%-7u %12.4f %12.4f %11.3fx\n", cores,
                    hp / static_cast<double>(num_mixes),
                    ha / static_cast<double>(num_mixes), ha / hp);
    }
    std::printf("\nnote: the shared memory channel is the same "
                "9 GB/s at every core count, so absolute IPC drops "
                "as cores are added; the comparison is within a "
                "core count.\n");
    return 0;
}
