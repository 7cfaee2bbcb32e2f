/**
 * @file
 * Figure 7: per-application speedup over private caches for the
 * LLC-intensive applications, under the shared cache, private caches
 * of 4x the size (one idealized 4 MB per core), and the proposed
 * adaptive scheme.
 *
 * Expected shape: the applications that gain from the 4x private
 * cache (ammp, art, twolf, vpr) also gain under the adaptive scheme,
 * while the shared cache hurts some of them (pollution).
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
    printHeader("Figure 7: per-application speedup vs private "
                "caches (LLC-intensive pool)",
                window, num_mixes, opts.workers());

    const auto mixes =
        makeMixes(llcIntensiveNames(), num_mixes, 4,
                  bench::paperMixSeed);
    const auto results = runAll(
        {{"private", SystemConfig::baseline(L3Scheme::Private)},
         {"shared", SystemConfig::baseline(L3Scheme::Shared)},
         {"4x-private", SystemConfig::quadSizePrivate()},
         {"adaptive", SystemConfig::baseline(L3Scheme::Adaptive)}},
        mixes, window, opts);

    const auto shared = perAppSpeedup(mixes, results[1], results[0]);
    const auto quad = perAppSpeedup(mixes, results[2], results[0]);
    const auto adaptive =
        perAppSpeedup(mixes, results[3], results[0]);

    std::printf("%-10s %9s %12s %10s\n", "app", "shared",
                "4x-private", "adaptive");
    for (const auto &[app, s] : adaptive) {
        std::printf("%-10s %8.3fx %11.3fx %9.3fx  %s\n", app.c_str(),
                    shared.at(app), quad.at(app), s,
                    bar(s).c_str());
    }
    std::printf("%-10s %8.3fx %11.3fx %9.3fx\n", "mean",
                meanOfMap(shared), meanOfMap(quad),
                meanOfMap(adaptive));

    // The paper's observation: the 4x-private winners are also the
    // adaptive scheme's winners.
    std::printf("\napps gaining >5%% from 4x private capacity "
                "(the cache-hungry set):\n ");
    for (const auto &[app, s] : quad) {
        if (s > 1.05)
            std::printf(" %s(adaptive %.2fx)", app.c_str(),
                        adaptive.at(app));
    }
    std::printf("\n");
    return 0;
}
