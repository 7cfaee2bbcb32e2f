/**
 * @file
 * Figure 9: the same per-application comparison with an 8 MB L3
 * (2 MB per core), keeping the 4 MB timing model for a simple
 * comparison, exactly as Section 4.4 does.
 *
 * Expected shape: SPEC2000 does not need this much capacity, so the
 * 4x-private bars flatten towards 1.0 and the adaptive scheme loses
 * its edge — it "infers constraints in a system that does not need
 * restrictions", degrading a number of applications slightly.
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
    const unsigned num_mixes = opts.mixCount(16);
    printHeader("Figure 9: speedup vs private caches with an 8 MB "
                "L3 (2 MB per core)",
                window, num_mixes, opts.workers());

    const auto mixes =
        makeMixes(allProfileNames(), num_mixes, 4, 20070202);

    auto quad8 = SystemConfig::large8MB(L3Scheme::Private);
    quad8.l3SizePerCoreBytes = 8ull << 20; // 4 x 8 MB idealized
    quad8.l3LocalAssoc = 16;

    const auto results = runAll(
        {{"private-8MB", SystemConfig::large8MB(L3Scheme::Private)},
         {"shared-8MB", SystemConfig::large8MB(L3Scheme::Shared)},
         {"4x8MB-private", quad8},
         {"adaptive-8MB",
          SystemConfig::large8MB(L3Scheme::Adaptive)}},
        mixes, window, opts);

    const auto shared = perAppSpeedup(mixes, results[1], results[0]);
    const auto quad = perAppSpeedup(mixes, results[2], results[0]);
    const auto adaptive =
        perAppSpeedup(mixes, results[3], results[0]);

    std::printf("%-10s %9s %13s %10s\n", "app", "shared",
                "4x8MB-private", "adaptive");
    unsigned degraded = 0;
    for (const auto &[app, s] : adaptive) {
        if (s < 0.995)
            ++degraded;
        std::printf("%-10s %8.3fx %12.3fx %9.3fx\n", app.c_str(),
                    shared.at(app), quad.at(app), s);
    }
    std::printf("%-10s %8.3fx %12.3fx %9.3fx\n", "mean",
                meanOfMap(shared), meanOfMap(quad),
                meanOfMap(adaptive));
    std::printf("\nmean 4x-capacity gain at 8 MB: %+0.1f%% (paper: "
                "most apps no faster — capacity is no longer "
                "scarce)\n",
                100.0 * (meanOfMap(quad) - 1.0));
    std::printf("apps slightly degraded by the adaptive scheme: "
                "%u of %zu (paper: \"degrades performance for many "
                "applications\" at this size)\n",
                degraded, adaptive.size());
    return 0;
}
