/**
 * @file
 * Building a custom workload profile from scratch: define an
 * application by its instruction mix and reuse regions, inspect its
 * miss-vs-ways curve on a standalone cache (the Figure 3 view), then
 * run it against a cache hog under the adaptive scheme to see how
 * much protection it gets.
 *
 * This is the template to follow for adding new applications or
 * calibrating against a real trace.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "cache/set_assoc_cache.hh"
#include "sim/cmp_system.hh"
#include "sim/run_options.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth_workload.hh"

int
main()
{
    using namespace nuca;
    const RunOptions opts = RunOptions::fromEnv();

    // ---- 1. Define the application ------------------------------
    // "dbscan": scans a 1.25 MB index (5 L3 ways) with high ILP and
    // a small hot set, plus a light streaming component.
    WorkloadProfile dbscan;
    dbscan.name = "dbscan";
    dbscan.loadFrac = 0.31;
    dbscan.storeFrac = 0.07;
    dbscan.branchFrac = 0.08;
    dbscan.meanDepDist = 18;
    dbscan.codeFootprintBytes = 24 * 1024;
    dbscan.regions = {
        {32 * 1024, 0.80, RegionPattern::Random},   // hot (L1)
        {1280 * 1024, 0.14, RegionPattern::Random}, // index (L3)
        {64ull << 20, 0.06, RegionPattern::Stream}, // input scan
    };

    // ---- 2. Miss-vs-ways curve (standalone 4096-set cache) ------
    std::printf("dbscan: L3 misses per 2M instructions vs ways "
                "(4096 sets)\n");
    std::printf("%-6s %10s\n", "ways", "misses");
    for (unsigned ways = 1; ways <= 8; ++ways) {
        stats::Group root("curve");
        SetAssocCache l1(root, "l1", 64ull << 10, 2);
        SetAssocCache l2(root, "l2", 256ull << 10, 4);
        SetAssocCache l3(root, "l3",
                         static_cast<std::uint64_t>(ways) * 4096 *
                             blockBytes,
                         ways);
        SynthWorkload workload(dbscan, 0, 7);
        for (int i = 0; i < 2000000; ++i) {
            const auto inst = workload.next();
            if (!inst.isMem())
                continue;
            if (l1.access(inst.effAddr, inst.isStore()))
                continue;
            l1.fill(inst.effAddr, inst.isStore(), 0);
            if (l2.access(inst.effAddr, false))
                continue;
            l2.fill(inst.effAddr, false, 0);
            if (!l3.access(inst.effAddr, false))
                l3.fill(inst.effAddr, false, 0);
        }
        std::printf("%-6u %10llu\n", ways,
                    static_cast<unsigned long long>(l3.misses()));
    }

    // ---- 3. Run it against a hog under two organizations --------
    const std::vector<WorkloadProfile> mix = {
        dbscan, specProfile("art"), specProfile("mesa"),
        specProfile("crafty")};
    std::printf("\ndbscan next to art (a capacity hog):\n");
    std::printf("%-10s %12s %12s\n", "scheme", "dbscan IPC",
                "art IPC");
    for (const auto scheme : {L3Scheme::Shared, L3Scheme::Adaptive}) {
        CmpSystem system(SystemConfig::baseline(scheme), mix, 11);
        applyRunPolicy(system, opts.run);
        system.run(800000);
        system.resetStats();
        system.run(1500000);
        std::printf("%-10s %12.4f %12.4f\n",
                    to_string(scheme).c_str(), system.ipcOf(0),
                    system.ipcOf(1));
        if (scheme == L3Scheme::Adaptive) {
            std::printf("  dbscan quota: %u blocks/set, art quota: "
                        "%u blocks/set\n",
                        system.adaptive()->engine().quota(0),
                        system.adaptive()->engine().quota(1));
        }
    }
    std::printf("\nthe adaptive scheme grants each application the "
                "share its miss curve justifies.\n");
    return 0;
}
