/**
 * @file
 * Figure 6: harmonic mean of per-core IPC for each experiment on the
 * LLC-intensive benchmark pool, comparing the proposed adaptive
 * scheme against the private and shared organizations. Experiments
 * are sorted by the adaptive scheme's speedup over private, like the
 * paper's figure.
 *
 * Expected shape: adaptive >= private in (almost) every experiment
 * and >= shared in most; the paper reports +21% harmonic / +13%
 * average over private and +2% harmonic / +5% average over shared.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>

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
    printHeader("Figure 6: harmonic mean IPC per experiment "
                "(LLC-intensive pool)",
                window, num_mixes, opts.workers());

    const auto mixes =
        makeMixes(llcIntensiveNames(), num_mixes, 4,
                  bench::paperMixSeed);
    const auto results = runAll(
        {{"private", SystemConfig::baseline(L3Scheme::Private)},
         {"shared", SystemConfig::baseline(L3Scheme::Shared)},
         {"adaptive", SystemConfig::baseline(L3Scheme::Adaptive)}},
        mixes, window, opts);
    const auto &priv = results[0];
    const auto &shared = results[1];
    const auto &adaptive = results[2];

    // A mix a REPRO_FAIL=skip sweep dropped under any scheme has no
    // comparable result: exclude it from the ordering and summaries
    // (a 0/0 speedup is NaN, and NaN comparators are undefined
    // behaviour for std::sort).
    const auto ok = [&](std::size_t m) {
        return priv.okAt(m) && shared.okAt(m) && adaptive.okAt(m);
    };
    const auto speedup = [&](std::size_t m) {
        const double hp = mixHarmonic(priv.mixes[m]);
        return hp == 0.0 ? 0.0
                         : mixHarmonic(adaptive.mixes[m]) / hp;
    };

    // Sort experiments by adaptive/private speedup (ascending, the
    // highest speedup to the right like the paper).
    std::vector<std::size_t> order;
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        if (ok(m))
            order.push_back(m);
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return speedup(a) < speedup(b);
              });
    if (order.size() != mixes.size()) {
        std::printf("note: %zu of %zu experiments skipped by the "
                    "failure policy and excluded below\n",
                    mixes.size() - order.size(), mixes.size());
    }

    std::printf("%-4s %-38s %9s %9s %9s %11s\n", "exp", "mix",
                "private", "shared", "adaptive", "adapt/priv");
    unsigned adaptive_wins_priv = 0, adaptive_wins_shared = 0;
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
        const std::size_t m = order[rank];
        std::string mixname;
        for (const auto &app : mixes[m].apps)
            mixname += (mixname.empty() ? "" : "+") + app;
        const double hp = mixHarmonic(priv.mixes[m]);
        const double hs = mixHarmonic(shared.mixes[m]);
        const double ha = mixHarmonic(adaptive.mixes[m]);
        adaptive_wins_priv += ha >= 0.995 * hp;
        adaptive_wins_shared += ha >= 0.995 * hs;
        std::printf("%-4zu %-38s %9.4f %9.4f %9.4f %10.3fx\n",
                    rank + 1, mixname.c_str(), hp, hs, ha,
                    speedup(m));
    }

    // Summary statistics, matching the paper's reporting style,
    // over the experiments that produced results under every scheme
    // (ratios degrade to the neutral 1.0 when nothing is left).
    const auto summary = [&](const SchemeResults &scheme) {
        double harmonic_ratio_num = 0, harmonic_ratio_den = 0;
        double mean_speedup = 0;
        std::size_t counted = 0;
        for (const std::size_t m : order) {
            const double hs = mixHarmonic(scheme.mixes[m]);
            if (hs == 0.0)
                continue;
            harmonic_ratio_num += mixHarmonic(adaptive.mixes[m]);
            harmonic_ratio_den += hs;
            mean_speedup += mixHarmonic(adaptive.mixes[m]) / hs;
            ++counted;
        }
        if (counted == 0 || harmonic_ratio_den == 0.0)
            return std::make_pair(1.0, 1.0);
        mean_speedup /= static_cast<double>(counted);
        return std::make_pair(
            harmonic_ratio_num / harmonic_ratio_den, mean_speedup);
    };
    const auto [vs_priv_h, vs_priv_m] = summary(priv);
    const auto [vs_shared_h, vs_shared_m] = summary(shared);

    std::printf("\nadaptive vs private:  harmonic %+0.1f%%, mean of "
                "per-experiment speedups %+0.1f%% (paper: +21%% / "
                "+13%%)\n",
                100.0 * (vs_priv_h - 1.0),
                100.0 * (vs_priv_m - 1.0));
    std::printf("adaptive vs shared:   harmonic %+0.1f%%, mean of "
                "per-experiment speedups %+0.1f%% (paper: +2%% / "
                "+5%%)\n",
                100.0 * (vs_shared_h - 1.0),
                100.0 * (vs_shared_m - 1.0));
    std::printf("adaptive >= private in %u/%zu experiments, >= "
                "shared in %u/%zu (paper: all but one)\n",
                adaptive_wins_priv, order.size(),
                adaptive_wins_shared, order.size());
    return 0;
}
