/**
 * @file
 * Figure 11: performance of the adaptive scheme relative to the
 * "random replacement" hybrid (the Chang & Sohi-style uncontrolled
 * spilling of Section 4.7), on the LLC-intensive pool where every
 * core competes for capacity.
 *
 * Expected shape: the adaptive scheme wins clearly — uncontrolled
 * spilling works best when cores are NOT all competing.
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
    printHeader("Figure 11: adaptive vs random-replacement "
                "(LLC-intensive pool)",
                window, num_mixes, opts.workers());

    const auto mixes =
        makeMixes(llcIntensiveNames(), num_mixes, 4,
                  bench::paperMixSeed);
    const auto results = runAll(
        {{"random-repl",
          SystemConfig::baseline(L3Scheme::RandomReplacement)},
         {"adaptive", SystemConfig::baseline(L3Scheme::Adaptive)}},
        mixes, window, opts);
    const auto &random = results[0];
    const auto &adaptive = results[1];

    // Exclude mixes a REPRO_FAIL=skip sweep dropped under either
    // scheme: a 0/0 ratio is NaN, and NaN comparators are undefined
    // behaviour for std::sort.
    const auto ratioOf = [&](std::size_t m) {
        const double hr = mixHarmonic(random.mixes[m]);
        return hr == 0.0 ? 0.0
                         : mixHarmonic(adaptive.mixes[m]) / hr;
    };
    std::vector<std::size_t> order;
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        if (random.okAt(m) && adaptive.okAt(m))
            order.push_back(m);
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return ratioOf(a) < ratioOf(b);
              });
    if (order.size() != mixes.size()) {
        std::printf("note: %zu of %zu experiments skipped by the "
                    "failure policy and excluded below\n",
                    mixes.size() - order.size(), mixes.size());
    }

    std::printf("%-4s %-38s %12s %9s %10s\n", "exp", "mix",
                "random-repl", "adaptive", "ratio");
    double num = 0, den = 0;
    unsigned wins = 0;
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
        const auto m = order[rank];
        std::string mixname;
        for (const auto &app : mixes[m].apps)
            mixname += (mixname.empty() ? "" : "+") + app;
        const double hr = mixHarmonic(random.mixes[m]);
        const double ha = mixHarmonic(adaptive.mixes[m]);
        num += ha;
        den += hr;
        wins += ha >= hr;
        std::printf("%-4zu %-38s %12.4f %9.4f %9.3fx\n", rank + 1,
                    mixname.c_str(), hr, ha, ratioOf(m));
    }
    std::printf("\nadaptive vs random replacement: harmonic "
                "%+0.1f%%, wins %u/%zu experiments (paper: the "
                "proposed scheme in general works better when all "
                "cores compete)\n",
                den == 0.0 ? 0.0 : 100.0 * (num / den - 1.0), wins,
                order.size());
    return 0;
}
