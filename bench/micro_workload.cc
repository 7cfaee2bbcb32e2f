/**
 * @file
 * Microbenchmarks (google-benchmark) for the workload-generator
 * layer: SynthWorkload::next for every built-in profile plus the
 * compute-bound and pointer-chase profiles, and the dependence-
 * distance draw through the reference Rng::geometric and through
 * the exact GeometricTable that SynthWorkload uses.
 *
 *   ./build/bench/micro_workload --benchmark_filter=Geometric
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "base/random.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth_workload.hh"

namespace {

using namespace nuca;

void
BM_SynthNext(benchmark::State &state, const WorkloadProfile &profile)
{
    SynthWorkload workload(profile, 0, 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(workload.next());
}

/** Mean dependence distance in the argument; cap as SynthWorkload. */
void
BM_GeometricReference(benchmark::State &state)
{
    const double p = 1.0 / static_cast<double>(state.range(0));
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.geometric(p, 63));
}
BENCHMARK(BM_GeometricReference)->Arg(3)->Arg(16)->Arg(64);

void
BM_GeometricTable(benchmark::State &state)
{
    const GeometricTable table(1.0 / static_cast<double>(state.range(0)),
                               63);
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(table.draw(rng));
}
BENCHMARK(BM_GeometricTable)->Arg(3)->Arg(16)->Arg(64);

} // namespace

int
main(int argc, char **argv)
{
    std::vector<WorkloadProfile> profiles = specProfiles();
    profiles.push_back(computeBoundProfile());
    profiles.push_back(pointerChaseProfile());
    for (const auto &profile : profiles) {
        benchmark::RegisterBenchmark(
            ("BM_SynthNext/" + profile.name).c_str(), BM_SynthNext,
            profile);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
