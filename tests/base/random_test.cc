/** @file Unit and statistical tests for the RNG and distributions. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <vector>

#include "base/random.hh"
#include "serialize/serializer.hh"
#include "workload/spec_profiles.hh"

namespace nuca {
namespace {

TEST(Rng, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    unsigned same = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2u);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.below(13), 13u);
}

TEST(Rng, BelowCoversFullRange)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BetweenInclusiveBounds)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.between(5, 9);
        ASSERT_GE(v, 5u);
        ASSERT_LE(v, 9u);
        saw_lo |= v == 5;
        saw_hi |= v == 9;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.real();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(3);
    unsigned hits = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i) {
        if (rng.chance(0.3))
            ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, GeometricMeanMatches)
{
    Rng rng(17);
    const double p = 0.2;
    double sum = 0;
    const int trials = 200000;
    for (int i = 0; i < trials; ++i)
        sum += static_cast<double>(rng.geometric(p));
    // Mean failures before success = (1-p)/p = 4.
    EXPECT_NEAR(sum / trials, 4.0, 0.1);
}

TEST(Rng, GeometricRespectsCap)
{
    Rng rng(19);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LE(rng.geometric(0.001, 50), 50u);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng parent(21);
    Rng child = parent.split();
    unsigned same = 0;
    for (int i = 0; i < 1000; ++i) {
        if (parent.next() == child.next())
            ++same;
    }
    EXPECT_LT(same, 2u);
}

TEST(AliasTable, SingleOutcome)
{
    AliasTable table({5.0});
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(table.sample(rng), 0u);
}

TEST(AliasTable, ProbabilitiesNormalized)
{
    AliasTable table({1.0, 3.0, 6.0});
    EXPECT_NEAR(table.probabilityOf(0), 0.1, 1e-12);
    EXPECT_NEAR(table.probabilityOf(1), 0.3, 1e-12);
    EXPECT_NEAR(table.probabilityOf(2), 0.6, 1e-12);
}

TEST(AliasTable, EmpiricalFrequenciesMatchWeights)
{
    const std::vector<double> weights = {1, 2, 3, 4, 10};
    AliasTable table(weights);
    Rng rng(42);
    std::vector<unsigned> counts(weights.size(), 0);
    const int trials = 400000;
    for (int i = 0; i < trials; ++i)
        ++counts[table.sample(rng)];
    for (std::size_t i = 0; i < weights.size(); ++i) {
        EXPECT_NEAR(static_cast<double>(counts[i]) / trials,
                    table.probabilityOf(static_cast<unsigned>(i)),
                    0.01)
            << "outcome " << i;
    }
}

TEST(AliasTable, ZeroWeightOutcomeNeverDrawn)
{
    AliasTable table({1.0, 0.0, 1.0});
    Rng rng(8);
    for (int i = 0; i < 50000; ++i)
        ASSERT_NE(table.sample(rng), 1u);
}

TEST(ZipfSampler, RankZeroIsMostPopular)
{
    ZipfSampler zipf(64, 1.1);
    Rng rng(4);
    std::vector<unsigned> counts(64, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[zipf.sample(rng)];
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[1], counts[10]);
    EXPECT_GT(counts[10], counts[63]);
}

TEST(ZipfSampler, ExponentZeroIsUniform)
{
    ZipfSampler zipf(10, 0.0);
    Rng rng(6);
    std::vector<unsigned> counts(10, 0);
    const int trials = 200000;
    for (int i = 0; i < trials; ++i)
        ++counts[zipf.sample(rng)];
    for (const auto c : counts)
        EXPECT_NEAR(static_cast<double>(c) / trials, 0.1, 0.01);
}

/** Multiplicative inverse of an odd 64-bit value (Newton). */
std::uint64_t
inverseOdd(std::uint64_t a)
{
    std::uint64_t x = a;
    for (int i = 0; i < 6; ++i)
        x *= 2 - a * x;
    return x;
}

/**
 * A generator whose next() returns @p x: xoshiro256**'s output
 * rotl(s1 * 5, 7) * 9 is invertible in s1, and restore() sets the
 * state. This lets the tests feed the reference Rng::geometric any
 * chosen draw.
 */
Rng
rngYielding(std::uint64_t x)
{
    const std::uint64_t s1 =
        std::rotr(x * inverseOdd(9), 7) * inverseOdd(5);
    Serializer s;
    s.putU64(0x1234);
    s.putU64(s1);
    s.putU64(0x5678);
    s.putU64(0x9abc);
    Deserializer d(s.bytes());
    Rng rng;
    rng.restore(d);
    return rng;
}

TEST(Rng, YieldingHelperProducesTheChosenDraw)
{
    for (const std::uint64_t x :
         {std::uint64_t{0}, std::uint64_t{1}, ~std::uint64_t{0},
          std::uint64_t{0x0123456789abcdef}}) {
        Rng rng = rngYielding(x);
        EXPECT_EQ(rng.next(), x);
    }
}

constexpr std::uint64_t lastDraw53 = (std::uint64_t{1} << 53) - 1;

/** Table and reference on the 53-bit draw m (low bits arbitrary);
 * both must return the same value and consume the same draw. */
void
expectSameDraw(const GeometricTable &table, double p, std::uint64_t cap,
               std::uint64_t m)
{
    const std::uint64_t x = (m << 11) | (m & 0x7ff);
    Rng a = rngYielding(x);
    Rng b = rngYielding(x);
    ASSERT_EQ(table.draw(a), b.geometric(p, cap))
        << "p=" << p << " cap=" << cap << " m=" << m;
    ASSERT_EQ(a.next(), b.next()) << "draw consumption differs";
}

/** First 53-bit draw at which the reference drops below j (bisection
 * on the reference itself, independent of the table's own search). */
std::uint64_t
referenceThreshold(double p, std::uint64_t cap, std::uint64_t j)
{
    const auto below = [&](std::uint64_t m) {
        Rng rng = rngYielding(m << 11);
        return rng.geometric(p, cap) < j;
    };
    std::uint64_t lo = 0, hi = lastDraw53;
    if (below(lo))
        return 0;
    while (hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        (below(mid) ? hi : lo) = mid;
    }
    return hi;
}

/** Exhaustive +-4096-draw windows around every threshold, the edges
 * of every leading-bit row, and 10^5 random draws. */
void
checkTableExhaustively(double p, std::uint64_t cap)
{
    SCOPED_TRACE(::testing::Message() << "p=" << p << " cap=" << cap);
    const GeometricTable table(p, cap);
    const std::uint64_t top = rngYielding(0).geometric(p, cap);
    for (std::uint64_t j = 1; j <= top; ++j) {
        const std::uint64_t t = referenceThreshold(p, cap, j);
        const std::uint64_t lo = t > 4096 ? t - 4096 : 0;
        const std::uint64_t hi = std::min(t + 4096, lastDraw53);
        for (std::uint64_t m = lo; m <= hi; ++m)
            expectSameDraw(table, p, cap, m);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    for (unsigned b = 0; b < 53; ++b) {
        const std::uint64_t edge = std::uint64_t{1} << b;
        expectSameDraw(table, p, cap, edge - 1);
        expectSameDraw(table, p, cap, edge);
        expectSameDraw(table, p, cap, edge + (edge >> 1));
    }
    expectSameDraw(table, p, cap, lastDraw53);
    Rng a(99), b(99);
    for (int i = 0; i < 100000; ++i)
        ASSERT_EQ(table.draw(a), b.geometric(p, cap));
}

TEST(GeometricTable, ExactForEveryProfileDependenceDistance)
{
    // The synthetic workloads draw distances with p = 1/meanDepDist
    // and cap 63 (SynthWorkload's maxDepDist - 1).
    std::set<double> ps;
    for (const auto &profile : specProfiles())
        ps.insert(1.0 / std::max(profile.meanDepDist, 1.0));
    ps.insert(1.0 / std::max(idleProfile().meanDepDist, 1.0));
    EXPECT_GE(ps.size(), 5u);
    for (const double p : ps)
        checkTableExhaustively(p, 63);
}

TEST(GeometricTable, ExactForOtherProbabilitiesAndCaps)
{
    for (const double p : {1.0 / 2, 1.0 / 3, 1.0 / 64})
        checkTableExhaustively(p, 63);
    // The default cap: the whole uncapped range of the draw.
    checkTableExhaustively(1.0 / 2, 1u << 20);
    checkTableExhaustively(1.0 / 3, 1u << 20);
    checkTableExhaustively(0.2, 1u << 20);
    // Degenerate caps.
    checkTableExhaustively(1.0 / 16, 1);
    checkTableExhaustively(1.0 / 16, 0);
}

TEST(GeometricTable, ProbabilityOneConsumesNoDraw)
{
    const GeometricTable table(1.0, 63);
    Rng a(5), b(5), c(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(table.draw(a), 0u);
        EXPECT_EQ(c.geometric(1.0, 63), 0u);
    }
    // Neither the table nor the reference advanced its stream.
    const std::uint64_t untouched = b.next();
    EXPECT_EQ(a.next(), untouched);
    EXPECT_EQ(c.next(), untouched);
}

/** Reference: the CDF ZipfSampler builds, searched with lower_bound. */
class ZipfReference
{
  public:
    ZipfReference(unsigned n, double s) : cdf_(n)
    {
        double acc = 0.0;
        for (unsigned k = 0; k < n; ++k) {
            acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
            cdf_[k] = acc;
        }
        for (auto &v : cdf_)
            v /= acc;
    }

    unsigned
    rankOf(double u) const
    {
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        if (it == cdf_.end())
            return static_cast<unsigned>(cdf_.size() - 1);
        return static_cast<unsigned>(it - cdf_.begin());
    }

    const std::vector<double> &cdf() const { return cdf_; }

  private:
    std::vector<double> cdf_;
};

TEST(ZipfSampler, GuideMatchesBinarySearchAtEveryCdfBoundary)
{
    for (const unsigned n : {1u, 2u, 10u, 64u, 100u, 1000u}) {
        for (const double s : {0.0, 1.1, 2.0}) {
            const ZipfSampler zipf(n, s);
            const ZipfReference ref(n, s);
            for (const double c : ref.cdf()) {
                // The 53-bit draws at and around the boundary value.
                const auto m0 = static_cast<std::uint64_t>(
                    std::floor(c * 0x1.0p53));
                for (std::uint64_t m = m0 > 2 ? m0 - 2 : 0;
                     m <= std::min(m0 + 2, lastDraw53); ++m) {
                    Rng rng = rngYielding(m << 11);
                    const double u = static_cast<double>(m) * 0x1.0p-53;
                    ASSERT_EQ(zipf.sample(rng), ref.rankOf(u))
                        << "n=" << n << " s=" << s << " m=" << m;
                }
            }
        }
    }
}

TEST(ZipfSampler, GuideMatchesBinarySearchOnRandomDraws)
{
    const ZipfSampler zipf(64, 1.1);
    const ZipfReference ref(64, 1.1);
    Rng a(31), b(31);
    for (int i = 0; i < 1000000; ++i)
        ASSERT_EQ(zipf.sample(a), ref.rankOf(b.real()));
}

/** Property sweep: alias-table sampling matches its declared
 * distribution for a variety of shapes. */
class AliasTableShapes
    : public ::testing::TestWithParam<std::vector<double>>
{};

TEST_P(AliasTableShapes, SamplesMatchDeclaredProbabilities)
{
    const auto weights = GetParam();
    AliasTable table(weights);
    Rng rng(1234);
    std::vector<unsigned> counts(weights.size(), 0);
    const int trials = 200000;
    for (int i = 0; i < trials; ++i)
        ++counts[table.sample(rng)];
    for (std::size_t i = 0; i < weights.size(); ++i) {
        EXPECT_NEAR(static_cast<double>(counts[i]) / trials,
                    table.probabilityOf(static_cast<unsigned>(i)),
                    0.012);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AliasTableShapes,
    ::testing::Values(std::vector<double>{1.0, 1.0},
                      std::vector<double>{0.9, 0.05, 0.05},
                      std::vector<double>{1, 2, 4, 8, 16, 32},
                      std::vector<double>{5, 0, 5, 0, 5},
                      std::vector<double>(100, 1.0)));

} // namespace
} // namespace nuca
