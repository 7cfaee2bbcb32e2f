/**
 * @file
 * Deterministic pseudo-random number generation and the discrete
 * distributions the workload generators rely on.
 *
 * Every stochastic decision in the simulator (workload draws, spill
 * targets, experiment mixes) flows from an explicitly seeded Rng so
 * identical seeds reproduce identical simulations bit-for-bit across
 * platforms. std::mt19937 and <random> distributions are avoided
 * because their outputs are not specified identically across standard
 * library implementations.
 */

#ifndef NUCA_BASE_RANDOM_HH
#define NUCA_BASE_RANDOM_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "base/logging.hh"

namespace nuca {

class Serializer;
class Deserializer;

/**
 * xoshiro256** generator with a splitmix64-based seeding routine.
 * Fast, high quality, and fully portable.
 */
class Rng
{
  public:
    /** Seed the generator; the same seed yields the same stream. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound). @pre bound > 0 */
    std::uint64_t
    below(std::uint64_t bound)
    {
        panic_if(bound == 0, "Rng::below(0)");
        // Multiply-shift rejection-free mapping (Lemire); bias is
        // negligible (< 2^-64 * bound) for simulation purposes.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        panic_if(lo > hi, "Rng::between with lo > hi");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw: true with probability @p p. */
    bool
    chance(double p)
    {
        return real() < p;
    }

    /**
     * Geometric draw: number of failures before the first success
     * with per-trial success probability @p p in (0, 1]. Mean is
     * (1-p)/p. Capped at @p cap to bound pathological tails. This is
     * the reference definition; hot paths draw through an exact
     * GeometricTable instead.
     */
    std::uint64_t geometric(double p, std::uint64_t cap = 1u << 20);

    /** Derive an independent child stream (for per-core generators). */
    Rng split();

    /** Checkpoint the generator state (four 64-bit words). */
    void checkpoint(Serializer &s) const;
    /** Restore a state written by checkpoint(). */
    void restore(Deserializer &d);

  private:
    std::uint64_t s_[4];
};

/**
 * Exact table form of Rng::geometric(p, cap). draw() consumes one
 * rng.next() and returns bit-for-bit what geometric(p, cap) returns
 * for that draw (nothing is drawn when p == 1, as there), but
 * without a libm call: the per-instruction dependence distances of
 * the synthetic workloads make log() a visible share of a core tick.
 *
 * geometric() maps the 53-bit uniform draw m to a result that never
 * increases with m, so the result is the number of thresholds above
 * m, where threshold j is the first m whose result is below j. A
 * guide table indexed by m's leading-bit position and its next 8
 * bits holds the result of the smallest draw in each bucket; a
 * compare against the thresholds corrects it downward (a bucket
 * spans well under one result step for every p the workloads use,
 * so that is one branch-free step).
 */
class GeometricTable
{
  public:
    /**
     * @pre p in (0, 1]; the largest reachable result (cap, or less
     * when even the smallest draw yields less) fits the guide's
     * 16-bit entries.
     */
    GeometricTable(double p, std::uint64_t cap);

    /** Same value, same stream advance as rng.geometric(p, cap). */
    std::uint64_t
    draw(Rng &rng) const
    {
        if (thresholds_.empty()) // p == 1
            return 0;
        const std::uint64_t m = rng.next() >> 11;
        // Draws below the bottom row share it (branch-free clamp).
        const auto width = static_cast<int>(std::bit_width(m));
        const int b = std::max(width - 1, bottomRow_);
        const std::uint64_t k =
            (b >= 8 ? m >> (b - 8) : m << (8 - b)) & 0xff;
        std::uint64_t r =
            guide_[(static_cast<std::size_t>(b - bottomRow_) << 8) | k];
        // One step down covers every bucket narrower than a result
        // step (branch-free); the loop catches wider buckets.
        r -= m >= thresholds_[r];
        while (m >= thresholds_[r])
            --r;
        return r;
    }

  private:
    /** Lowest leading-bit row of the guide; smaller draws use it. */
    int bottomRow_ = 52;
    /** thresholds_[j], j from 1 to the largest result (that of
     * m = 0): the first m whose result is below j. thresholds_[0]
     * is a sentinel above every draw. Empty when p == 1. */
    std::vector<std::uint64_t> thresholds_;
    /** Result of the smallest draw in each (leading bit, next 8
     * bits) bucket, rows from bottomRow_ to 52; the bottom row's
     * buckets also take every smaller draw, so they hold the
     * largest result. */
    std::vector<std::uint16_t> guide_;
};

/**
 * Walker alias table: O(1) sampling from an arbitrary fixed discrete
 * distribution. Used on every workload memory reference to pick which
 * reuse region an access targets, so it has to be fast.
 */
class AliasTable
{
  public:
    AliasTable() = default;

    /**
     * Build the table from (unnormalized, non-negative) weights.
     * @pre at least one weight is positive.
     */
    explicit AliasTable(const std::vector<double> &weights);

    /** Draw an index with probability proportional to its weight. */
    unsigned
    sample(Rng &rng) const
    {
        panic_if(prob_.empty(), "sampling from an empty AliasTable");
        const auto i =
            static_cast<unsigned>(rng.below(prob_.size()));
        return rng.real() < prob_[i] ? i : alias_[i];
    }

    /** Number of outcomes. */
    std::size_t size() const { return prob_.size(); }

    /** Normalized probability of outcome @p i (for tests/inspection). */
    double probabilityOf(unsigned i) const;

  private:
    std::vector<double> prob_;
    std::vector<unsigned> alias_;
    std::vector<double> normWeights_;
};

/**
 * Zipf(s) sampler over ranks {0, ..., n-1}: P(k) proportional to
 * 1/(k+1)^s. Implemented with a precomputed CDF and a guide table:
 * the draw u starts at the rank for floor(u * G) / G and scans the
 * CDF linearly, which returns exactly the rank a binary search
 * (lower_bound) over the CDF would.
 */
class ZipfSampler
{
  public:
    ZipfSampler() = default;

    /** @pre n > 0, s >= 0 */
    ZipfSampler(unsigned n, double s);

    /** Draw a rank in [0, n). */
    unsigned sample(Rng &rng) const;

    unsigned size() const { return static_cast<unsigned>(cdf_.size()); }

  private:
    std::vector<double> cdf_;
    /** guide_[i]: the rank for u = i / guide_.size() (a power of
     * two, so u * size is exact). */
    std::vector<std::uint32_t> guide_;
};

} // namespace nuca

#endif // NUCA_BASE_RANDOM_HH
