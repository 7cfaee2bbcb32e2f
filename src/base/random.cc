#include "base/random.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "serialize/serializer.hh"

namespace nuca {

namespace {

/** splitmix64 step; standard seeding companion for xoshiro. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
    // xoshiro must not start from the all-zero state; splitmix64
    // cannot produce four zero outputs from any seed, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 0x9e3779b97f4a7c15ULL;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

void
Rng::checkpoint(Serializer &s) const
{
    for (const auto word : s_)
        s.putU64(word);
}

void
Rng::restore(Deserializer &d)
{
    for (auto &word : s_)
        word = d.getU64();
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        throw CheckpointError("Rng restore: all-zero state");
}

std::uint64_t
Rng::geometric(double p, std::uint64_t cap)
{
    panic_if(p <= 0.0 || p > 1.0, "geometric probability out of (0,1]");
    if (p >= 1.0)
        return 0;
    // Inversion: floor(log(U) / log(1-p)).
    const double u = std::max(real(), 0x1.0p-60);
    const double draws = std::floor(std::log(u) / std::log1p(-p));
    if (draws >= static_cast<double>(cap))
        return cap;
    return static_cast<std::uint64_t>(draws);
}

GeometricTable::GeometricTable(double p, std::uint64_t cap)
{
    panic_if(p <= 0.0 || p > 1.0, "geometric probability out of (0,1]");
    if (p >= 1.0)
        return;

    // Rng::geometric's expression for the 53-bit draw m, operation
    // for operation: the table is settled against it, never against
    // an approximation.
    const double denom = std::log1p(-p);
    const auto exact = [&](std::uint64_t m) -> std::uint64_t {
        const double u = std::max(static_cast<double>(m) * 0x1.0p-53,
                                  0x1.0p-60);
        const double draws = std::floor(std::log(u) / denom);
        if (draws >= static_cast<double>(cap))
            return cap;
        return static_cast<std::uint64_t>(draws);
    };

    constexpr std::uint64_t lastDraw = (std::uint64_t{1} << 53) - 1;
    const std::uint64_t top = exact(0); // the largest result
    panic_if(top > 0xffff, "GeometricTable: largest result ", top,
             " overflows the guide table");
    thresholds_.assign(top + 1, ~std::uint64_t{0});
    for (std::uint64_t j = 1; j <= top; ++j) {
        // exact(m) < j is false at m = 0 (exact(0) = top >= j) and
        // true at the last draw (exact = 0). Start from the closed
        // form m = 2^53 * exp(j * log1p(-p)), gallop outward until
        // the predicate changes, then bisect: a handful of log()
        // calls per threshold.
        const auto below = [&](std::uint64_t m) {
            return exact(m) < j;
        };
        const double guess =
            std::ldexp(std::exp(static_cast<double>(j) * denom), 53);
        std::uint64_t hi =
            guess >= static_cast<double>(lastDraw)
                ? lastDraw
                : std::max<std::uint64_t>(
                      static_cast<std::uint64_t>(guess) + 1, 1);
        std::uint64_t lo;
        if (below(hi)) {
            for (std::uint64_t step = 1;; step *= 2) {
                lo = hi > step ? hi - step : 0;
                if (!below(lo))
                    break;
                hi = lo;
            }
        } else {
            lo = hi;
            for (std::uint64_t step = 1;; step *= 2) {
                hi = std::min(lo + step, lastDraw);
                if (below(hi))
                    break;
                lo = hi;
            }
        }
        while (hi - lo > 1) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            (below(mid) ? hi : lo) = mid;
        }
        thresholds_[j] = hi;
        panic_if(hi > thresholds_[j - 1],
                 "geometric draw is not monotone in the uniform draw");
    }

    // Rows below the one holding thresholds_[top] yield top for
    // every draw; the guide starts one row lower still, so that its
    // bottom row is all top and can take every smaller draw too.
    if (top > 0) {
        const auto width =
            static_cast<int>(std::bit_width(thresholds_[top]));
        bottomRow_ = std::max(width - 2, 0);
    }
    guide_.resize(static_cast<std::size_t>(53 - bottomRow_) << 8);
    for (int b = bottomRow_; b < 53; ++b) {
        for (std::uint64_t k = 0; k < 256; ++k) {
            // The smallest draw in the bucket (0 for the bottom row,
            // which also takes the draws below it): its result
            // bounds every other draw's in the bucket from above.
            const std::uint64_t m =
                b == bottomRow_ ? 0
                : b >= 8        ? (256 + k) << (b - 8)
                                : (256 + k) >> (8 - b);
            const auto first_at_or_below = std::partition_point(
                thresholds_.begin() + 1, thresholds_.end(),
                [m](std::uint64_t t) { return t > m; });
            guide_[(static_cast<std::size_t>(b - bottomRow_) << 8) | k] =
                static_cast<std::uint16_t>(first_at_or_below -
                                           thresholds_.begin() - 1);
        }
    }
}

Rng
Rng::split()
{
    // A fresh generator seeded from this stream's output; streams are
    // decorrelated through the splitmix64 scrambler in the ctor.
    return Rng(next());
}

AliasTable::AliasTable(const std::vector<double> &weights)
{
    panic_if(weights.empty(), "AliasTable built from no weights");
    double total = 0.0;
    for (double w : weights) {
        panic_if(w < 0.0, "AliasTable weight is negative");
        total += w;
    }
    panic_if(total <= 0.0, "AliasTable weights sum to zero");

    const auto n = weights.size();
    prob_.assign(n, 0.0);
    alias_.assign(n, 0);
    normWeights_.resize(n);

    // Scaled probabilities: mean 1.0.
    std::vector<double> scaled(n);
    for (std::size_t i = 0; i < n; ++i) {
        normWeights_[i] = weights[i] / total;
        scaled[i] = normWeights_[i] * static_cast<double>(n);
    }

    std::vector<unsigned> small, large;
    for (std::size_t i = 0; i < n; ++i) {
        (scaled[i] < 1.0 ? small : large)
            .push_back(static_cast<unsigned>(i));
    }

    while (!small.empty() && !large.empty()) {
        const unsigned s = small.back();
        small.pop_back();
        const unsigned l = large.back();
        large.pop_back();
        prob_[s] = scaled[s];
        alias_[s] = l;
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        (scaled[l] < 1.0 ? small : large).push_back(l);
    }
    // Residual buckets are full-probability (floating-point leftovers).
    for (unsigned i : large)
        prob_[i] = 1.0;
    for (unsigned i : small)
        prob_[i] = 1.0;
}

double
AliasTable::probabilityOf(unsigned i) const
{
    panic_if(i >= normWeights_.size(), "AliasTable index out of range");
    return normWeights_[i];
}

ZipfSampler::ZipfSampler(unsigned n, double s)
{
    panic_if(n == 0, "ZipfSampler over zero ranks");
    panic_if(s < 0.0, "ZipfSampler exponent is negative");
    cdf_.resize(n);
    double acc = 0.0;
    for (unsigned k = 0; k < n; ++k) {
        acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_[k] = acc;
    }
    for (auto &v : cdf_)
        v /= acc;

    // Four guide buckets per rank keep the scan to about one step.
    guide_.resize(std::bit_ceil(std::size_t{4} * n));
    const double scale = 1.0 / static_cast<double>(guide_.size());
    for (std::size_t i = 0; i < guide_.size(); ++i) {
        const auto it = std::lower_bound(
            cdf_.begin(), cdf_.end(), static_cast<double>(i) * scale);
        guide_[i] = static_cast<std::uint32_t>(
            std::min<std::ptrdiff_t>(it - cdf_.begin(), n - 1));
    }
}

unsigned
ZipfSampler::sample(Rng &rng) const
{
    panic_if(cdf_.empty(), "sampling from an empty ZipfSampler");
    const double u = rng.real();
    // The first rank whose CDF reaches u (lower_bound), or the last
    // rank; the guide's rank for floor(u * G) / G <= u is a lower
    // bound for it.
    std::size_t k = guide_[static_cast<std::size_t>(
        u * static_cast<double>(guide_.size()))];
    while (k + 1 < cdf_.size() && cdf_[k] < u)
        ++k;
    return static_cast<unsigned>(k);
}

} // namespace nuca
