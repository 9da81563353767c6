/**
 * @file
 * Small deterministic PRNG (xoshiro256**) used by the workload
 * generators.  We avoid <random> engines so that traces are
 * reproducible bit-for-bit across standard library implementations.
 */

#ifndef PKTBUF_COMMON_RANDOM_HH
#define PKTBUF_COMMON_RANDOM_HH

#include <cmath>
#include <cstdint>

#include "logging.hh"
#include "serialize.hh"

namespace pktbuf
{

/**
 * xoshiro256** seeded through splitmix64.
 *
 * The seed is deliberately *not* defaulted: every randomized
 * workload, test and bench must name its seed so any failure can be
 * reproduced bit-for-bit from the log alone.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed)
    {
        // splitmix64 expansion of the seed into the four state words.
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) via Lemire's method. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        panic_if(bound == 0, "Rng::below(0)");
        const auto x = next();
        // 128-bit multiply-shift reduction.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(x) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        panic_if(lo > hi, "Rng::between: lo > hi");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * chance(p) as one integer compare: hit(chanceThreshold(p)) draws
     * the same value and returns the same answer.  uniform() is
     * k * 2^-53 for the integer k = next() >> 11, exactly, so
     * uniform() < p holds iff k < ceil(p * 2^53).  Hot loops compute
     * the threshold once.
     */
    static std::uint64_t
    chanceThreshold(double p)
    {
        if (!(p > 0.0))
            return 0;  // also NaN, which chance() never hits
        if (p >= 1.0)
            return std::uint64_t{1} << 53;
        // Scaling by a power of two is exact.
        return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
    }

    /** Bernoulli trial against a chanceThreshold(). */
    bool
    hit(std::uint64_t threshold)
    {
        return (next() >> 11) < threshold;
    }

    /** Checkpoint: the four raw state words. */
    void
    fields(ser::Io &io)
    {
        for (auto &word : state_)
            io.u64(word);
    }

    void save(ser::Writer &w) const { ser::save(w, *this); }
    void load(ser::Reader &r) { ser::load(r, *this); }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace pktbuf

#endif // PKTBUF_COMMON_RANDOM_HH
