/**
 * @file
 * Lightweight statistics primitives: scalar counters, min/max/mean
 * trackers, high-water marks, a joint streaming quantile estimator
 * and a registry that pretty-prints everything a component recorded.
 * Modeled loosely after gem5's Stats package but deliberately tiny.
 */

#ifndef PKTBUF_COMMON_STATS_HH
#define PKTBUF_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "serialize.hh"

namespace pktbuf
{

/** A monotonically increasing scalar counter. */
class Counter
{
  public:
    void
    inc(std::uint64_t delta = 1)
    {
        value_ += delta;
    }

    std::uint64_t value() const { return value_; }

    void reset() { value_ = 0; }

    void fields(ser::Io &io) { io.u64(value_); }

  private:
    std::uint64_t value_ = 0;
};

/** Tracks min / max / mean of a sampled quantity. */
class Sampler
{
  public:
    void
    sample(double v)
    {
        if (count_ == 0 || v < min_)
            min_ = v;
        if (count_ == 0 || v > max_)
            max_ = v;
        sum_ += v;
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    void
    reset()
    {
        count_ = 0;
        sum_ = min_ = max_ = 0.0;
    }

    void
    fields(ser::Io &io)
    {
        io.u64(count_);
        io.real(sum_);
        io.real(min_);
        io.real(max_);
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** High-water-mark tracker for occupancies. */
class HighWater
{
  public:
    void
    observe(std::int64_t v)
    {
        if (v > max_)
            max_ = v;
    }

    std::int64_t max() const { return max_; }

    void reset() { max_ = 0; }

    void fields(ser::Io &io) { io.i64(max_); }

  private:
    std::int64_t max_ = 0;
};

/**
 * Joint streaming estimator for several quantiles of one stream: the
 * multi-quantile extension of Jain & Chlamtac's P² algorithm, in
 * O(k) memory for k targets.  One shared, always-sorted marker array
 * of 2k+3 heights (a midpoint marker before every target and one
 * after the last) serves all k target probabilities, so the
 * estimates are mutually consistent by construction: quantile(p) is
 * non-decreasing in p, which independent one-quantile P² estimators
 * cannot guarantee (their marker sets drift independently and cross
 * on adversarial streams -- observed at n == 7 on tri-valued
 * inputs).
 *
 * Exact for the first 2k+3 samples (kept sorted verbatim and
 * interpolated at rank p*(n-1)).  Beyond that, markers move by
 * parabolic interpolation, and each height is clamped between its
 * neighbours per the P² paper, so every estimate lies within
 * [min, max] of the stream; the error shrinks as the sample count
 * grows.  Deterministic: a pure function of the sample sequence.
 */
class P2QuantileSet
{
  public:
    /** @param probs target probabilities, strictly increasing, each
     *         in (0, 1).  Fixed for the estimator's lifetime. */
    explicit P2QuantileSet(std::vector<double> probs);

    void sample(double v);

    /**
     * Estimate for one construction-time target probability (panics
     * on any other value).  Non-decreasing in `p`; 0 before any
     * sample.
     */
    double quantile(double p) const;

    std::uint64_t count() const { return count_; }

    /** Restoring needs an estimator with the same targets; any
     *  other target set is a FatalError. */
    void fields(ser::Io &io);
    void save(ser::Writer &w) const { ser::save(w, *this); }
    void load(ser::Reader &r) { ser::load(r, *this); }

  private:
    std::size_t markers() const { return frac_.size(); }

    std::vector<double> probs_;  // ser: config
    /** Marker fractions 0, (0+p1)/2, p1, ..., (pk+1)/2, 1; also the
     *  per-sample desired-position increments (the paper's dn). */
    std::vector<double> frac_;  // ser: config
    std::uint64_t count_ = 0;
    // While count_ < markers(): q_[0..count_) holds the sorted
    // samples.  After: the marker heights q_, positions n_ and
    // desired positions np_.
    std::vector<double> q_;
    std::vector<double> n_;
    std::vector<double> np_;
};

/**
 * A flat registry of named statistics for one simulation.  Components
 * hold references to entries; dump() prints "name value" lines.
 */
class StatRegistry
{
  public:
    Counter &counter(const std::string &name) { return counters_[name]; }
    Sampler &sampler(const std::string &name) { return samplers_[name]; }
    HighWater &highWater(const std::string &name) { return waters_[name]; }

    void dump(std::ostream &os) const;

    std::uint64_t
    counterValue(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second.value();
    }

    /**
     * Checkpoint.  A restore assigns into existing entries (inserting
     * missing ones) and never clears the maps: components hold
     * pointers and references to entries across save/restore, and
     * std::map nodes are stable, so those stay valid.
     */
    void fields(ser::Io &io);
    void save(ser::Writer &w) const { ser::save(w, *this); }
    void load(ser::Reader &r) { ser::load(r, *this); }

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Sampler> samplers_;
    std::map<std::string, HighWater> waters_;
};

} // namespace pktbuf

#endif // PKTBUF_COMMON_STATS_HH
