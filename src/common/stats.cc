#include "stats.hh"

#include <algorithm>
#include <iomanip>

#include "logging.hh"

namespace pktbuf
{

P2QuantileSet::P2QuantileSet(std::vector<double> probs)
    : probs_(std::move(probs))
{
    panic_if(probs_.empty(),
             "P2QuantileSet needs at least one target probability");
    for (std::size_t i = 0; i < probs_.size(); ++i) {
        panic_if(probs_[i] <= 0.0 || probs_[i] >= 1.0,
                 "P2QuantileSet target probability ", probs_[i],
                 " outside (0, 1)");
        panic_if(i > 0 && probs_[i] <= probs_[i - 1],
                 "P2QuantileSet target probabilities must be "
                 "strictly increasing");
    }
    // Marker fractions: 0, then a midpoint and the target for every
    // probability, then a midpoint to 1, then 1 -- Jain & Chlamtac's
    // extension to simultaneous quantiles (2k+3 markers).
    frac_.push_back(0.0);
    double prev = 0.0;
    for (const double p : probs_) {
        frac_.push_back((prev + p) / 2.0);
        frac_.push_back(p);
        prev = p;
    }
    frac_.push_back((prev + 1.0) / 2.0);
    frac_.push_back(1.0);
    q_.assign(markers(), 0.0);
    n_.assign(markers(), 0.0);
    np_.assign(markers(), 0.0);
}

void
P2QuantileSet::sample(double v)
{
    const std::size_t m = markers();
    if (count_ < m) {
        // Exact phase: keep the first 2k+3 samples sorted verbatim.
        std::size_t i = count_;
        while (i > 0 && q_[i - 1] > v) {
            q_[i] = q_[i - 1];
            --i;
        }
        q_[i] = v;
        ++count_;
        if (count_ == m) {
            for (std::size_t j = 0; j < m; ++j) {
                n_[j] = static_cast<double>(j);
                np_[j] = static_cast<double>(m - 1) * frac_[j];
            }
        }
        return;
    }

    // Locate the cell the sample falls into, extending the extreme
    // markers when it lies outside the current span.
    std::size_t k;
    if (v < q_[0]) {
        q_[0] = v;
        k = 0;
    } else if (v >= q_[m - 1]) {
        q_[m - 1] = v;
        k = m - 2;
    } else {
        k = 0;
        while (k < m - 2 && q_[k + 1] <= v)
            ++k;
    }
    ++count_;

    for (std::size_t i = k + 1; i < m; ++i)
        n_[i] += 1.0;
    for (std::size_t i = 0; i < m; ++i)
        np_[i] += frac_[i];

    // Nudge every interior marker toward its desired position:
    // parabolic (P²) interpolation when it keeps the heights
    // monotone, linear otherwise.  The shared sorted heights are what
    // make quantile(p) monotone in p.
    for (std::size_t i = 1; i + 1 < m; ++i) {
        const double d = np_[i] - n_[i];
        if ((d >= 1.0 && n_[i + 1] - n_[i] > 1.0) ||
            (d <= -1.0 && n_[i - 1] - n_[i] < -1.0)) {
            const double s = d >= 0 ? 1.0 : -1.0;
            const double qp =
                q_[i] +
                s / (n_[i + 1] - n_[i - 1]) *
                    ((n_[i] - n_[i - 1] + s) * (q_[i + 1] - q_[i]) /
                         (n_[i + 1] - n_[i]) +
                     (n_[i + 1] - n_[i] - s) * (q_[i] - q_[i - 1]) /
                         (n_[i] - n_[i - 1]));
            if (q_[i - 1] < qp && qp < q_[i + 1]) {
                q_[i] = qp;
            } else {
                const std::size_t j = s > 0 ? i + 1 : i - 1;
                q_[i] += s * (q_[j] - q_[i]) / (n_[j] - n_[i]);
            }
            // Clamp per the P² paper: a height never crosses its
            // neighbours, so the markers stay sorted by construction.
            q_[i] = std::clamp(q_[i], q_[i - 1], q_[i + 1]);
            n_[i] += s;
        }
    }
}

double
P2QuantileSet::quantile(double p) const
{
    std::size_t idx = markers();
    for (std::size_t i = 0; i < probs_.size(); ++i)
        if (probs_[i] == p)
            idx = 2 * i + 2;  // frac_ layout: 0, mid, p1, mid, p2...
    panic_if(idx >= markers(), "P2QuantileSet::quantile(", p,
             ") is not a construction-time target");
    if (count_ == 0)
        return 0.0;
    if (count_ <= markers()) {
        // Exact: q_ still holds the sorted sample prefix.
        const double rank = p * static_cast<double>(count_ - 1);
        const auto lo = static_cast<std::size_t>(rank);
        const double frac = rank - static_cast<double>(lo);
        if (lo + 1 >= count_)
            return q_[count_ - 1];
        return q_[lo] + frac * (q_[lo + 1] - q_[lo]);
    }
    return q_[idx];
}

void
P2QuantileSet::fields(ser::Io &io)
{
    io.fixedCount(probs_.size(), "P2QuantileSet targets");
    for (const double configured : probs_) {
        double p = configured;
        io.real(p);
        fatal_if(p != configured, "checkpoint: P2QuantileSet target ",
                 p, " != configured ", configured);
    }
    io.u64(count_);
    for (std::size_t i = 0; i < markers(); ++i) {
        io.real(q_[i]);
        io.real(n_[i]);
        io.real(np_[i]);
    }
}

void
StatRegistry::dump(std::ostream &os) const
{
    os << std::left;
    for (const auto &[name, c] : counters_)
        os << std::setw(40) << name << c.value() << "\n";
    for (const auto &[name, w] : waters_)
        os << std::setw(40) << (name + ".max") << w.max() << "\n";
    for (const auto &[name, s] : samplers_) {
        os << std::setw(40) << (name + ".mean") << s.mean() << "\n";
        os << std::setw(40) << (name + ".min") << s.min() << "\n";
        os << std::setw(40) << (name + ".max") << s.max() << "\n";
        os << std::setw(40) << (name + ".count") << s.count() << "\n";
    }
}

namespace
{

/** One map of named statistics: its size, then (name, value) pairs
 *  in name order.  A restore assigns into existing map nodes
 *  (inserting any missing) so the Counter and Sampler pointers
 *  components cache stay valid. */
template <typename Stat>
void
namedFields(ser::Io &io, std::map<std::string, Stat> &stats)
{
    // A name's length prefix and the smallest statistic are 8 bytes
    // each.
    const auto n = io.count(stats.size(), 16, "named statistics");
    if (!io.reading()) {
        for (auto &[name, stat] : stats) {
            std::string key = name;
            io.str(key);
            stat.fields(io);
        }
        return;
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string name;
        io.str(name);
        stats[name].fields(io);
    }
}

} // namespace

void
StatRegistry::fields(ser::Io &io)
{
    io.tag("STRG");
    namedFields(io, counters_);
    namedFields(io, waters_);
    namedFields(io, samplers_);
}

} // namespace pktbuf
