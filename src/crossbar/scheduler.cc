#include "scheduler.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/logging.hh"

namespace pktbuf::xbar
{

std::size_t
matchingSize(const Matching &m)
{
    std::size_t n = 0;
    for (const auto out : m)
        n += out != kInvalidQueue ? 1 : 0;
    return n;
}

bool
matchingConflictFree(const Matching &m, unsigned ports)
{
    if (m.size() != ports)
        return false;
    std::vector<bool> taken(ports, false);
    for (const auto out : m) {
        if (out == kInvalidQueue)
            continue;
        if (out >= ports || taken[out])
            return false;
        taken[out] = true;
    }
    return true;
}

bool
matchingBacked(const Matching &m, const Occupancy &occ)
{
    for (unsigned i = 0; i < occ.ports(); ++i) {
        if (m[i] != kInvalidQueue && occ.at(i, m[i]) == 0)
            return false;
    }
    return true;
}

bool
matchingMaximal(const Matching &m, const Occupancy &occ)
{
    const unsigned n = occ.ports();
    std::vector<bool> taken(n, false);
    for (const auto out : m)
        if (out != kInvalidQueue)
            taken[out] = true;
    for (unsigned i = 0; i < n; ++i) {
        if (m[i] != kInvalidQueue)
            continue;
        for (unsigned j = 0; j < n; ++j) {
            if (!taken[j] && occ.at(i, j) > 0)
                return false;  // augmenting edge (i, j) exists
        }
    }
    return true;
}

namespace
{

/** One Kuhn augmenting-path step from input `i`. */
bool
augment(const Occupancy &occ, unsigned i, std::vector<bool> &visited,
        std::vector<unsigned> &owner)
{
    const unsigned n = occ.ports();
    for (unsigned j = 0; j < n; ++j) {
        if (occ.at(i, j) == 0 || visited[j])
            continue;
        visited[j] = true;
        if (owner[j] == n || augment(occ, owner[j], visited, owner)) {
            owner[j] = i;
            return true;
        }
    }
    return false;
}

} // namespace

unsigned
maximumMatchingSize(const Occupancy &occ)
{
    const unsigned n = occ.ports();
    std::vector<unsigned> owner(n, n);  // output -> matched input
    unsigned size = 0;
    for (unsigned i = 0; i < n; ++i) {
        std::vector<bool> visited(n, false);
        if (augment(occ, i, visited, owner))
            ++size;
    }
    return size;
}

std::string
toString(SchedulerKind k)
{
    switch (k) {
      case SchedulerKind::Islip:
        return "islip";
      case SchedulerKind::Qps:
        return "qps";
      case SchedulerKind::RandomMaximal:
        return "random";
    }
    return "?";
}

bool
parseSchedulerKind(const std::string &token, SchedulerKind &out)
{
    if (token == "islip")
        out = SchedulerKind::Islip;
    else if (token == "qps")
        out = SchedulerKind::Qps;
    else if (token == "random")
        out = SchedulerKind::RandomMaximal;
    else
        return false;
    return true;
}

namespace
{

/**
 * First set bit at or after `from`, cyclically, of the bitset whose
 * k-th u64 word is word(k), over `words` words; `none` when no bit
 * is set.  Bits at or beyond the radix must be clear.
 */
template <typename WordFn>
unsigned
firstCyclic(unsigned words, unsigned from, unsigned none, WordFn word)
{
    unsigned w = from / 64;
    std::uint64_t x = word(w) & (~std::uint64_t{0} << (from % 64));
    // words + 1 visits: the last re-reads the start word whole, for
    // the bits below `from` that come after the wrap.
    for (unsigned k = 0; k <= words; ++k) {
        if (x)
            return w * 64 + static_cast<unsigned>(std::countr_zero(x));
        w = w + 1 == words ? 0 : w + 1;
        x = word(w);
    }
    return none;
}

/** Set bits [0, n) of a ceil(n / 64)-word bitset, clear the rest. */
void
setLow(std::vector<std::uint64_t> &set, unsigned n)
{
    std::fill(set.begin(), set.end(), ~std::uint64_t{0});
    if (n % 64)
        set.back() = (std::uint64_t{1} << (n % 64)) - 1;
}

std::uint64_t
bit(unsigned i)
{
    return std::uint64_t{1} << (i % 64);
}

/** firstCyclic() of a non-zero one-word bitset, `from` < 64. */
unsigned
firstCyclicWord(std::uint64_t x, unsigned from)
{
    const std::uint64_t at_or_after = x & (~std::uint64_t{0} << from);
    return static_cast<unsigned>(
        std::countr_zero(at_or_after ? at_or_after : x));
}

} // namespace

IslipScheduler::IslipScheduler(unsigned ports, unsigned iterations)
    : ports_(ports), iterations_(iterations), g_(ports, 0),
      a_(ports, 0), in_free_((ports + 63) / 64),
      out_free_(in_free_.size()), granted_(in_free_.size()),
      grants_(static_cast<std::size_t>(ports) * in_free_.size(), 0)
{
    fatal_if(ports == 0, "islip: zero ports");
    fatal_if(iterations == 0, "islip: zero iterations");
}

std::string
IslipScheduler::name() const
{
    std::ostringstream os;
    os << "islip" << iterations_;
    return os.str();
}

void
IslipScheduler::schedule(const Occupancy &occ, Matching &match)
{
    const unsigned n = ports_;
    panic_if(occ.ports() != n, "islip: ", occ.ports(),
             "-port occupancy for ", n, " ports");
    match.assign(n, kInvalidQueue);
    if (n <= 64) {
        scheduleOneWord(occ, match);
        return;
    }
    const unsigned words = occ.words();
    setLow(in_free_, n);
    setLow(out_free_, n);
    last_iters_ = 0;
    for (unsigned it = 0; it < iterations_; ++it) {
        // Grant: each unmatched output picks the first unmatched
        // input with a backed VOQ at or after its grant pointer.
        bool granted_any = false;
        for (unsigned w = 0; w < words; ++w) {
            for (auto x = out_free_[w]; x; x &= x - 1) {
                const unsigned j =
                    w * 64 + static_cast<unsigned>(std::countr_zero(x));
                const auto req = occ.requesters(j);
                const unsigned i = firstCyclic(
                    words, g_[j], n,
                    [&](unsigned k) { return req[k] & in_free_[k]; });
                if (i == n)
                    continue;
                grants_[static_cast<std::size_t>(i) * words + w] |=
                    bit(j);
                granted_[i / 64] |= bit(i);
                granted_any = true;
            }
        }
        if (!granted_any)
            break;
        // Accept: each granted input picks the first granting output
        // at or after its accept pointer.  An output grants one
        // input, so accepts never collide.  Pointers move one past
        // the partner only on first-iteration accepts.
        for (unsigned w = 0; w < words; ++w) {
            for (auto x = granted_[w]; x; x &= x - 1) {
                const unsigned i =
                    w * 64 + static_cast<unsigned>(std::countr_zero(x));
                std::uint64_t *row =
                    grants_.data() + static_cast<std::size_t>(i) * words;
                const unsigned j = firstCyclic(
                    words, a_[i], n, [row](unsigned k) { return row[k]; });
                std::fill(row, row + words, 0);
                match[i] = j;
                in_free_[i / 64] &= ~bit(i);
                out_free_[j / 64] &= ~bit(j);
                if (it == 0) {
                    g_[j] = (i + 1) % n;
                    a_[i] = (j + 1) % n;
                }
            }
            granted_[w] = 0;
        }
        ++last_iters_;
    }
}

void
IslipScheduler::scheduleOneWord(const Occupancy &occ, Matching &match)
{
    const unsigned n = ports_;
    const std::uint64_t all =
        n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    std::uint64_t in_free = all;
    std::uint64_t out_free = all;
    // Per input, the outputs that granted it: one word each.
    std::uint64_t *grants = grants_.data();
    last_iters_ = 0;
    for (unsigned it = 0; it < iterations_; ++it) {
        std::uint64_t granted = 0;
        for (auto x = out_free; x; x &= x - 1) {
            const auto j = static_cast<unsigned>(std::countr_zero(x));
            const std::uint64_t req = occ.requesterWord(j) & in_free;
            if (!req)
                continue;
            const unsigned i = firstCyclicWord(req, g_[j]);
            grants[i] |= bit(j);
            granted |= bit(i);
        }
        if (!granted)
            break;
        for (auto x = granted; x; x &= x - 1) {
            const auto i = static_cast<unsigned>(std::countr_zero(x));
            const unsigned j = firstCyclicWord(grants[i], a_[i]);
            grants[i] = 0;
            match[i] = j;
            in_free &= ~bit(i);
            out_free &= ~bit(j);
            if (it == 0) {
                g_[j] = i + 1 == n ? 0 : i + 1;
                a_[i] = j + 1 == n ? 0 : j + 1;
            }
        }
        ++last_iters_;
    }
}

void
IslipScheduler::fields(ser::Io &io)
{
    io.tag("ISLP");
    for (auto &p : g_) {
        io.u32(p);
        fatal_if(io.reading() && p >= ports_,
                 "checkpoint: islip grant pointer ", p, " out of range");
    }
    for (auto &p : a_) {
        io.u32(p);
        fatal_if(io.reading() && p >= ports_,
                 "checkpoint: islip accept pointer ", p, " out of range");
    }
}

QpsScheduler::QpsScheduler(unsigned ports, unsigned window,
                           std::uint64_t seed)
    : ports_(ports), window_(window), rng_(seed), held_(ports),
      out_taken_(ports), proposal_(ports)
{
    fatal_if(ports == 0, "qps: zero ports");
    fatal_if(window == 0, "qps: zero window");
}

std::string
QpsScheduler::name() const
{
    std::ostringstream os;
    os << "qps_w" << window_;
    return os.str();
}

void
QpsScheduler::schedule(const Occupancy &occ, Matching &match)
{
    const unsigned n = ports_;
    match.assign(n, kInvalidQueue);
    auto &out_taken = out_taken_;
    std::fill(out_taken.begin(), out_taken.end(), 0);
    last_iters_ = 0;

    // Phase 1 -- sliding-window hold: keep last slot's edge while it
    // is younger than the window and its VOQ is still backed.
    bool held_any = false;
    for (unsigned i = 0; i < n; ++i) {
        auto &h = held_[i];
        if (h.out != kInvalidQueue && h.age < window_ &&
            occ.at(i, h.out) > 0 && !out_taken[h.out]) {
            match[i] = h.out;
            out_taken[h.out] = true;
            ++h.age;
            held_any = true;
        } else {
            h = Hold{};
        }
    }
    if (held_any)
        ++last_iters_;

    // Phase 2 -- queue-proportional sampling: one proposal per
    // unmatched input, drawn with probability proportional to VOQ
    // depth; each free output accepts the deepest proposal.
    auto &proposal = proposal_;
    std::fill(proposal.begin(), proposal.end(), kInvalidQueue);
    for (unsigned i = 0; i < n; ++i) {
        if (match[i] != kInvalidQueue)
            continue;
        const auto total = occ.rowTotal(i);
        if (total == 0)
            continue;
        auto pick = rng_.below(total);
        for (unsigned j = 0; j < n; ++j) {
            const auto c = occ.at(i, j);
            if (pick < c) {
                proposal[i] = j;
                break;
            }
            pick -= c;
        }
    }
    bool sampled_any = false;
    for (unsigned j = 0; j < n; ++j) {
        if (out_taken[j])
            continue;
        unsigned best = n;
        std::uint64_t best_depth = 0;
        for (unsigned i = 0; i < n; ++i) {
            if (proposal[i] == j && occ.at(i, j) > best_depth) {
                best = i;
                best_depth = occ.at(i, j);
            }
        }
        if (best < n) {
            match[best] = j;
            out_taken[j] = true;
            held_[best] = Hold{static_cast<QueueId>(j), 0};
            sampled_any = true;
        }
    }
    if (sampled_any)
        ++last_iters_;

    // Phase 3 -- greedy completion to a maximal matching.
    bool filled_any = false;
    for (unsigned i = 0; i < n; ++i) {
        if (match[i] != kInvalidQueue)
            continue;
        for (unsigned j = 0; j < n; ++j) {
            if (out_taken[j] || occ.at(i, j) == 0)
                continue;
            match[i] = j;
            out_taken[j] = true;
            held_[i] = Hold{static_cast<QueueId>(j), 0};
            filled_any = true;
            break;
        }
    }
    if (filled_any)
        ++last_iters_;
}

void
QpsScheduler::fields(ser::Io &io)
{
    io.tag("QPSS");
    rng_.fields(io);
    for (auto &h : held_) {
        io.u32(h.out);
        io.u64(h.age);
        if (!io.reading() || h.out == kInvalidQueue)
            continue;
        fatal_if(h.out >= ports_,
                 "checkpoint: qps held output out of range");
        fatal_if(h.age > window_, "checkpoint: qps hold age beyond window");
    }
}

RandomMaximalScheduler::RandomMaximalScheduler(unsigned ports,
                                               std::uint64_t seed)
    : ports_(ports), rng_(seed), out_taken_(ports), order_(ports)
{
    fatal_if(ports == 0, "random scheduler: zero ports");
}

void
RandomMaximalScheduler::schedule(const Occupancy &occ, Matching &match)
{
    const unsigned n = ports_;
    match.assign(n, kInvalidQueue);
    auto &out_taken = out_taken_;
    std::fill(out_taken.begin(), out_taken.end(), 0);

    // Fresh random service order over the inputs (Fisher-Yates).
    auto &order = order_;
    for (unsigned i = 0; i < n; ++i)
        order[i] = i;
    for (unsigned i = n - 1; i > 0; --i) {
        const auto j = static_cast<unsigned>(rng_.below(i + 1));
        std::swap(order[i], order[j]);
    }

    for (const unsigned i : order) {
        unsigned candidates = 0;
        for (unsigned j = 0; j < n; ++j)
            candidates += (!out_taken[j] && occ.at(i, j) > 0) ? 1 : 0;
        if (candidates == 0)
            continue;
        auto pick = rng_.below(candidates);
        for (unsigned j = 0; j < n; ++j) {
            if (out_taken[j] || occ.at(i, j) == 0)
                continue;
            if (pick-- == 0) {
                match[i] = j;
                out_taken[j] = true;
                break;
            }
        }
    }
    last_iters_ = 1;
}

void
RandomMaximalScheduler::fields(ser::Io &io)
{
    io.tag("RMAX");
    rng_.fields(io);
}

std::unique_ptr<Scheduler>
makeScheduler(SchedulerKind k, unsigned ports,
              unsigned islip_iterations, unsigned qps_window,
              std::uint64_t seed)
{
    switch (k) {
      case SchedulerKind::Islip:
        return std::make_unique<IslipScheduler>(ports,
                                                islip_iterations);
      case SchedulerKind::Qps:
        return std::make_unique<QpsScheduler>(ports, qps_window,
                                              seed);
      case SchedulerKind::RandomMaximal:
        return std::make_unique<RandomMaximalScheduler>(ports, seed);
    }
    fatal("unknown scheduler kind");
}

} // namespace pktbuf::xbar
