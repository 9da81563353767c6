/**
 * @file
 * Workload generators: per-slot cell arrivals and per-slot arbiter
 * (switch-fabric scheduler) requests.
 *
 * A workload may request a cell of queue q at slot t only if that
 * cell has already arrived and has not been requested yet -- the
 * switch scheduler never asks for data that is not in the buffer.
 * The base class tracks per-queue "requestable" credit so concrete
 * patterns cannot violate this; the *order* in which queues are
 * drained is what distinguishes adversarial from benign patterns.
 */

#ifndef PKTBUF_SIM_WORKLOAD_HH
#define PKTBUF_SIM_WORKLOAD_HH

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"

namespace pktbuf::sim
{

/** One slot's stimulus. */
struct Stimulus
{
    std::optional<Cell> arrival;      //!< at most one cell in
    QueueId request = kInvalidQueue;  //!< at most one request out
};

/**
 * Base workload: derived classes choose the arrival queue and the
 * request queue; this class stamps cells, enforces request validity
 * and tracks credits.
 */
class Workload
{
  public:
    Workload(unsigned queues, std::uint64_t seed)
        : queues_(queues), rng_(seed), credit_(queues, 0),
          next_seq_(queues, 0)
    {}

    virtual ~Workload() = default;

    /** Produce this slot's stimulus with every arrival admitted. */
    Stimulus
    step(Slot now)
    {
        return step(now, [](QueueId) { return true; });
    }

    /**
     * Produce this slot's stimulus.  If `admit` rejects the
     * arrival's queue, the cell is dropped *before* it exists
     * (counted in drops()) -- modeling ingress admission control /
     * loss.  The predicate is a template parameter so the per-slot
     * hot loops pay no std::function indirection.
     */
    template <typename AdmitFn>
    Stimulus
    step(Slot now, const AdmitFn &admit)
    {
        Stimulus s;
        const QueueId aq = arrivalQueue(now);
        if (aq != kInvalidQueue && !admit(aq)) {
            ++drops_;
        } else if (aq != kInvalidQueue) {
            Cell c;
            c.queue = aq;
            c.seq = next_seq_[aq]++;
            c.arrival = now;
            s.arrival = c;
            ++credit_[aq];
            ++total_credit_;
        }
        const QueueId rq = requestQueue(now);
        if (rq != kInvalidQueue) {
            panic_if(credit_[rq] == 0,
                     "workload requested unavailable cell, queue ", rq);
            --credit_[rq];
            --total_credit_;
            s.request = rq;
        }
        return s;
    }

    unsigned queues() const { return queues_; }

    /** Cells arrived but not yet requested, per queue. */
    std::uint64_t credit(QueueId q) const { return credit_[q]; }

    /** Cells arrived but not yet requested, over all queues. */
    std::uint64_t totalCredit() const { return total_credit_; }

    /** First queue with credit at or after `from`, cyclic; O(Q). */
    QueueId
    nextRequestable(QueueId from) const
    {
        for (unsigned i = 0; i < queues_; ++i) {
            const QueueId q = (from + i) % queues_;
            if (credit_[q] > 0)
                return q;
        }
        return kInvalidQueue;
    }

    /** Arrivals rejected by the admission predicate. */
    std::uint64_t drops() const { return drops_; }

    /**
     * Externally consume one credit of queue q (used by drain loops
     * that issue requests outside of step()).
     */
    void
    consumeCredit(QueueId q)
    {
        panic_if(credit_[q] == 0, "no credit on queue ", q);
        --credit_[q];
        --total_credit_;
    }

    /**
     * Whether SimRunner::run should pre-roll with idleRun().  It reads
     * this once per call to choose its loop, so a workload that does
     * not leap pays nothing per slot.
     */
    virtual bool leaps() const { return false; }

    /**
     * Pre-roll the stimulus-free slots ahead.  Draws the RNG exactly
     * as up to `max` step() calls would, stops at the first slot
     * with an arrival (admitted or not) or with a request that finds
     * credit, and leaves the RNG at the start of that slot.  Credits
     * cannot change on a slot without stimulus, so the decision
     * needs nothing but the RNG and the credit total.
     *
     * @return the number of stimulus-free slots before that one (0
     *         for a workload that does not leap); the caller runs
     *         them without calling step()
     */
    virtual std::uint64_t idleRun(std::uint64_t) { return 0; }

    virtual std::string name() const = 0;

    /**
     * Checkpoint the generator state: RNG stream position, credits,
     * sequence stamps, drops, plus whatever cursors the concrete
     * pattern keeps (via extraFields).  Restore requires a workload
     * constructed with the same parameters.
     */
    void
    fields(ser::Io &io)
    {
        io.tag("WLOD");
        rng_.fields(io);
        io.fixedCount(credit_.size(), "workload queues");
        for (auto &c : credit_)
            io.u64(c);
        for (auto &s : next_seq_)
            io.u64(s);
        io.u64(drops_);
        extraFields(io);
        if (io.reading()) {
            total_credit_ = 0;
            for (const auto c : credit_)
                total_credit_ += c;
        }
    }

    void save(ser::Writer &w) const { ser::save(w, *this); }
    void load(ser::Reader &r) { ser::load(r, *this); }

  protected:
    /** Queue receiving a cell this slot, or kInvalidQueue. */
    virtual QueueId arrivalQueue(Slot now) = 0;
    /** Queue to request this slot (must have credit), or invalid. */
    virtual QueueId requestQueue(Slot now) = 0;

    /** Pattern-specific checkpoint state (cursors, burst windows). */
    virtual void extraFields(ser::Io &) {}

    /**
     * Random queue with credit, or invalid if none -- the *legacy*
     * picker.  NOTE it is biased: it draws a random start and scans
     * forward cyclically, so queue q is chosen with probability
     * (1 + length of the credit-less run preceding q) / Q, not 1/Q.
     * Queues that follow long empty runs are over-selected.  The
     * path is kept because the legacy scenario legs' golden outputs
     * depend on its RNG stream; new work should use
     * uniformRequestable().
     */
    QueueId
    randomRequestable()
    {
        return nextRequestable(
            static_cast<QueueId>(rng_.below(queues_)));
    }

    /**
     * Genuinely uniform queue with credit, or invalid if none: the
     * k-th credited queue for k drawn uniformly from the credited
     * count (one RNG draw, two O(Q) scans).  Used by the timed-DRAM
     * scenario legs.
     */
    QueueId
    uniformRequestable()
    {
        unsigned credited = 0;
        for (QueueId q = 0; q < queues_; ++q)
            credited += credit_[q] > 0 ? 1 : 0;
        if (credited == 0)
            return kInvalidQueue;
        auto k = rng_.below(credited);
        for (QueueId q = 0; q < queues_; ++q) {
            if (credit_[q] > 0 && k-- == 0)
                return q;
        }
        panic("uniformRequestable scan overran the credited count");
    }

    /**
     * leaps() for a pattern drawing coinIdleRun()'s two coins per
     * slot.  idleRun() draws the coins of the slot it stops at twice
     * (once more in step()), so it pays only where most slots carry
     * no stimulus: where both coins miss with probability
     * (1 - p)^2 >= 1/2, i.e. p <= 1 - sqrt(1/2).
     */
    static bool
    coinLeaps(std::uint64_t coin)
    {
        static const std::uint64_t limit =
            Rng::chanceThreshold(1.0 - std::sqrt(0.5));
        return coin <= limit;
    }

    /**
     * idleRun() for a pattern whose stimulus-free slot draws two
     * chanceThreshold() coins, arrival then request, with threshold
     * `coin`.  A landed arrival coin, or a landed request coin while
     * any queue has credit, ends the run.  On a request coin that
     * finds no credit the legacy picker still draws its random start
     * (randomRequestable); the unbiased one draws nothing.
     */
    std::uint64_t
    coinIdleRun(std::uint64_t max, std::uint64_t coin, bool unbiased)
    {
        std::uint64_t n = 0;
        if (total_credit_ > 0) {
            for (; n < max; ++n) {
                const Rng at = rng_;
                if (rng_.hit(coin) || rng_.hit(coin)) {
                    rng_ = at;
                    break;
                }
            }
            return n;
        }
        for (; n < max; ++n) {
            const Rng at = rng_;
            if (rng_.hit(coin)) {
                rng_ = at;
                break;
            }
            if (rng_.hit(coin) && !unbiased)
                rng_.next();  // the legacy picker's start draw
        }
        return n;
    }

    unsigned queues_;  // ser: config
    Rng rng_;

  private:
    std::vector<std::uint64_t> credit_;
    /** Sum of credit_: whether any request could find a cell.
     *  Rebuilt on restore. */
    std::uint64_t total_credit_ = 0;  // ser: derived
    std::vector<SeqNum> next_seq_;
    std::uint64_t drops_ = 0;
};

/**
 * The ECQF worst case (Section 3): arrivals fill queues round-robin;
 * the arbiter also drains queues round-robin, one cell per queue,
 * so all SRAM queues empty at about the same time.
 */
class RoundRobinWorstCase : public Workload
{
  public:
    RoundRobinWorstCase(unsigned queues, std::uint64_t seed,
                        double load = 1.0, std::uint64_t warmup = 0)
        : Workload(queues, seed), load_(load), warmup_(warmup)
    {}

    std::string name() const override { return "round-robin-worst"; }

  protected:
    QueueId
    arrivalQueue(Slot) override
    {
        if (load_ < 1.0 && !rng_.chance(load_))
            return kInvalidQueue;
        const QueueId q = arr_;
        arr_ = (arr_ + 1) % queues_;
        return q;
    }

    QueueId
    requestQueue(Slot now) override
    {
        if (now < warmup_)
            return kInvalidQueue;
        const QueueId q = nextRequestable(req_);
        if (q == kInvalidQueue)
            return q;
        req_ = (q + 1) % queues_;
        return q;
    }

    void
    extraFields(ser::Io &io) override
    {
        io.u32(arr_);
        io.u32(req_);
    }

  private:
    double load_;  // ser: config
    std::uint64_t warmup_;  // ser: config
    QueueId arr_ = 0;
    QueueId req_ = 0;
};

/**
 * Uniform random arrivals and requests at a given load.
 * `unbiased_requests` selects the genuinely uniform request picker
 * (uniformRequestable); the default keeps the legacy biased scan so
 * existing legs replay bit-for-bit.
 */
class UniformRandom : public Workload
{
  public:
    UniformRandom(unsigned queues, std::uint64_t seed,
                  double load = 1.0, bool unbiased_requests = false)
        : Workload(queues, seed), coin_(Rng::chanceThreshold(load)),
          unbiased_(unbiased_requests)
    {}

    std::string name() const override { return "uniform-random"; }

    bool leaps() const override { return coinLeaps(coin_); }

    std::uint64_t
    idleRun(std::uint64_t max) override
    {
        return coinIdleRun(max, coin_, unbiased_);
    }

  protected:
    QueueId
    arrivalQueue(Slot) override
    {
        if (!rng_.hit(coin_))
            return kInvalidQueue;
        return static_cast<QueueId>(rng_.below(queues_));
    }

    QueueId
    requestQueue(Slot) override
    {
        if (!rng_.hit(coin_))
            return kInvalidQueue;
        return unbiased_ ? uniformRequestable() : randomRequestable();
    }

  private:
    /** Per-slot arrival and request probability, as a
     *  Rng::chanceThreshold(). */
    std::uint64_t coin_;  // ser: config
    bool unbiased_;  // ser: config
};

/**
 * Bursty on/off traffic: a few "hot" queues receive long bursts; the
 * arbiter drains in random order.  Stresses the tail path and, with
 * renaming, group balancing.
 */
class BurstyOnOff : public Workload
{
  public:
    BurstyOnOff(unsigned queues, std::uint64_t seed,
                std::uint64_t burst_len = 256, double load = 1.0,
                bool unbiased_requests = false)
        : Workload(queues, seed), burst_len_(burst_len),
          coin_(Rng::chanceThreshold(load)),
          unbiased_(unbiased_requests)
    {}

    std::string name() const override { return "bursty-on-off"; }

    bool leaps() const override { return coinLeaps(coin_); }

    std::uint64_t
    idleRun(std::uint64_t max) override
    {
        return coinIdleRun(max, coin_, unbiased_);
    }

  protected:
    QueueId
    arrivalQueue(Slot) override
    {
        if (!rng_.hit(coin_))
            return kInvalidQueue;
        if (remaining_ == 0) {
            hot_ = static_cast<QueueId>(rng_.below(queues_));
            remaining_ = 1 + rng_.below(burst_len_);
        }
        --remaining_;
        return hot_;
    }

    QueueId
    requestQueue(Slot) override
    {
        if (!rng_.hit(coin_))
            return kInvalidQueue;
        return unbiased_ ? uniformRequestable() : randomRequestable();
    }

    void
    extraFields(ser::Io &io) override
    {
        io.u32(hot_);
        io.u64(remaining_);
    }

  private:
    std::uint64_t burst_len_;  // ser: config
    /** Per-slot arrival and request probability, as a
     *  Rng::chanceThreshold(). */
    std::uint64_t coin_;  // ser: config
    bool unbiased_;  // ser: config
    QueueId hot_ = 0;
    std::uint64_t remaining_ = 0;
};

/** All traffic on one queue: maximum pressure on a single group. */
class SingleQueue : public Workload
{
  public:
    SingleQueue(unsigned queues, std::uint64_t seed, QueueId target = 0,
                std::uint64_t lead = 0)
        : Workload(queues, seed), target_(target), lead_(lead)
    {}

    std::string name() const override { return "single-queue"; }

  protected:
    QueueId arrivalQueue(Slot) override { return target_; }

    QueueId
    requestQueue(Slot now) override
    {
        if (now < lead_ || credit(target_) == 0)
            return kInvalidQueue;
        return target_;
    }

  private:
    QueueId target_;       // ser: config
    std::uint64_t lead_;  // ser: config
};

/**
 * Arrivals round-robin over a configurable subset of queues (e.g.
 * all queues of one bank group) -- used by the fragmentation and
 * renaming experiments.
 */
class SubsetRoundRobin : public Workload
{
  public:
    /**
     * @param arrival_load probability of an arrival per slot.
     *        Boundary semantics are load-bearing for replay: at
     *        exactly 1.0 (the default) the arrival path consults the
     *        RNG *zero* times -- the `arrival_load_ < 1.0` guard
     *        short-circuits before chance() -- so legacy callers of
     *        the pre-arrival_load constructor keep bit-identical
     *        streams (their golden outputs depend on it; see
     *        tests/test_workload.cc SubsetRoundRobinArrivalLoad
     *        Boundaries).  Any value < 1.0, including 0.0, draws one
     *        Bernoulli per slot; 0.0 therefore produces no arrivals
     *        ever while still advancing the RNG.  The switch layer's
     *        permutation pattern runs its affinity stripes below
     *        full load.
     */
    SubsetRoundRobin(unsigned queues, std::uint64_t seed,
                     std::vector<QueueId> subset,
                     double request_load = 1.0,
                     double arrival_load = 1.0)
        : Workload(queues, seed), subset_(std::move(subset)),
          request_load_(request_load), arrival_load_(arrival_load)
    {
        panic_if(subset_.empty(), "empty subset");
    }

    std::string name() const override { return "subset-round-robin"; }

  protected:
    QueueId
    arrivalQueue(Slot) override
    {
        if (arrival_load_ < 1.0 && !rng_.chance(arrival_load_))
            return kInvalidQueue;
        const QueueId q = subset_[idx_];
        idx_ = (idx_ + 1) % subset_.size();
        return q;
    }

    QueueId
    requestQueue(Slot) override
    {
        if (!rng_.chance(request_load_))
            return kInvalidQueue;
        return randomRequestable();
    }

    void
    extraFields(ser::Io &io) override
    {
        io.u64(idx_);
        fatal_if(io.reading() && idx_ >= subset_.size(),
                 "checkpoint: subset cursor out of range");
    }

  private:
    std::vector<QueueId> subset_;  // ser: config
    double request_load_;  // ser: config
    double arrival_load_;  // ser: config
    std::size_t idx_ = 0;
};

/**
 * Drain-order permutation: arrivals round-robin over all queues; the
 * arbiter empties queues one at a time, whole queue by whole queue,
 * in a seeded random permutation order (a fresh permutation per
 * pass).  Whole-queue drains stress the head MMA differently from
 * cell-interleaved patterns: one queue's head SRAM empties at line
 * rate while every other queue keeps accumulating.
 */
class PermutedDrain : public Workload
{
  public:
    PermutedDrain(unsigned queues, std::uint64_t seed,
                  std::uint64_t warmup = 0, double load = 1.0)
        : Workload(queues, seed), warmup_(warmup), load_(load),
          perm_(queues)
    {
        for (unsigned i = 0; i < queues; ++i)
            perm_[i] = i;
        reshuffle();
    }

    std::string name() const override { return "permuted-drain"; }

  protected:
    QueueId
    arrivalQueue(Slot) override
    {
        if (load_ < 1.0 && !rng_.chance(load_))
            return kInvalidQueue;
        const QueueId q = arr_;
        arr_ = (arr_ + 1) % queues_;
        return q;
    }

    QueueId
    requestQueue(Slot now) override
    {
        if (now < warmup_)
            return kInvalidQueue;
        // Finish the current pass, then scan one full fresh pass.
        // The second scan covers the new permutation end to end, so
        // a credited queue can never be missed by the reshuffle
        // moving it behind the scan position.
        for (int pass = 0; pass < 2; ++pass) {
            while (pos_ < queues_) {
                const QueueId q = perm_[pos_];
                if (credit(q) > 0)
                    return q;
                ++pos_;
            }
            pos_ = 0;
            if (pass == 0)
                reshuffle();
        }
        return kInvalidQueue;
    }

    void
    extraFields(ser::Io &io) override
    {
        for (auto &q : perm_)
            io.u32(q);
        io.u32(pos_);
        io.u32(arr_);
        fatal_if(io.reading() && (pos_ > queues_ || arr_ >= queues_),
                 "checkpoint: permuted-drain cursor out of range");
    }

  private:
    void
    reshuffle()
    {
        // Fisher-Yates with the workload's own deterministic RNG.
        for (unsigned i = queues_ - 1; i > 0; --i) {
            const auto j = static_cast<unsigned>(rng_.below(i + 1));
            std::swap(perm_[i], perm_[j]);
        }
    }

    std::uint64_t warmup_;  // ser: config
    double load_;  // ser: config
    std::vector<QueueId> perm_;
    unsigned pos_ = 0;
    QueueId arr_ = 0;
};

/** Replay of an explicit per-slot trace (used by unit tests). */
class TraceReplay : public Workload
{
  public:
    struct Entry
    {
        QueueId arrival = kInvalidQueue;
        QueueId request = kInvalidQueue;
    };

    /**
     * @param seed RNG seed; a trace replay never draws randomness,
     *        but the base class owns an RNG and the PR-1 rule is
     *        that *every* user names its seed, so callers state one
     *        explicitly instead of inheriting a silent constant.
     */
    TraceReplay(unsigned queues, std::vector<Entry> trace,
                std::uint64_t seed)
        : Workload(queues, seed), trace_(std::move(trace))
    {}

    std::string name() const override { return "trace-replay"; }

  protected:
    QueueId
    arrivalQueue(Slot now) override
    {
        return now < trace_.size() ? trace_[now].arrival
                                   : kInvalidQueue;
    }

    QueueId
    requestQueue(Slot now) override
    {
        return now < trace_.size() ? trace_[now].request
                                   : kInvalidQueue;
    }

  private:
    std::vector<Entry> trace_;  // ser: config
};

} // namespace pktbuf::sim

#endif // PKTBUF_SIM_WORKLOAD_HH
