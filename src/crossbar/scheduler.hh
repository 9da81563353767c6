/**
 * @file
 * Crossbar matching schedulers: per-slot bipartite matchings between
 * N input ports and N output ports of an input-queued switch.
 *
 * The contract every implementation must honor (and that
 * tests/test_crossbar.cc enforces slot by slot):
 *
 *  - conflict-free: at most one input matched to any output and at
 *    most one output matched to any input;
 *  - backed: an (input, output) edge may be granted only when the
 *    input's VOQ for that output is non-empty in the occupancy
 *    snapshot the scheduler was given;
 *  - deterministic: a scheduler is a pure function of its own state
 *    (pointers, RNG, held edges) and the occupancy matrix, so a
 *    checkpointed run replays bit-for-bit;
 *  - serializable: fields() captures the full decision state.
 *
 * Maximality is a quality property, not part of the base contract:
 * iSLIP converges to a maximal matching given enough iterations, the
 * QPS and random schedulers finish with an explicit greedy completion
 * pass.  The differential oracle test compares all of them against a
 * brute-force maximum matching (Kuhn's algorithm, maximumMatchingSize).
 */

#ifndef PKTBUF_CROSSBAR_SCHEDULER_HH
#define PKTBUF_CROSSBAR_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/serialize.hh"
#include "common/types.hh"

namespace pktbuf::xbar
{

/**
 * VOQ occupancy: at(i, j) is the number of cells waiting at input i
 * for output j (the workload's credit).  Square (ports x ports).
 *
 * Maintained state, not a per-slot snapshot: the crossbar engine
 * set()s only the VOQs a slot changed.  Next to the counts it keeps,
 * per output, the request bitset of the inputs whose VOQ to that
 * output is non-empty -- ceil(ports / 64) u64 words, input i at bit
 * i % 64 of word i / 64 -- which word-parallel schedulers (iSLIP)
 * scan instead of a column of counts.
 */
class Occupancy
{
  public:
    explicit Occupancy(unsigned ports)
        : ports_(ports), words_((ports + 63) / 64),
          occ_(static_cast<std::size_t>(ports) * ports, 0),
          req_(static_cast<std::size_t>(ports) * words_, 0)
    {}

    unsigned ports() const { return ports_; }
    /** u64 words per request bitset. */
    unsigned words() const { return words_; }

    std::uint64_t
    at(unsigned in, unsigned out) const
    {
        return occ_[static_cast<std::size_t>(in) * ports_ + out];
    }

    /** Set one VOQ's depth, keeping its request bit and total(). */
    void
    set(unsigned in, unsigned out, std::uint64_t count)
    {
        auto &c = occ_[static_cast<std::size_t>(in) * ports_ + out];
        total_ = total_ - c + count;
        c = count;
        auto &w = req_[static_cast<std::size_t>(out) * words_ + in / 64];
        const std::uint64_t bit = std::uint64_t{1} << (in % 64);
        w = count ? w | bit : w & ~bit;
    }

    /** Inputs with a non-empty VOQ to `out`, as words() words. */
    std::span<const std::uint64_t>
    requesters(unsigned out) const
    {
        return {req_.data() + static_cast<std::size_t>(out) * words_,
                words_};
    }

    /** requesters(out) of a radix of at most 64: its one word. */
    std::uint64_t
    requesterWord(unsigned out) const
    {
        return req_[out];
    }

    /** Total cells waiting at one input, across all its VOQs. */
    std::uint64_t
    rowTotal(unsigned in) const
    {
        std::uint64_t t = 0;
        for (unsigned j = 0; j < ports_; ++j)
            t += at(in, j);
        return t;
    }

    /** Total cells waiting in the whole fabric. */
    std::uint64_t total() const { return total_; }

  private:
    unsigned ports_;
    unsigned words_;
    std::vector<std::uint64_t> occ_;
    std::vector<std::uint64_t> req_;  //!< per output: words_ words
    std::uint64_t total_ = 0;
};

/**
 * One slot's matching: match[input] = matched output, or
 * kInvalidQueue when the input is unmatched this slot.
 */
using Matching = std::vector<QueueId>;

/** Matched edges in a matching. */
std::size_t matchingSize(const Matching &m);

/** At most one grant per input and per output, targets in range. */
bool matchingConflictFree(const Matching &m, unsigned ports);

/** Every granted edge's VOQ is non-empty in `occ`. */
bool matchingBacked(const Matching &m, const Occupancy &occ);

/**
 * No unmatched input could still be matched to a free output with a
 * non-empty VOQ -- i.e. the matching is maximal (no augmenting edge
 * exists; weaker than maximum).
 */
bool matchingMaximal(const Matching &m, const Occupancy &occ);

/**
 * Brute-force maximum bipartite matching size over the non-empty
 * VOQ edges (Kuhn's augmenting-path algorithm, O(V * E)).  The
 * differential oracle for the scheduler tests; intended for small
 * port counts, not the per-slot hot path.
 */
unsigned maximumMatchingSize(const Occupancy &occ);

/** The scheduler families the crossbar can run. */
enum class SchedulerKind
{
    Islip,          //!< iterative request/grant/accept, rotating ptrs
    Qps,            //!< sliding-window queue-proportional sampling
    RandomMaximal,  //!< seeded random maximal baseline
};

/** @return the lower-case token ("islip", "qps", "random"). */
std::string toString(SchedulerKind k);

/**
 * Parse a scheduler token.
 * @param token one of "islip", "qps", "random"
 * @param out   receives the kind on success
 * @return false when the token names no scheduler
 */
bool parseSchedulerKind(const std::string &token, SchedulerKind &out);

/** Per-slot matching engine interface (see file comment). */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** Token naming the instance ("islip4", "qps_w8", "random"). */
    virtual std::string name() const = 0;

    /**
     * Compute this slot's matching from the start-of-slot occupancy.
     * @param occ start-of-slot VOQ depths (ports x ports)
     * @param match receives a conflict-free matching over non-empty
     *        VOQs, resized to ports (no allocation once it has the
     *        capacity)
     */
    virtual void schedule(const Occupancy &occ, Matching &match) = 0;

    /** schedule() into a fresh matching. */
    Matching
    schedule(const Occupancy &occ)
    {
        Matching match;
        schedule(occ, match);
        return match;
    }

    /** Matching passes the last schedule() call used. */
    virtual unsigned lastIterations() const = 0;

    /** Checkpoint the full decision state (pointers, RNG, holds). */
    virtual void fields(ser::Io &io) = 0;
    void save(ser::Writer &w) const { ser::save(w, *this); }
    void load(ser::Reader &r) { ser::load(r, *this); }
};

/**
 * iSLIP (McKeown): up to `iterations` request/grant/accept rounds.
 * Each unmatched output grants the first requesting input at or
 * after its grant pointer; each unmatched input accepts the first
 * granting output at or after its accept pointer.  Pointers advance
 * one past the matched partner *only* for matches made in the first
 * iteration -- the rule that desynchronizes the pointers and gives
 * iSLIP its 100% uniform-throughput behavior.  Stops early once an
 * iteration adds no edge (the matching is then maximal).
 *
 * Word-parallel: an output's grant is the first set bit at or after
 * its pointer, cyclically, of its request bitset ANDed with the
 * unmatched inputs; an input's accept is the first set bit at or
 * after its pointer of the outputs that granted it.  An iteration
 * costs O(N * ceil(N / 64)) word operations, not O(N^2) probes.  A
 * radix of at most 64 takes a one-word path that keeps the free
 * sets in registers and makes the same decisions.
 */
class IslipScheduler : public Scheduler
{
  public:
    /**
     * @param ports crossbar radix N
     * @param iterations matching rounds per slot (>= 1); N rounds
     *        guarantee convergence to a maximal matching
     */
    IslipScheduler(unsigned ports, unsigned iterations);

    std::string name() const override;
    using Scheduler::schedule;
    void schedule(const Occupancy &occ, Matching &match) override;
    unsigned lastIterations() const override { return last_iters_; }
    void fields(ser::Io &io) override;

    /** Per-output grant pointers (exposed for the pointer tests). */
    const std::vector<unsigned> &grantPointers() const { return g_; }
    /** Per-input accept pointers (exposed for the pointer tests). */
    const std::vector<unsigned> &acceptPointers() const { return a_; }

  private:
    /** schedule() for a radix of at most 64: every bitset is one
     *  word, held in a register. */
    void scheduleOneWord(const Occupancy &occ, Matching &match);

    unsigned ports_;  // ser: config
    unsigned iterations_;  // ser: config
    unsigned last_iters_ = 0;  // ser: derived
    std::vector<unsigned> g_;  //!< grant pointer, per output
    std::vector<unsigned> a_;  //!< accept pointer, per input
    /** schedule() scratch, ceil(N / 64) words per bitset: the
     *  unmatched inputs and outputs, the inputs granted in this
     *  iteration, and per input the outputs that granted it. */
    std::vector<std::uint64_t> in_free_;  // ser: derived
    std::vector<std::uint64_t> out_free_;  // ser: derived
    std::vector<std::uint64_t> granted_;  // ser: derived
    std::vector<std::uint64_t> grants_;  // ser: derived
};

/**
 * Sliding-window queue-proportional sampling.  Each slot:
 *
 *  1. hold: an edge accepted in an earlier slot is kept while it is
 *     younger than `window` slots and its VOQ is still backed --
 *     amortizing one good sample over several slots;
 *  2. sample: every unmatched input proposes one output drawn with
 *     probability proportional to its VOQ depths; each free output
 *     accepts the deepest proposal (ties to the lowest input);
 *  3. complete: a greedy pass matches any leftover input to its
 *     lowest free non-empty output, making the matching maximal.
 *
 * lastIterations() reports how many of the three phases added edges.
 */
class QpsScheduler : public Scheduler
{
  public:
    /**
     * @param ports crossbar radix N
     * @param window max slots an accepted edge may be held (>= 1)
     * @param seed sampling RNG seed (named per the repo seed rule)
     */
    QpsScheduler(unsigned ports, unsigned window, std::uint64_t seed);

    std::string name() const override;
    using Scheduler::schedule;
    void schedule(const Occupancy &occ, Matching &match) override;
    unsigned lastIterations() const override { return last_iters_; }
    void fields(ser::Io &io) override;

  private:
    struct Hold
    {
        QueueId out = kInvalidQueue;  //!< held output, or invalid
        std::uint64_t age = 0;        //!< slots the edge was held
    };

    unsigned ports_;  // ser: config
    std::uint64_t window_;  // ser: config
    Rng rng_;
    unsigned last_iters_ = 0;  // ser: derived
    std::vector<Hold> held_;  //!< per input
    /** schedule() scratch, per output and per input. */
    std::vector<char> out_taken_;  // ser: derived
    std::vector<QueueId> proposal_;  // ser: derived
};

/**
 * Maximal-random baseline: a fresh seeded random input service order
 * each slot; every input picks uniformly among its non-empty VOQs
 * whose outputs are still free.  Maximal by construction, with no
 * state beyond the RNG -- the floor the smarter schedulers must beat.
 */
class RandomMaximalScheduler : public Scheduler
{
  public:
    RandomMaximalScheduler(unsigned ports, std::uint64_t seed);

    std::string name() const override { return "random"; }
    using Scheduler::schedule;
    void schedule(const Occupancy &occ, Matching &match) override;
    unsigned lastIterations() const override { return last_iters_; }
    void fields(ser::Io &io) override;

  private:
    unsigned ports_;  // ser: config
    Rng rng_;
    unsigned last_iters_ = 0;  // ser: derived
    /** schedule() scratch: taken outputs, the input service order. */
    std::vector<char> out_taken_;  // ser: derived
    std::vector<unsigned> order_;  // ser: derived
};

/**
 * Instantiate a scheduler.
 * @param k which family
 * @param ports crossbar radix
 * @param islip_iterations iSLIP rounds per slot (ignored otherwise)
 * @param qps_window QPS hold window in slots (ignored otherwise)
 * @param seed RNG seed for the randomized schedulers
 */
std::unique_ptr<Scheduler> makeScheduler(SchedulerKind k,
                                         unsigned ports,
                                         unsigned islip_iterations,
                                         unsigned qps_window,
                                         std::uint64_t seed);

} // namespace pktbuf::xbar

#endif // PKTBUF_CROSSBAR_SCHEDULER_HH
