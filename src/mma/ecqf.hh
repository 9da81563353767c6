/**
 * @file
 * Earliest Critical Queue First (ECQF) memory-management algorithm
 * (Section 3, after [13]).
 *
 * The MMA keeps one *occupancy counter* per physical queue: +b when a
 * replenish request is issued, -1 when an arbiter request leaves the
 * lookahead register.  To select a queue it walks the lookahead from
 * head to tail, decrementing a scratch copy of the counters; the
 * first queue whose scratch counter drops below zero is *critical*
 * and is the one replenished.
 *
 * Besides the O(depth) scan the class maintains an *event-calendar*
 * view of the same decision (calendarDecide): a per-queue FIFO of
 * entry stamps of the requests currently in the lookahead plus the
 * set of queues that are critical somewhere in the register.  Both
 * views compute identical selections in identical order (the
 * differential oracle in tests/test_event_core.cc holds them to
 * that); the calendar is O(criticals * log criticals) per decision
 * instead of O(depth), which is what lets the event engine skip the
 * register walk entirely.  All calendar state is derived -- restore
 * rebuilds it from the architectural lookahead contents.
 */

#ifndef PKTBUF_MMA_ECQF_HH
#define PKTBUF_MMA_ECQF_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/ring.hh"
#include "common/shift_register.hh"
#include "common/types.hh"

namespace pktbuf::mma
{

class EcqfMma
{
  public:
    explicit EcqfMma(unsigned phys_queues)
        : occ_(phys_queues, 0), scratch_(phys_queues, 0),
          epoch_(phys_queues, 0), pend_(phys_queues),
          crit_pos_(phys_queues, kNoPos)
    {}

    /** Replenish of `gran` cells was issued for queue p. */
    void
    onReplenishIssued(QueueId p, unsigned gran)
    {
        occ(p) += gran;
        refreshCritical(p);
    }

    /**
     * An arbiter request for p entered the lookahead register (its
     * tail).  Requests enter at most one per slot, so the entry
     * stamps order the register's contents head to tail -- the
     * calendar's substitute for position.  Owners that never call
     * this simply keep the calendar empty and use scan()/select().
     */
    void
    onRequestEntering(QueueId p)
    {
        pend_[p].pushBack(clock_++);
        refreshCritical(p);
    }

    /**
     * An arbiter request for p left the lookahead register.  With
     * full lookahead ECQF keeps counters non-negative; shorter
     * lookaheads may dip into deficit transiently (the real
     * invariant is the zero-miss check at grant time).
     */
    void
    onRequestLeaving(QueueId p)
    {
        occ(p) -= 1;
        // Tolerant pop: owners that never announced the request's
        // entry (scan()-only users, unit tests driving the counters
        // directly) keep an empty ring here.
        if (!pend_[p].empty())
            pend_[p].popFront();
        refreshCritical(p);
    }

    /**
     * Scan the lookahead and return the earliest critical queue, or
     * kInvalidQueue if no queue is critical.  `proj` maps a register
     * entry to the physical queue it requests (kInvalidQueue for an
     * idle stage).
     */
    template <typename T, typename Proj>
    QueueId
    select(const ShiftRegister<T> &lookahead, Proj proj)
    {
        QueueId found = kInvalidQueue;
        scan(lookahead, proj, [&found](QueueId p) -> unsigned {
            found = p;
            return 0; // stop at the first critical queue
        });
        return found;
    }

    /**
     * Single-pass variant of select() for callers that replenish
     * *every* critical queue of an interval (the bypass-heavy head
     * MMA decision): walk the lookahead once and invoke
     * `on_critical(p)` at each queue the moment it goes critical.
     *
     * The callback performs the replenish (which feeds back through
     * onReplenishIssued) and returns the number of cells it issued;
     * the scan credits them to the queue's scratch counter and
     * continues, so the remainder of the walk sees exactly the state
     * a fresh rescan would -- one O(depth) pass replaces the
     * O(depth) * O(selections) restart loop that dominated the
     * simulator's profile.  Returning 0 aborts the scan (e.g. the
     * interval's single DRAM replenish is already spent).
     */
    template <typename T, typename Proj, typename OnCritical>
    void
    scan(const ShiftRegister<T> &lookahead, Proj proj,
         OnCritical on_critical)
    {
        ++scan_epoch_;
        bool stop = false;
        lookahead.forEachFromHead([&](const T &entry) {
            if (stop)
                return;
            const QueueId p = proj(entry);
            if (p == kInvalidQueue)
                return;
            if (epoch_[p] != scan_epoch_) {
                epoch_[p] = scan_epoch_;
                scratch_[p] = occ_[p];
            }
            if (--scratch_[p] < 0) {
                const unsigned issued = on_critical(p);
                if (issued == 0) {
                    stop = true;
                    return;
                }
                // occ_[p] grew by `issued` via onReplenishIssued;
                // mirror it into the scratch copy so the rest of the
                // walk matches what a restarted scan would compute.
                scratch_[p] += issued;
            }
        });
    }

    /**
     * Event-calendar equivalent of scan(): visit every critical
     * queue in the order of its critical *entry's* position in the
     * lookahead, without walking the register.
     *
     * Equivalence to the scan (the oracle contract): with occupancy
     * o and credits c_1..c_j issued so far this decision, queue p's
     * scratch counter dips below zero exactly at its
     * (max(o + sum(c), last_fired + 1) + 1)-th resident entry, whose
     * entry stamp orders it against every other queue's critical
     * entry because the register is FIFO.  A callback returning 0
     * aborts the whole decision, exactly like scan() -- later
     * criticals (by position) are NOT visited, which matters because
     * the caller's DRAM budget is position-ordered.
     */
    template <typename OnCritical>
    void
    calendarDecide(OnCritical on_critical)
    {
        if (crit_.empty())
            return;
        heap_.clear();
        for (const QueueId p : crit_)
            heap_.push_back({pend_[p][slackOf(p)], p, slackOf(p)});
        const auto later = [](const CritEntry &a, const CritEntry &b) {
            return a.stamp > b.stamp;  // min-heap on entry stamp
        };
        std::make_heap(heap_.begin(), heap_.end(), later);
        while (!heap_.empty()) {
            std::pop_heap(heap_.begin(), heap_.end(), later);
            const CritEntry e = heap_.back();
            heap_.pop_back();
            const unsigned issued = on_critical(e.q);
            if (issued == 0)
                return;
            // The callback fed back through onReplenishIssued, so
            // occ_ and the critical set are current.  Within this
            // decision p's next critical entry sits strictly after
            // the one that just fired (the scan's scratch counter
            // never un-decrements), hence the max with idx + 1 --
            // with a deficit (occ < 0) the two differ.
            const std::size_t next =
                std::max(slackOf(e.q), e.idx + 1);
            if (pend_[e.q].size() > next) {
                heap_.push_back({pend_[e.q][next], e.q, next});
                std::push_heap(heap_.begin(), heap_.end(), later);
            }
        }
    }

    /** Queues critical somewhere in the lookahead (calendar view). */
    std::size_t criticalCount() const { return crit_.size(); }

    /**
     * Drop the whole calendar (stamps, critical set, clock).  The
     * owner calls this after a restore -- which already does it -- and
     * then replays onRequestEntering() for every resident lookahead
     * entry head to tail, rebuilding the derived view bit-exactly.
     */
    void
    resetCalendar()
    {
        for (auto &ring : pend_)
            ring.resize(0);
        crit_.clear();
        std::fill(crit_pos_.begin(), crit_pos_.end(), kNoPos);
        clock_ = 0;
    }

    std::int64_t occupancy(QueueId p) const { return occ_[p]; }

    /**
     * Checkpoint: only the occupancy counters are architectural.
     * Scratch counters and epochs exist solely *within* one scan()
     * call (every scan starts by bumping the epoch, which
     * invalidates all scratch state), so restore resets them.
     */
    void
    fields(ser::Io &io)
    {
        io.tag("ECQF");
        io.fixedCount(occ_.size(), "ECQF queues");
        for (auto &o : occ_)
            io.i64(o);
        if (io.reading()) {
            std::fill(scratch_.begin(), scratch_.end(), 0);
            std::fill(epoch_.begin(), epoch_.end(), 0);
            scan_epoch_ = 0;
            resetCalendar();
        }
    }

  private:
    struct CritEntry
    {
        std::uint64_t stamp;
        QueueId q;
        std::size_t idx;
    };

    std::int64_t &
    occ(QueueId p)
    {
        panic_if(p >= occ_.size(), "ECQF: queue ", p, " out of range");
        return occ_[p];
    }

    /** Resident entries of p the occupancy already covers: a fresh
     *  scan first dips below zero at entry index max(occ, 0). */
    std::size_t
    slackOf(QueueId p) const
    {
        return occ_[p] > 0 ? static_cast<std::size_t>(occ_[p]) : 0;
    }

    /** Re-derive p's membership in the critical set (O(1)). */
    void
    refreshCritical(QueueId p)
    {
        const bool critical = pend_[p].size() > slackOf(p);
        const bool member = crit_pos_[p] != kNoPos;
        if (critical == member)
            return;
        if (critical) {
            crit_pos_[p] = static_cast<std::uint32_t>(crit_.size());
            crit_.push_back(p);
        } else {
            const QueueId last = crit_.back();
            crit_[crit_pos_[p]] = last;
            crit_pos_[last] = crit_pos_[p];
            crit_.pop_back();
            crit_pos_[p] = kNoPos;
        }
    }

    static constexpr std::uint32_t kNoPos = 0xffffffffu;

    std::vector<std::int64_t> occ_;
    // Scratch counters are epoch-tagged so a scan touches only the
    // queues it actually meets in the lookahead.
    std::vector<std::int64_t> scratch_;  // ser: derived
    std::vector<std::uint64_t> epoch_;  // ser: derived
    std::uint64_t scan_epoch_ = 0;  // ser: derived
    // --- Event-calendar view; rebuilt from the lookahead on load ---
    /** Entry stamps of the requests resident in the lookahead,
     *  oldest (closest to the head) first, per queue. */
    std::vector<Ring<std::uint64_t>> pend_;  // ser: derived
    /** Queues with pend_ count > slackOf() (unordered; decisions
     *  sort by stamp so membership order never matters). */
    std::vector<QueueId> crit_;  // ser: derived
    std::vector<std::uint32_t> crit_pos_;  // ser: derived
    /** Monotone entry clock; one tick per onRequestEntering(). */
    std::uint64_t clock_ = 0;  // ser: derived
    /** calendarDecide() scratch heap (kept to avoid re-allocation). */
    std::vector<CritEntry> heap_;  // ser: derived
};

} // namespace pktbuf::mma

#endif // PKTBUF_MMA_ECQF_HH
