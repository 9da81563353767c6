/**
 * @file
 * Threshold tail MMA (Section 3): every granularity interval,
 * transfer b cells to DRAM from any queue whose t-SRAM occupancy is
 * at least b.  A round-robin scan keeps the choice fair so no queue
 * camps in the SRAM; with this policy the t-SRAM needs Q(b-1)+1
 * cells.
 */

#ifndef PKTBUF_MMA_TAIL_MMA_HH
#define PKTBUF_MMA_TAIL_MMA_HH

#include "common/logging.hh"
#include "common/types.hh"

namespace pktbuf::mma
{

class TailMma
{
  public:
    explicit TailMma(unsigned phys_queues)
        : queues_(phys_queues)
    {}

    /**
     * Pick the next queue (round-robin from the last pick) whose
     * unclaimed t-SRAM occupancy is at least `gran` and which is
     * admissible (e.g. its DRAM group has room).  Returns
     * kInvalidQueue if none qualifies.  The predicates are template
     * parameters (not std::function) -- this runs every granularity
     * interval and the two indirect calls per probed queue dominated
     * the tail-MMA's profile.
     */
    template <typename Unclaimed, typename Admissible>
    QueueId
    select(unsigned gran, const Unclaimed &unclaimed,
           const Admissible &admissible)
    {
        for (unsigned i = 0; i < queues_; ++i) {
            const QueueId p = (next_ + i) % queues_;
            if (unclaimed(p) >= gran && admissible(p)) {
                next_ = (p + 1) % queues_;
                return p;
            }
        }
        return kInvalidQueue;
    }

    /**
     * Event-engine fast path: delegate the threshold scan to a
     * next-eligible oracle (the t-SRAM's eligibility bitmap) instead
     * of probing every queue.  `next_eligible(from)` must return the
     * first queue at or cyclically after `from` meeting the same
     * threshold select() would test, or kInvalidQueue -- given that,
     * the pick and the cursor update are identical to select() with
     * an always-true admissibility predicate.
     */
    template <typename NextEligible>
    QueueId
    selectVia(const NextEligible &next_eligible)
    {
        const QueueId p = next_eligible(next_);
        if (p != kInvalidQueue)
            next_ = p + 1 == queues_ ? 0 : p + 1;
        return p;
    }

    /** Checkpoint: the round-robin cursor. */
    void
    fields(ser::Io &io)
    {
        io.tag("TMMA");
        io.u32(next_);
        fatal_if(io.reading() && queues_ && next_ >= queues_,
                 "checkpoint: tail MMA cursor out of range");
    }

  private:
    unsigned queues_;  // ser: config
    QueueId next_ = 0;
};

} // namespace pktbuf::mma

#endif // PKTBUF_MMA_TAIL_MMA_HH
