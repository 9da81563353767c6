/**
 * @file
 * Most Deficited Queue First (MDQF): the no-lookahead MMA of [13],
 * kept as an ablation baseline.  With no knowledge of future
 * requests it replenishes the queue in the most danger -- the one
 * with the lowest (possibly negative) occupancy counter among queues
 * that still have backing cells -- and needs the larger
 * Q(b-1)(2 + ln Q) SRAM to guarantee zero misses.
 */

#ifndef PKTBUF_MMA_MDQF_HH
#define PKTBUF_MMA_MDQF_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace pktbuf::mma
{

class MdqfMma
{
  public:
    explicit MdqfMma(unsigned phys_queues)
        : occ_(phys_queues, 0)
    {}

    void
    onReplenishIssued(QueueId p, unsigned gran)
    {
        occ(p) += gran;
    }

    void
    onRequestLeaving(QueueId p)
    {
        occ(p) -= 1;
    }

    /**
     * Pick the queue with the minimum occupancy counter among those
     * for which `replenishable(p)` holds.  Queues whose counter is
     * already comfortable (>= gran) are not replenished.
     */
    QueueId
    select(unsigned gran,
           const std::function<bool(QueueId)> &replenishable) const
    {
        QueueId best = kInvalidQueue;
        std::int64_t best_occ = 0;
        for (QueueId p = 0; p < occ_.size(); ++p) {
            if (!replenishable(p))
                continue;
            if (occ_[p] >= static_cast<std::int64_t>(gran))
                continue;
            if (best == kInvalidQueue || occ_[p] < best_occ) {
                best = p;
                best_occ = occ_[p];
            }
        }
        return best;
    }

    std::int64_t occupancy(QueueId p) const { return occ_[p]; }

    void
    fields(ser::Io &io)
    {
        io.tag("MDQF");
        io.fixedCount(occ_.size(), "MDQF queues");
        for (auto &o : occ_)
            io.i64(o);
    }

  private:
    std::int64_t &
    occ(QueueId p)
    {
        panic_if(p >= occ_.size(), "MDQF: queue ", p, " out of range");
        return occ_[p];
    }

    std::vector<std::int64_t> occ_;
};

} // namespace pktbuf::mma

#endif // PKTBUF_MMA_MDQF_HH
