/**
 * @file
 * Functional model of the tail SRAM (t-SRAM): the ingress cache.
 * Arriving cells are appended per physical queue; the t-MMA claims
 * batches of b cells for transfer to DRAM (claimed cells wait for the
 * DSA to launch the write), and the head path may *bypass* unclaimed
 * cells directly into the h-SRAM when the queue has nothing resident
 * in DRAM.
 *
 * Each queue's cells sit in a Ring, which grows by doubling and keeps
 * its capacity, so a queue stops allocating once it reaches its
 * working depth and an empty queue owns no storage.
 */

#ifndef PKTBUF_SRAM_TAIL_SRAM_HH
#define PKTBUF_SRAM_TAIL_SRAM_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace pktbuf::sram
{

class TailSram
{
  public:
    /** @param capacity_cells 0 = unbounded (measurement mode). */
    TailSram(unsigned phys_queues, std::uint64_t capacity_cells)
        : queues_(phys_queues), capacity_(capacity_cells),
          elig_((phys_queues + 63) / 64, 0)
    {}

    /**
     * Arm the eligibility tracker: a queue is *eligible* while its
     * unclaimed cell count is at least `gran` (the t-MMA's write
     * threshold).  The bitmap turns the event engine's tail-MMA
     * round-robin and quiescence checks into O(1)/O(words) bit
     * scans.  0 (the default) disarms the tracker.
     */
    void
    setThreshold(unsigned gran)
    {
        threshold_ = gran;
        std::fill(elig_.begin(), elig_.end(), 0);
        eligible_ = 0;
        for (QueueId p = 0; p < queues_.size(); ++p)
            refreshEligible(p);
    }

    /** Queues currently at or above the write threshold. */
    std::size_t eligibleCount() const { return eligible_; }

    /**
     * First eligible queue at or cyclically after `from`, or
     * kInvalidQueue when none.  Requires an armed threshold.
     */
    QueueId
    nextEligible(QueueId from) const
    {
        if (eligible_ == 0)
            return kInvalidQueue;
        std::size_t w = from / 64;
        std::uint64_t word = elig_[w] & (~0ull << (from % 64));
        for (std::size_t i = 0; i <= elig_.size(); ++i) {
            if (word)
                return static_cast<QueueId>(
                    w * 64 + std::countr_zero(word));
            if (++w == elig_.size())
                w = 0;
            word = elig_[w];
        }
        return kInvalidQueue;  // unreachable while eligible_ > 0
    }

    /** Cell arrival from the line. */
    void
    push(QueueId p, const Cell &cell)
    {
        q(p).cells.pushBack(cell);
        ++occupancy_;
        high_water_.observe(static_cast<std::int64_t>(occupancy_));
        panic_if(capacity_ && occupancy_ > capacity_,
                 "t-SRAM overflow: ", occupancy_, " cells > capacity ",
                 capacity_, " -- dimensioning violated");
        refreshEligible(p);
    }

    /** Cells of p not yet claimed by a pending DRAM write. */
    std::uint64_t
    unclaimed(QueueId p) const
    {
        const auto &qq = q(p);
        return qq.cells.size() - qq.claimed;
    }

    /** Total cells of p still in the t-SRAM (claimed or not). */
    std::uint64_t
    cellsOf(QueueId p) const
    {
        return q(p).cells.size();
    }

    /**
     * The t-MMA claims the oldest `gran` unclaimed cells of p for a
     * DRAM write.  They stay in the SRAM (and keep occupying space)
     * until extractClaimed() when the DSA launches the write.
     */
    void
    claim(QueueId p, unsigned gran)
    {
        auto &qq = q(p);
        panic_if(unclaimed(p) < gran, "claiming ", gran,
                 " cells of queue ", p, " with only ", unclaimed(p),
                 " unclaimed");
        qq.claimed += gran;
        refreshEligible(p);
    }

    /** Undo one pending claim (write squashed in favor of bypass). */
    void
    unclaim(QueueId p, unsigned gran)
    {
        auto &qq = q(p);
        panic_if(qq.claimed < gran, "unclaim underflow on queue ", p);
        qq.claimed -= gran;
        refreshEligible(p);
    }

    /**
     * Remove the oldest `gran` (claimed) cells: the write launches.
     * The block's vector comes off `spares` when one is there.
     */
    std::vector<Cell>
    extractClaimed(QueueId p, unsigned gran,
                   BlockSpares *spares = nullptr)
    {
        auto &qq = q(p);
        panic_if(qq.claimed < gran, "extracting unclaimed cells");
        std::vector<Cell> out = take(qq, gran, gran, spares);
        qq.claimed -= gran;
        refreshEligible(p);
        return out;
    }

    /**
     * Bypass up to `max_cells` *unclaimed* oldest cells straight to
     * the head path.  Only legal when the queue has no cells in DRAM
     * and no claimed cells ahead (the caller enforces order).  The
     * vector comes off `spares` like extractClaimed()'s.
     */
    std::vector<Cell>
    extractBypass(QueueId p, unsigned max_cells,
                  BlockSpares *spares = nullptr)
    {
        auto &qq = q(p);
        panic_if(qq.claimed != 0,
                 "bypass with ", qq.claimed,
                 " claimed cells ahead on queue ", p);
        const auto n = std::min<std::uint64_t>(max_cells, qq.cells.size());
        std::vector<Cell> out =
            take(qq, static_cast<unsigned>(n), max_cells, spares);
        refreshEligible(p);
        return out;
    }

    std::uint64_t occupancy() const { return occupancy_; }
    std::int64_t highWater() const { return high_water_.max(); }
    std::uint64_t capacity() const { return capacity_; }

    /** Recycle a drained physical queue (renaming reuse). */
    void
    recycle(QueueId p)
    {
        auto &qq = q(p);
        panic_if(!qq.cells.empty() || qq.claimed != 0,
                 "recycling non-empty tail queue ", p);
    }

    /** Checkpoint: every queue's cells + claim count, occupancy. */
    void
    fields(ser::Io &io)
    {
        io.tag("TSRM");
        io.fixedCount(queues_.size(), "t-SRAM queues");
        for (auto &qq : queues_) {
            io.u64(qq.claimed);
            const auto nc = io.count(qq.cells.size(), Cell::kSavedBytes,
                                     "t-SRAM cells");
            if (io.reading())
                qq.cells.resize(nc);
            for (std::size_t i = 0; i < qq.cells.size(); ++i)
                qq.cells[i].fields(io);
        }
        io.u64(occupancy_);
        high_water_.fields(io);
        // Rebuild the derived eligibility view for the armed
        // threshold (a no-op while disarmed).
        if (io.reading())
            setThreshold(threshold_);
    }

    void save(ser::Writer &w) const { ser::save(w, *this); }
    void load(ser::Reader &r) { ser::load(r, *this); }

  private:
    /** One queue: its cells oldest first, and the claims. */
    struct QueueState
    {
        Ring<Cell> cells;
        std::uint64_t claimed = 0;
    };

    /** Re-derive p's bit in the eligibility bitmap (O(1)). */
    void
    refreshEligible(QueueId p)
    {
        if (threshold_ == 0)
            return;
        const bool e = unclaimed(p) >= threshold_;
        std::uint64_t &word = elig_[p / 64];
        const std::uint64_t bit = 1ull << (p % 64);
        if (e == ((word & bit) != 0))
            return;
        word ^= bit;
        if (e)
            ++eligible_;
        else
            --eligible_;
    }

    /** Move the oldest n cells into a block vector (a spare when
     *  one is there) with room for `room` cells. */
    std::vector<Cell>
    take(QueueState &qq, unsigned n, unsigned room, BlockSpares *spares)
    {
        std::vector<Cell> out = takeSpare(spares);
        out.reserve(room);
        panic_if(qq.cells.size() < n, "t-SRAM underflow");
        for (unsigned i = 0; i < n; ++i) {
            out.push_back(qq.cells.front());
            qq.cells.popFront();
        }
        panic_if(occupancy_ < n, "t-SRAM occupancy accounting bug");
        occupancy_ -= n;
        return out;
    }

    const QueueState &
    q(QueueId p) const
    {
        panic_if(p >= queues_.size(), "t-SRAM: queue ", p,
                 " out of range (const accessor)");
        return queues_[p];
    }

    QueueState &
    q(QueueId p)
    {
        panic_if(p >= queues_.size(), "t-SRAM: queue ", p,
                 " out of range");
        return queues_[p];
    }

    std::vector<QueueState> queues_;
    std::uint64_t capacity_;  // ser: config
    std::uint64_t occupancy_ = 0;
    HighWater high_water_;
    /** Write threshold the eligibility bitmap is armed with. */
    unsigned threshold_ = 0;  // ser: config
    /** One bit per queue: unclaimed(p) >= threshold_. */
    std::vector<std::uint64_t> elig_;  // ser: derived
    std::size_t eligible_ = 0;  // ser: derived
};

} // namespace pktbuf::sram

#endif // PKTBUF_SRAM_TAIL_SRAM_HH
