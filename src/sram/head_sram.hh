/**
 * @file
 * Functional model of the head SRAM (h-SRAM): the egress cache that
 * must always contain the cell the arbiter is about to be granted.
 *
 * CFDS refills can complete out of order (the DSA may launch a
 * younger request of the same queue first, Section 8.2), so blocks
 * are inserted keyed by the *replenish sequence number* assigned at
 * MMA issue time, and the reader always consumes the lowest
 * outstanding sequence.  A pop that does not find its cell is a
 * *miss* and panics -- the zero-miss guarantee is an invariant here,
 * not a statistic.  Each queue's blocks live in a flat KeyWindow
 * indexed by replenish sequence; a refill that completes early
 * leaves a hole at the older sequence until its block arrives.
 */

#ifndef PKTBUF_SRAM_HEAD_SRAM_HH
#define PKTBUF_SRAM_HEAD_SRAM_HH

#include <cstdint>
#include <vector>

#include "common/key_window.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace pktbuf::sram
{

class HeadSram
{
  public:
    /**
     * @param gran           cells per block (b): a refill carries
     *                       1..b cells (a bypass may carry fewer)
     * @param capacity_cells 0 = unbounded (measurement mode).
     */
    HeadSram(unsigned phys_queues, unsigned gran,
             std::uint64_t capacity_cells)
        : queues_(phys_queues), gran_(gran), capacity_(capacity_cells)
    {
        panic_if(gran == 0, "h-SRAM with zero block size");
    }

    /**
     * Insert a replenished block.  `seq` is the per-queue replenish
     * sequence assigned when the MMA issued the request; blocks may
     * arrive out of order but are consumed in sequence.  The cell
     * vector is taken by value and moved into place: blocks flow
     * tail SRAM -> DRAM -> here without per-hop copies (this path
     * runs once per replenish and showed up in the simulator's
     * profile as deque construction churn).
     */
    void
    insertBlock(QueueId p, std::uint64_t seq, std::vector<Cell> cells)
    {
        auto &qq = q(p);
        panic_if(seq < qq.next_consume_seq,
                 "replenish seq ", seq, " for queue ", p,
                 " already consumed");
        panic_if(qq.blocks.contains(seq),
                 "duplicate replenish seq ", seq, " on queue ", p);
        panic_if(cells.empty(), "empty replenish block");
        panic_if(cells.size() > gran_, "replenish block of ",
                 cells.size(), " cells exceeds b = ", gran_);
        occupancy_ += cells.size();
        qq.blocks.insert(seq, Block{std::move(cells), 0});
        high_water_.observe(static_cast<std::int64_t>(occupancy_));
        panic_if(capacity_ && occupancy_ > capacity_,
                 "h-SRAM overflow: ", occupancy_, " cells > capacity ",
                 capacity_, " -- dimensioning violated");
    }

    /**
     * Pop the next in-order cell of queue p.  Panics (a *miss*) if
     * the block holding it has not been refilled yet.  The vector of
     * a block whose last cell this pops goes onto `spares`.
     */
    Cell
    pop(QueueId p, BlockSpares *spares = nullptr)
    {
        auto &qq = q(p);
        Block *blk = qq.blocks.find(qq.next_consume_seq);
        panic_if(!blk,
                 "MISS: queue ", p, " has no cells for replenish seq ",
                 qq.next_consume_seq,
                 " in h-SRAM at grant time");
        const Cell c = blk->cells[blk->consumed++];
        if (blk->consumed == blk->cells.size())
            retire(qq, spares);
        panic_if(occupancy_ == 0, "h-SRAM occupancy accounting bug");
        --occupancy_;
        return c;
    }

    /** Would a pop on queue p miss right now? */
    bool
    wouldMiss(QueueId p) const
    {
        const auto &qq = q(p);
        return !qq.blocks.contains(qq.next_consume_seq);
    }

    /** Physical cells of queue p currently in the SRAM. */
    std::uint64_t
    cellsOf(QueueId p) const
    {
        const auto &qq = q(p);
        std::uint64_t n = 0;
        qq.blocks.forEach([&](std::uint64_t, const Block &blk) {
            n += blk.cells.size() - blk.consumed;
        });
        return n;
    }

    std::uint64_t occupancy() const { return occupancy_; }
    std::int64_t highWater() const { return high_water_.max(); }
    std::uint64_t capacity() const { return capacity_; }

    /** Recycle a (drained) physical queue for renaming reuse. */
    void
    recycle(QueueId p)
    {
        auto &qq = q(p);
        panic_if(!qq.blocks.empty(), "recycling queue ", p,
                 " with cells still cached");
        qq.next_consume_seq = 0;
    }

    /** Checkpoint: every queue's block map and the occupancy;
     *  `spares` as in DramStore::fields(). */
    void
    fields(ser::Io &io, BlockSpares *spares = nullptr)
    {
        io.tag("HSRM");
        io.fixedCount(queues_.size(), "h-SRAM queues");
        // A block is a seq, a consumed count, a cell count and at
        // least one cell: the bytes left bound the block count, and
        // each block's shape is checked before its cells are read.
        constexpr std::uint64_t min_block_bytes =
            8 + 8 + 8 + Cell::kSavedBytes;
        for (auto &qq : queues_) {
            io.u64(qq.next_consume_seq);
            if (io.reading())
                qq.blocks.drain([spares](Block &&blk) {
                    giveSpare(spares, std::move(blk.cells));
                });
            const auto nb = io.count(qq.blocks.size(), min_block_bytes,
                                     "h-SRAM blocks of a queue");
            qq.blocks.fields(
                io, nb, "h-SRAM replenish seq",
                [&](std::uint64_t &seq, Block &blk) {
                    io.u64(seq);
                    io.u64(blk.consumed);
                    std::uint64_t nc = blk.cells.size();
                    io.u64(nc);
                    if (io.reading()) {
                        checkBlock(qq, seq, blk.consumed, nc);
                        // A partial block's vector still holds b
                        // cells when it is reused for a full one.
                        blk.cells = takeSpare(spares);
                        blk.cells.reserve(gran_);
                        blk.cells.resize(nc);
                    }
                    for (auto &c : blk.cells)
                        c.fields(io);
                });
        }
        io.u64(occupancy_);
        high_water_.fields(io);
    }

    void save(ser::Writer &w) const { ser::save(w, *this); }
    void load(ser::Reader &r) { ser::load(r, *this); }

  private:
    /** A replenished block, consumed front to back in place. */
    struct Block
    {
        std::vector<Cell> cells;
        std::size_t consumed = 0;
    };

    struct QueueState
    {
        KeyWindow<Block> blocks;
        std::uint64_t next_consume_seq = 0;
    };

    /** Restore-side shape checks of one saved block. */
    void
    checkBlock(const QueueState &qq, std::uint64_t seq,
               std::uint64_t consumed, std::uint64_t nc) const
    {
        fatal_if(seq < qq.next_consume_seq, "checkpoint: h-SRAM block seq ",
                 seq, " precedes the next consumed seq ",
                 qq.next_consume_seq);
        fatal_if(nc == 0 || nc > gran_, "checkpoint: h-SRAM block seq ",
                 seq, " holds ", nc, " cells, allowed 1..", gran_);
        fatal_if(consumed >= nc, "checkpoint: h-SRAM block seq ", seq,
                 " consumed ", consumed, " of ", nc, " cells");
    }

    /** Drop qq's fully consumed oldest block.  Kept out of pop() so
     *  that pop() stays small enough to inline into the grant path. */
    void
    retire(QueueState &qq, BlockSpares *spares)
    {
        giveSpare(spares, qq.blocks.take(qq.next_consume_seq).cells);
        ++qq.next_consume_seq;
    }

    const QueueState &
    q(QueueId p) const
    {
        panic_if(p >= queues_.size(), "h-SRAM: queue ", p,
                 " out of range (const accessor)");
        return queues_[p];
    }

    QueueState &
    q(QueueId p)
    {
        panic_if(p >= queues_.size(), "h-SRAM: queue ", p,
                 " out of range");
        return queues_[p];
    }

    std::vector<QueueState> queues_;
    unsigned gran_;  // ser: config
    std::uint64_t capacity_;  // ser: config
    std::uint64_t occupancy_ = 0;
    HighWater high_water_;
};

} // namespace pktbuf::sram

#endif // PKTBUF_SRAM_HEAD_SRAM_HH
