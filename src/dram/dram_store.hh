/**
 * @file
 * Functional contents of the DRAM: per-physical-queue blocks of b
 * cells keyed by *block ordinal* (the same ordinal that drives the
 * block-cyclic bank mapping), with per-group occupancy accounting
 * for the renaming/fragmentation machinery (Section 6).
 *
 * Timing lives in BankState / the ORR; this class only stores data.
 * Ordinal keying lets the DSA launch same-queue accesses out of
 * order (reads are re-sequenced in the head SRAM, Section 8.2)
 * without corrupting queue contents.  Each queue's blocks live in a
 * flat KeyWindow indexed by `ordinal - base`: a read launched ahead
 * of an older one leaves a hole, and a bypass squash rewinds the
 * write ordinal so a later write may land below the base.
 */

#ifndef PKTBUF_DRAM_DRAM_STORE_HH
#define PKTBUF_DRAM_DRAM_STORE_HH

#include <cstdint>
#include <vector>

#include "common/key_window.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace pktbuf::dram
{

class DramStore
{
  public:
    /**
     * @param phys_queues number of physical queues
     * @param gran        cells per block (b)
     * @param groups      number of bank groups (1 for RADS)
     * @param group_capacity_cells per-group capacity; 0 = unbounded
     */
    DramStore(unsigned phys_queues, unsigned gran, unsigned groups,
              std::uint64_t group_capacity_cells)
        : gran_(gran), group_cells_(groups, 0),
          group_capacity_(group_capacity_cells), queues_(phys_queues)
    {
        panic_if(gran == 0, "zero granularity");
        panic_if(groups == 0, "zero groups");
    }

    unsigned gran() const { return gran_; }
    unsigned groups() const
    {
        return static_cast<unsigned>(group_cells_.size());
    }

    /** Is block `ordinal` of queue p resident? */
    bool
    hasBlock(QueueId p, std::uint64_t ordinal) const
    {
        return q(p).blocks.contains(ordinal);
    }

    /** Blocks of queue p currently resident. */
    std::uint64_t
    residentBlocks(QueueId p) const
    {
        return q(p).blocks.size();
    }

    /** Store one block (exactly `gran` cells). */
    void
    writeBlock(QueueId p, std::uint64_t ordinal,
               std::vector<Cell> cells, unsigned group)
    {
        panic_if(cells.size() != gran_, "write of ", cells.size(),
                 " cells, granularity is ", gran_);
        panic_if(group >= group_cells_.size(),
                 "bad group on block write");
        auto &qq = q(p);
        panic_if(qq.blocks.contains(ordinal),
                 "duplicate block ordinal ", ordinal, " on queue ", p);
        qq.blocks.insert(ordinal, std::move(cells));
        group_cells_[group] += gran_;
        panic_if(group_capacity_ &&
                 group_cells_[group] > group_capacity_,
                 "DRAM group ", group, " overflow (",
                 group_cells_[group], " > ", group_capacity_,
                 " cells): admission control must prevent this");
    }

    /** Remove and return block `ordinal` of queue p. */
    std::vector<Cell>
    readBlock(QueueId p, std::uint64_t ordinal, unsigned group)
    {
        auto &qq = q(p);
        panic_if(!qq.blocks.contains(ordinal),
                 "read of absent block ", ordinal, " on queue ", p);
        std::vector<Cell> out = qq.blocks.take(ordinal);
        panic_if(group_cells_[group] < gran_, "group accounting bug");
        group_cells_[group] -= gran_;
        return out;
    }

    /** Cells resident in one group. */
    std::uint64_t
    groupCells(unsigned group) const
    {
        panic_if(group >= group_cells_.size(),
                 "bad group in groupCells");
        return group_cells_[group];
    }

    std::uint64_t groupCapacity() const { return group_capacity_; }

    /** Total cells resident across all groups. */
    std::uint64_t
    totalCells() const
    {
        std::uint64_t n = 0;
        for (const auto g : group_cells_)
            n += g;
        return n;
    }

    /** Reset a recycled physical queue (renaming): must be empty. */
    void
    recycle(QueueId p)
    {
        panic_if(!q(p).blocks.empty(),
                 "recycling non-empty queue ", p);
    }

    /**
     * Checkpoint: group occupancies and every queue's blocks.  With
     * `spares`, a restore puts the vectors of the blocks it replaces
     * on the list and builds the restored blocks from it, so it
     * reuses the buffer's block storage.
     */
    void
    fields(ser::Io &io, BlockSpares *spares = nullptr)
    {
        io.tag("DRAM");
        io.fixedCount(group_cells_.size(), "DRAM store groups");
        for (auto &g : group_cells_)
            io.u64(g);
        io.fixedCount(queues_.size(), "DRAM queues");
        // Every block is an ordinal, a count and exactly b cells, so
        // the bytes left bound the block count before anything is
        // allocated from it.
        const std::uint64_t block_bytes = 8 + 8 + gran_ * Cell::kSavedBytes;
        for (auto &qq : queues_) {
            if (io.reading())
                qq.blocks.drain([spares](std::vector<Cell> &&cells) {
                    giveSpare(spares, std::move(cells));
                });
            const auto nb = io.count(qq.blocks.size(), block_bytes,
                                     "DRAM blocks of a queue");
            qq.blocks.fields(
                io, nb, "DRAM block ordinal",
                [&](std::uint64_t &ordinal, std::vector<Cell> &cells) {
                    io.u64(ordinal);
                    io.fixedCount(gran_, "cells in a DRAM block");
                    if (io.reading()) {
                        cells = takeSpare(spares);
                        cells.resize(gran_);
                    }
                    for (auto &c : cells)
                        c.fields(io);
                });
        }
    }

    void save(ser::Writer &w) const { ser::save(w, *this); }
    void load(ser::Reader &r) { ser::load(r, *this); }

  private:
    struct QueueData
    {
        KeyWindow<std::vector<Cell>> blocks;
    };

    const QueueData &
    q(QueueId p) const
    {
        panic_if(p >= queues_.size(), "physical queue ", p,
                 " out of range (const accessor)");
        return queues_[p];
    }

    QueueData &
    q(QueueId p)
    {
        panic_if(p >= queues_.size(), "physical queue ", p,
                 " out of range");
        return queues_[p];
    }

    unsigned gran_;  // ser: config
    std::vector<std::uint64_t> group_cells_;
    std::uint64_t group_capacity_;  // ser: config
    std::vector<QueueData> queues_;
};

} // namespace pktbuf::dram

#endif // PKTBUF_DRAM_DRAM_STORE_HH
