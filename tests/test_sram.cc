/**
 * @file
 * Unit tests of the functional SRAM caches: in-order consumption of
 * out-of-order refills in the head SRAM, miss/overflow panics, and
 * the claim/bypass protocol of the tail SRAM.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/logging.hh"
#include "sram/head_sram.hh"
#include "sram/tail_sram.hh"

using namespace pktbuf;
using namespace pktbuf::sram;

namespace
{

std::vector<Cell>
block(QueueId q, SeqNum first, unsigned n)
{
    std::vector<Cell> cells;
    for (unsigned i = 0; i < n; ++i)
        cells.push_back(Cell{q, first + i, 0});
    return cells;
}

} // namespace

TEST(HeadSram, InOrderRoundTrip)
{
    HeadSram h(2, 4, 0);
    h.insertBlock(0, 0, block(0, 0, 2));
    h.insertBlock(0, 1, block(0, 2, 2));
    for (SeqNum s = 0; s < 4; ++s)
        EXPECT_EQ(h.pop(0).seq, s);
    EXPECT_EQ(h.occupancy(), 0u);
}

TEST(HeadSram, OutOfOrderRefillConsumedInOrder)
{
    HeadSram h(2, 4, 0);
    // Replenish seq 1 completes before seq 0 (DSA reordering).
    h.insertBlock(0, 1, block(0, 2, 2));
    EXPECT_TRUE(h.wouldMiss(0));
    h.insertBlock(0, 0, block(0, 0, 2));
    EXPECT_FALSE(h.wouldMiss(0));
    for (SeqNum s = 0; s < 4; ++s)
        EXPECT_EQ(h.pop(0).seq, s);
}

TEST(HeadSram, MissPanics)
{
    HeadSram h(2, 4, 0);
    EXPECT_THROW(h.pop(0), PanicError);
    h.insertBlock(0, 1, block(0, 2, 2)); // gap at seq 0
    EXPECT_THROW(h.pop(0), PanicError);
}

TEST(HeadSram, OverflowPanics)
{
    HeadSram h(1, 4, 3);
    h.insertBlock(0, 0, block(0, 0, 2));
    EXPECT_THROW(h.insertBlock(0, 1, block(0, 2, 2)), PanicError);
}

TEST(HeadSram, DuplicateAndStaleSeqPanic)
{
    HeadSram h(1, 4, 0);
    h.insertBlock(0, 0, block(0, 0, 2));
    EXPECT_THROW(h.insertBlock(0, 0, block(0, 2, 2)), PanicError);
    h.pop(0);
    h.pop(0); // block 0 fully consumed
    EXPECT_THROW(h.insertBlock(0, 0, block(0, 4, 2)), PanicError);
}

TEST(HeadSram, PerQueueIsolationAndHighWater)
{
    HeadSram h(3, 4, 0);
    h.insertBlock(0, 0, block(0, 0, 2));
    h.insertBlock(2, 0, block(2, 0, 4));
    EXPECT_EQ(h.cellsOf(0), 2u);
    EXPECT_EQ(h.cellsOf(1), 0u);
    EXPECT_EQ(h.cellsOf(2), 4u);
    EXPECT_EQ(h.occupancy(), 6u);
    EXPECT_EQ(h.highWater(), 6);
    h.pop(2);
    EXPECT_EQ(h.occupancy(), 5u);
    EXPECT_EQ(h.highWater(), 6);
}

TEST(HeadSram, RecycleResetsSequenceSpace)
{
    HeadSram h(1, 4, 0);
    h.insertBlock(0, 0, block(0, 0, 1));
    h.pop(0);
    h.recycle(0);
    // After recycling, seq numbering restarts at 0.
    EXPECT_NO_THROW(h.insertBlock(0, 0, block(0, 0, 1)));
    EXPECT_EQ(h.pop(0).seq, 0u);
}

TEST(HeadSram, RecycleNonEmptyPanics)
{
    HeadSram h(1, 4, 0);
    h.insertBlock(0, 0, block(0, 0, 1));
    EXPECT_THROW(h.recycle(0), PanicError);
}

TEST(HeadSram, OutOfOrderRefillGapFilledLater)
{
    // Refills 2 and 3 complete before refill 1: the window holds a
    // gap at seq 1 until its block arrives.
    HeadSram h(1, 4, 0);
    h.insertBlock(0, 0, block(0, 0, 2));
    h.insertBlock(0, 2, block(0, 4, 2));
    h.insertBlock(0, 3, block(0, 6, 1));
    EXPECT_EQ(h.pop(0).seq, 0u);
    EXPECT_EQ(h.pop(0).seq, 1u);
    EXPECT_TRUE(h.wouldMiss(0));
    EXPECT_THROW(h.pop(0), PanicError);
    EXPECT_EQ(h.cellsOf(0), 3u);
    EXPECT_THROW(h.insertBlock(0, 0, block(0, 0, 2)), PanicError);
    EXPECT_THROW(h.insertBlock(0, 2, block(0, 4, 2)), PanicError);
    h.insertBlock(0, 1, block(0, 2, 2));
    EXPECT_FALSE(h.wouldMiss(0));
    for (SeqNum s = 2; s < 7; ++s)
        EXPECT_EQ(h.pop(0).seq, s);
    EXPECT_EQ(h.occupancy(), 0u);
    EXPECT_TRUE(h.wouldMiss(0));
}

TEST(HeadSram, BlockLargerThanGranularityPanics)
{
    HeadSram h(1, 2, 0);
    EXPECT_THROW(h.insertBlock(0, 0, block(0, 0, 3)), PanicError);
}

TEST(HeadSram, SaveLoadSaveByteIdenticalWithGap)
{
    HeadSram h(2, 4, 0);
    h.insertBlock(0, 0, block(0, 0, 4));
    h.insertBlock(0, 2, block(0, 8, 4));
    h.insertBlock(1, 3, block(1, 12, 2));  // seqs 0..2 in flight
    h.pop(0);                              // block 0 part consumed
    ser::Writer w1;
    h.save(w1);

    HeadSram g(2, 4, 0);
    g.insertBlock(1, 0, block(1, 0, 1));  // replaced by the load
    ser::Reader r(w1.bytes());
    g.load(r);
    r.done();
    ser::Writer w2;
    g.save(w2);
    EXPECT_EQ(w1.bytes(), w2.bytes());
    EXPECT_EQ(g.cellsOf(0), 7u);
    EXPECT_EQ(g.cellsOf(1), 2u);
    EXPECT_TRUE(g.wouldMiss(1));
    for (SeqNum s = 1; s < 4; ++s)
        EXPECT_EQ(g.pop(0).seq, s);
    EXPECT_TRUE(g.wouldMiss(0));
}

namespace
{

/** An h-SRAM checkpoint of one queue, cut after its block count. */
ser::Writer
headPrefix(std::uint64_t next_consume_seq, std::uint64_t blocks)
{
    ser::Writer w;
    w.tag("HSRM");
    w.u64(1);  // queues
    w.u64(next_consume_seq);
    w.u64(blocks);
    return w;
}

void
appendBlock(ser::Writer &w, std::uint64_t seq, std::uint64_t consumed,
            std::uint64_t cells)
{
    w.u64(seq);
    w.u64(consumed);
    w.u64(cells);
    // The cells themselves; at least one, so a refused count is
    // refused for its shape and not for running out of bytes.
    const auto n = std::clamp<std::uint64_t>(cells, 1, 8);
    for (unsigned i = 0; i < n; ++i)
        Cell{0, i, 0}.save(w);
}

void
expectHeadLoadFatal(const ser::Writer &w)
{
    HeadSram h(1, 4, 0);
    ser::Reader r(w.bytes());
    EXPECT_THROW(h.load(r), FatalError);
}

} // namespace

TEST(HeadSram, LoadRejectsHugeCounts)
{
    expectHeadLoadFatal(headPrefix(0, std::uint64_t{1} << 60));
    auto w = headPrefix(0, 1);
    appendBlock(w, 0, 0, std::uint64_t{1} << 60);
    expectHeadLoadFatal(w);
}

TEST(HeadSram, LoadRejectsMalformedBlocks)
{
    auto w = headPrefix(0, 1);
    appendBlock(w, 0, 0, 0);  // empty block
    expectHeadLoadFatal(w);
    w = headPrefix(0, 1);
    appendBlock(w, 0, 0, 5);  // more than b cells
    expectHeadLoadFatal(w);
    w = headPrefix(0, 1);
    appendBlock(w, 0, 2, 2);  // consumed == size
    expectHeadLoadFatal(w);
    w = headPrefix(3, 1);
    appendBlock(w, 2, 0, 2);  // already consumed seq
    expectHeadLoadFatal(w);
    w = headPrefix(0, 2);
    appendBlock(w, 1, 0, 2);  // repeated seq
    appendBlock(w, 1, 0, 2);
    expectHeadLoadFatal(w);
    w = headPrefix(0, 2);
    appendBlock(w, 0, 0, 2);  // gap of 2^60 seqs
    appendBlock(w, std::uint64_t{1} << 60, 0, 2);
    expectHeadLoadFatal(w);
}

TEST(TailSram, PushClaimExtractOrder)
{
    TailSram t(2, 0);
    for (SeqNum s = 0; s < 6; ++s)
        t.push(0, Cell{0, s, 0});
    EXPECT_EQ(t.unclaimed(0), 6u);
    t.claim(0, 4);
    EXPECT_EQ(t.unclaimed(0), 2u);
    EXPECT_EQ(t.cellsOf(0), 6u);
    const auto cells = t.extractClaimed(0, 4);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].seq, 0u);
    EXPECT_EQ(cells[3].seq, 3u);
    EXPECT_EQ(t.cellsOf(0), 2u);
}

TEST(TailSram, ClaimMoreThanUnclaimedPanics)
{
    TailSram t(1, 0);
    t.push(0, Cell{0, 0, 0});
    EXPECT_THROW(t.claim(0, 2), PanicError);
}

TEST(TailSram, BypassTakesOldestUnclaimed)
{
    TailSram t(1, 0);
    for (SeqNum s = 0; s < 3; ++s)
        t.push(0, Cell{0, s, 0});
    const auto cells = t.extractBypass(0, 2);
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].seq, 0u);
    EXPECT_EQ(cells[1].seq, 1u);
    EXPECT_EQ(t.cellsOf(0), 1u);
}

TEST(TailSram, BypassBehindClaimPanics)
{
    TailSram t(1, 0);
    for (SeqNum s = 0; s < 4; ++s)
        t.push(0, Cell{0, s, 0});
    t.claim(0, 2);
    // Claimed cells are older; bypassing around them would reorder.
    EXPECT_THROW(t.extractBypass(0, 2), PanicError);
    t.unclaim(0, 2);
    EXPECT_NO_THROW(t.extractBypass(0, 2));
}

TEST(TailSram, BypassShorterThanRequested)
{
    TailSram t(1, 0);
    t.push(0, Cell{0, 0, 0});
    const auto cells = t.extractBypass(0, 4);
    EXPECT_EQ(cells.size(), 1u);
}

TEST(TailSram, OverflowPanics)
{
    TailSram t(1, 2);
    t.push(0, Cell{0, 0, 0});
    t.push(0, Cell{0, 1, 0});
    EXPECT_THROW(t.push(0, Cell{0, 2, 0}), PanicError);
}

TEST(TailSram, HighWaterTracksPeak)
{
    TailSram t(1, 0);
    t.push(0, Cell{0, 0, 0});
    t.push(0, Cell{0, 1, 0});
    t.extractBypass(0, 2);
    EXPECT_EQ(t.occupancy(), 0u);
    EXPECT_EQ(t.highWater(), 2);
}

TEST(TailSram, RecycleRequiresDrained)
{
    TailSram t(1, 0);
    t.push(0, Cell{0, 0, 0});
    EXPECT_THROW(t.recycle(0), PanicError);
    t.extractBypass(0, 1);
    EXPECT_NO_THROW(t.recycle(0));
}

namespace
{

std::vector<SeqNum>
seqsOf(const std::vector<Cell> &cells)
{
    std::vector<SeqNum> out;
    for (const auto &c : cells)
        out.push_back(c.seq);
    return out;
}

/** Push cells `from`..`to - 1` of queue 0. */
void
pushRange(TailSram &t, SeqNum from, SeqNum to)
{
    for (SeqNum s = from; s < to; ++s)
        t.push(0, Cell{0, s, 0});
}

using Seqs = std::vector<SeqNum>;

} // namespace

// A queue's first ring holds 8 cells.  Six pushes and a 4-cell
// extraction move its head to index 4, so the next pushes wrap.

TEST(TailSram, ClaimAndExtractAcrossTheWrapEdge)
{
    TailSram t(1, 0);
    pushRange(t, 0, 6);
    EXPECT_EQ(seqsOf(t.extractBypass(0, 4)), (Seqs{0, 1, 2, 3}));
    pushRange(t, 6, 10);  // cells 4..9 at ring indices 4..7, 0, 1
    t.claim(0, 4);        // 4..7, up to the edge
    t.unclaim(0, 2);
    EXPECT_EQ(t.unclaimed(0), 4u);
    EXPECT_EQ(seqsOf(t.extractClaimed(0, 2)), (Seqs{4, 5}));
    t.claim(0, 2);  // 6, 7
    t.unclaim(0, 2);
    EXPECT_EQ(seqsOf(t.extractBypass(0, 3)), (Seqs{6, 7, 8}));
    t.claim(0, 1);  // 9, past the edge
    EXPECT_EQ(seqsOf(t.extractClaimed(0, 1)), (Seqs{9}));
    EXPECT_EQ(t.cellsOf(0), 0u);
    EXPECT_EQ(t.occupancy(), 0u);
}

TEST(TailSram, RingGrowsWhileWrapped)
{
    TailSram t(1, 0);
    pushRange(t, 0, 6);
    EXPECT_EQ(seqsOf(t.extractBypass(0, 4)), (Seqs{0, 1, 2, 3}));
    pushRange(t, 6, 12);  // full: cells 4..11, head at index 4
    t.claim(0, 6);        // 4..9, across the edge
    pushRange(t, 12, 30); // grows to 16, then to 32
    EXPECT_EQ(t.cellsOf(0), 26u);
    EXPECT_EQ(t.unclaimed(0), 20u);
    EXPECT_EQ(seqsOf(t.extractClaimed(0, 6)), (Seqs{4, 5, 6, 7, 8, 9}));
    Seqs rest;
    for (SeqNum s = 10; s < 30; ++s)
        rest.push_back(s);
    EXPECT_EQ(seqsOf(t.extractBypass(0, 32)), rest);
    EXPECT_EQ(t.highWater(), 26);
}

TEST(TailSram, WrappedRingSaveLoadSaveByteIdentical)
{
    TailSram t(2, 0);
    t.setThreshold(2);
    pushRange(t, 0, 6);
    t.extractBypass(0, 4);
    pushRange(t, 6, 10);  // cells 4..9, wrapped
    t.claim(0, 2);
    t.push(1, Cell{1, 0, 0});
    ser::Writer w1;
    t.save(w1);

    TailSram u(2, 0);
    u.setThreshold(2);
    ser::Reader r(w1.bytes());
    u.load(r);
    ser::Writer w2;
    u.save(w2);
    EXPECT_EQ(w1.bytes(), w2.bytes());
    EXPECT_EQ(u.eligibleCount(), 1u);  // queue 0: 4 unclaimed

    // The restored ring serves the same FIFO order as the original.
    for (TailSram *s : {&t, &u}) {
        EXPECT_EQ(seqsOf(s->extractClaimed(0, 2)), (Seqs{4, 5}));
        EXPECT_EQ(seqsOf(s->extractBypass(0, 8)), (Seqs{6, 7, 8, 9}));
        EXPECT_EQ(seqsOf(s->extractBypass(1, 8)), (Seqs{0}));
    }
}
