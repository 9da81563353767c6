/**
 * @file
 * Unit tests for the DRAM substrate: bank timing (conflict panics),
 * ordinal-keyed block storage, and group occupancy accounting.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "dram/bank_state.hh"
#include "dram/dram_store.hh"
#include "dram/timing.hh"

using namespace pktbuf;
using namespace pktbuf::dram;

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

TEST(BankState, BusyWindowIsExactlyAccessTime)
{
    BankState b(4, 10);
    EXPECT_FALSE(b.busy(0, 0));
    EXPECT_EQ(b.startAccess(0, 5), 15u);
    EXPECT_TRUE(b.busy(0, 5));
    EXPECT_TRUE(b.busy(0, 14));
    EXPECT_FALSE(b.busy(0, 15));
    EXPECT_FALSE(b.busy(1, 5));
}

TEST(BankState, ConflictPanics)
{
    BankState b(2, 8);
    b.startAccess(1, 0);
    EXPECT_THROW(b.startAccess(1, 3), PanicError);
    EXPECT_NO_THROW(b.startAccess(0, 3));
    EXPECT_NO_THROW(b.startAccess(1, 8));
}

TEST(BankState, InFlightCount)
{
    BankState b(8, 16);
    b.startAccess(0, 0);
    b.startAccess(3, 4);
    EXPECT_EQ(b.inFlight(5), 2u);
    EXPECT_EQ(b.inFlight(16), 1u); // bank 0 done
    EXPECT_EQ(b.inFlight(20), 0u);
    EXPECT_EQ(b.accesses(), 2u);
}

TEST(BankState, RejectsBadArguments)
{
    EXPECT_THROW(BankState(0, 4), PanicError);
    EXPECT_THROW(BankState(4, 0), PanicError);
    BankState b(2, 4);
    EXPECT_THROW(b.busy(5, 0), PanicError);
}

TEST(DramStore, WriteReadRoundTrip)
{
    DramStore d(4, 4, 2, 0);
    d.writeBlock(0, 0, block(0, 0, 4), 0);
    d.writeBlock(0, 1, block(0, 4, 4), 0);
    EXPECT_TRUE(d.hasBlock(0, 0));
    EXPECT_TRUE(d.hasBlock(0, 1));
    EXPECT_FALSE(d.hasBlock(0, 2));
    EXPECT_EQ(d.residentBlocks(0), 2u);

    const auto cells = d.readBlock(0, 0, 0);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].seq, 0u);
    EXPECT_EQ(cells[3].seq, 3u);
    EXPECT_FALSE(d.hasBlock(0, 0));
    EXPECT_EQ(d.residentBlocks(0), 1u);
}

TEST(DramStore, OutOfOrderOrdinalsSupported)
{
    // The DSA may launch block k+1's write before block k's.
    DramStore d(2, 2, 1, 0);
    d.writeBlock(1, 5, block(1, 10, 2), 0);
    d.writeBlock(1, 4, block(1, 8, 2), 0);
    EXPECT_EQ(d.readBlock(1, 4, 0)[0].seq, 8u);
    EXPECT_EQ(d.readBlock(1, 5, 0)[0].seq, 10u);
}

TEST(DramStore, WrongSizeBlockPanics)
{
    DramStore d(2, 4, 1, 0);
    EXPECT_THROW(d.writeBlock(0, 0, block(0, 0, 3), 0), PanicError);
}

TEST(DramStore, DuplicateOrdinalPanics)
{
    DramStore d(2, 2, 1, 0);
    d.writeBlock(0, 7, block(0, 0, 2), 0);
    EXPECT_THROW(d.writeBlock(0, 7, block(0, 2, 2), 0), PanicError);
}

TEST(DramStore, AbsentBlockReadPanics)
{
    DramStore d(2, 2, 1, 0);
    EXPECT_THROW(d.readBlock(0, 0, 0), PanicError);
}

TEST(DramStore, GroupAccounting)
{
    DramStore d(4, 2, 2, 8);
    d.writeBlock(0, 0, block(0, 0, 2), 0); // group 0
    d.writeBlock(1, 0, block(1, 0, 2), 1); // group 1
    d.writeBlock(2, 0, block(2, 0, 2), 0);
    EXPECT_EQ(d.groupCells(0), 4u);
    EXPECT_EQ(d.groupCells(1), 2u);
    EXPECT_EQ(d.totalCells(), 6u);
    d.readBlock(0, 0, 0);
    EXPECT_EQ(d.groupCells(0), 2u);
}

TEST(DramStore, GroupOverflowPanics)
{
    DramStore d(4, 2, 1, 4);
    d.writeBlock(0, 0, block(0, 0, 2), 0);
    d.writeBlock(0, 1, block(0, 2, 2), 0);
    EXPECT_THROW(d.writeBlock(0, 2, block(0, 4, 2), 0), PanicError);
}

TEST(DramStore, RecycleRequiresEmpty)
{
    DramStore d(2, 2, 1, 0);
    d.writeBlock(0, 0, block(0, 0, 2), 0);
    EXPECT_THROW(d.recycle(0), PanicError);
    d.readBlock(0, 0, 0);
    EXPECT_NO_THROW(d.recycle(0));
}

TEST(DramStore, ReadAtWindowFrontWithHolesBehind)
{
    // The DSA launched the reads of blocks 2 and 3 ahead of block 0:
    // the window keeps 0, 1 and 4 around the holes.
    DramStore d(1, 2, 1, 0);
    for (std::uint64_t ord = 0; ord < 5; ++ord)
        d.writeBlock(0, ord, block(0, 2 * ord, 2), 0);
    d.readBlock(0, 2, 0);
    d.readBlock(0, 3, 0);
    EXPECT_FALSE(d.hasBlock(0, 2));
    EXPECT_FALSE(d.hasBlock(0, 3));
    EXPECT_EQ(d.readBlock(0, 0, 0)[0].seq, 0u);
    EXPECT_FALSE(d.hasBlock(0, 0));
    EXPECT_TRUE(d.hasBlock(0, 1));
    EXPECT_TRUE(d.hasBlock(0, 4));
    EXPECT_EQ(d.residentBlocks(0), 2u);
    EXPECT_EQ(d.readBlock(0, 1, 0)[1].seq, 3u);
    EXPECT_EQ(d.readBlock(0, 4, 0)[0].seq, 8u);
    EXPECT_EQ(d.residentBlocks(0), 0u);
    EXPECT_EQ(d.totalCells(), 0u);
}

TEST(DramStore, WriteBelowWindowBase)
{
    // A bypass squash rewinds the write ordinal, so a block may be
    // written below every resident ordinal of its queue.
    DramStore d(1, 2, 1, 0);
    d.writeBlock(0, 6, block(0, 12, 2), 0);
    d.writeBlock(0, 7, block(0, 14, 2), 0);
    d.readBlock(0, 6, 0);
    d.writeBlock(0, 3, block(0, 6, 2), 0);
    d.writeBlock(0, 5, block(0, 10, 2), 0);
    EXPECT_TRUE(d.hasBlock(0, 3));
    EXPECT_FALSE(d.hasBlock(0, 4));
    EXPECT_TRUE(d.hasBlock(0, 5));
    EXPECT_FALSE(d.hasBlock(0, 6));
    EXPECT_EQ(d.residentBlocks(0), 3u);
    EXPECT_THROW(d.writeBlock(0, 3, block(0, 6, 2), 0), PanicError);
    EXPECT_EQ(d.readBlock(0, 3, 0)[0].seq, 6u);
    EXPECT_EQ(d.readBlock(0, 7, 0)[0].seq, 14u);
    EXPECT_EQ(d.readBlock(0, 5, 0)[0].seq, 10u);
    EXPECT_NO_THROW(d.recycle(0));
}

TEST(DramStore, HasBlockOutsideWindow)
{
    DramStore d(2, 2, 1, 0);
    EXPECT_FALSE(d.hasBlock(0, 0));
    EXPECT_FALSE(d.hasBlock(0, UINT64_MAX));
    d.writeBlock(0, 10, block(0, 0, 2), 0);
    d.writeBlock(0, 12, block(0, 2, 2), 0);
    EXPECT_FALSE(d.hasBlock(0, 9));   // below the window
    EXPECT_FALSE(d.hasBlock(0, 0));
    EXPECT_FALSE(d.hasBlock(0, 11));  // a hole inside it
    EXPECT_FALSE(d.hasBlock(0, 13));  // above it
    EXPECT_FALSE(d.hasBlock(0, UINT64_MAX));
    EXPECT_FALSE(d.hasBlock(1, 10));  // another queue's window
    EXPECT_THROW(d.readBlock(0, 11, 0), PanicError);
    EXPECT_THROW(d.readBlock(0, 13, 0), PanicError);
}

TEST(DramStore, SaveLoadSaveByteIdenticalWithHoles)
{
    DramStore d(3, 2, 2, 0);
    for (std::uint64_t ord = 0; ord < 6; ++ord)
        d.writeBlock(1, ord, block(1, 2 * ord, 2), 1);
    d.readBlock(1, 1, 1);
    d.readBlock(1, 4, 1);
    d.writeBlock(2, 9, block(2, 0, 2), 0);
    ser::Writer w1;
    d.save(w1);

    DramStore e(3, 2, 2, 0);
    e.writeBlock(0, 0, block(0, 0, 2), 0);  // replaced by the load
    ser::Reader r(w1.bytes());
    e.load(r);
    r.done();
    ser::Writer w2;
    e.save(w2);
    EXPECT_EQ(w1.bytes(), w2.bytes());
    EXPECT_FALSE(e.hasBlock(0, 0));
    EXPECT_FALSE(e.hasBlock(1, 1));
    EXPECT_FALSE(e.hasBlock(1, 4));
    EXPECT_EQ(e.residentBlocks(1), 4u);
    EXPECT_EQ(e.readBlock(1, 5, 1)[1].seq, 11u);
    EXPECT_EQ(e.readBlock(2, 9, 0)[0].queue, 2u);
}

namespace
{

/** A DRAM checkpoint of one group and one queue, cut after the
 *  queue's block count. */
ser::Writer
dramPrefix(std::uint64_t blocks)
{
    ser::Writer w;
    w.tag("DRAM");
    w.u64(1);  // groups
    w.u64(0);  // group 0 cells
    w.u64(1);  // queues
    w.u64(blocks);
    return w;
}

void
appendCells(ser::Writer &w, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        Cell{0, i, 0}.save(w);
}

void
expectDramLoadFatal(const ser::Writer &w)
{
    DramStore d(1, 2, 1, 0);
    ser::Reader r(w.bytes());
    EXPECT_THROW(d.load(r), FatalError);
}

} // namespace

TEST(DramStore, LoadRejectsHugeCounts)
{
    // 2^60 blocks: refused from the bytes left, before allocating.
    expectDramLoadFatal(dramPrefix(std::uint64_t{1} << 60));

    // One block claiming 2^60 cells, with plenty of bytes behind it.
    auto w = dramPrefix(1);
    w.u64(0);
    w.u64(std::uint64_t{1} << 60);
    appendCells(w, 64);
    expectDramLoadFatal(w);
}

TEST(DramStore, LoadRejectsMalformedBlocks)
{
    // A block must hold exactly b cells.
    auto w = dramPrefix(1);
    w.u64(0);
    w.u64(1);
    appendCells(w, 2);
    expectDramLoadFatal(w);

    // Ordinals must strictly ascend: a repeat ...
    w = dramPrefix(2);
    for (int i = 0; i < 2; ++i) {
        w.u64(5);
        w.u64(2);
        appendCells(w, 2);
    }
    expectDramLoadFatal(w);

    // ... or a step backwards is corrupt.
    w = dramPrefix(2);
    for (const std::uint64_t ord : {6, 5}) {
        w.u64(ord);
        w.u64(2);
        appendCells(w, 2);
    }
    expectDramLoadFatal(w);

    // A gap of 2^60 ordinals would size the window from junk.
    w = dramPrefix(2);
    const std::uint64_t far = std::uint64_t{1} << 60;
    for (const std::uint64_t ord : {std::uint64_t{0}, far}) {
        w.u64(ord);
        w.u64(2);
        appendCells(w, 2);
    }
    expectDramLoadFatal(w);
}

// ----------------------------------------------------- DramTiming

TEST(DramTiming, UniformDefaultMatchesLegacyScalar)
{
    const TimingConfig cfg;
    EXPECT_TRUE(cfg.isUniform());
    DramTiming t(cfg, 8, 4, 8);
    for (unsigned bank = 0; bank < 8; ++bank)
        EXPECT_EQ(t.accessSlots(bank), 8u);
    EXPECT_EQ(t.maxAccessSlots(), 8u);
    EXPECT_FALSE(t.refreshEnabled());
    EXPECT_EQ(t.turnaround(), 0u);
    for (Slot now = 0; now < 100; ++now)
        EXPECT_FALSE(t.inRefresh(now % 8, now));
}

TEST(DramTiming, PerGroupTrcResolvesGroupMajor)
{
    TimingConfig cfg;
    cfg.groupTRc = {8, 16};
    EXPECT_FALSE(cfg.isUniform());
    DramTiming t(cfg, 4, 2, 8);
    // AddressMap lays banks out group-major: banks 0-1 = group 0.
    EXPECT_EQ(t.accessSlots(0), 8u);
    EXPECT_EQ(t.accessSlots(1), 8u);
    EXPECT_EQ(t.accessSlots(2), 16u);
    EXPECT_EQ(t.accessSlots(3), 16u);
    EXPECT_EQ(t.maxAccessSlots(), 16u);
    EXPECT_EQ(cfg.maxTRc(8), 16u);
}

TEST(DramTiming, RefreshWindowRotatesDeterministically)
{
    TimingConfig cfg;
    cfg.tRefi = 32;
    cfg.tRfc = 8;
    cfg.refreshBanks = 2;
    DramTiming t(cfg, 4, 2, 8);
    // Interval 0: banks 0-1 blacked out during [0, 8).
    EXPECT_TRUE(t.inRefresh(0, 0));
    EXPECT_TRUE(t.inRefresh(1, 7));
    EXPECT_FALSE(t.inRefresh(2, 0));
    EXPECT_FALSE(t.inRefresh(0, 8));  // blackout over
    // Interval 1 (slots 32..): the window rotates to banks 2-3.
    EXPECT_TRUE(t.inRefresh(2, 32));
    EXPECT_TRUE(t.inRefresh(3, 39));
    EXPECT_FALSE(t.inRefresh(0, 32));
    EXPECT_FALSE(t.inRefresh(2, 40));
    // Interval 2 wraps back to banks 0-1.
    EXPECT_TRUE(t.inRefresh(0, 64));
    EXPECT_FALSE(t.inRefresh(2, 64));
}

TEST(DramTiming, InvalidConfigsAreFatal)
{
    TimingConfig bad_rfc;
    bad_rfc.tRefi = 32;  // refresh on, but t_RFC unset
    EXPECT_THROW(DramTiming(bad_rfc, 4, 2, 8), FatalError);

    TimingConfig rfc_too_long;
    rfc_too_long.tRefi = 32;
    rfc_too_long.tRfc = 32;  // blackout covers the whole interval
    EXPECT_THROW(DramTiming(rfc_too_long, 4, 2, 8), FatalError);

    TimingConfig wrong_groups;
    wrong_groups.groupTRc = {8, 16, 24};  // 3 entries, 2 groups
    EXPECT_THROW(DramTiming(wrong_groups, 4, 2, 8), FatalError);

    TimingConfig window_too_wide;
    window_too_wide.tRefi = 32;
    window_too_wide.tRfc = 8;
    window_too_wide.refreshBanks = 8;  // only 4 banks exist
    EXPECT_THROW(DramTiming(window_too_wide, 4, 2, 8), FatalError);

    TimingConfig no_banks;
    no_banks.turnaround = 2;  // non-uniform needs a bank count
    EXPECT_THROW(DramTiming(no_banks, 0, 0, 8), FatalError);
}

TEST(DramTiming, DescribeNamesEveryKnob)
{
    TimingConfig cfg;
    cfg.groupTRc = {8, 16};
    cfg.turnaround = 2;
    cfg.tRefi = 128;
    cfg.tRfc = 16;
    cfg.refreshBanks = 2;
    const auto d = cfg.describe(8);
    EXPECT_NE(d.find("tRC=8/16"), std::string::npos) << d;
    EXPECT_NE(d.find("turn=2"), std::string::npos) << d;
    EXPECT_NE(d.find("REFI=128/16x2"), std::string::npos) << d;
    EXPECT_EQ(TimingConfig{}.describe(8), "uniform tRC=8");
}

TEST(BankState, PerBankAccessTimes)
{
    BankState s(2, 8, {8, 16});
    EXPECT_EQ(s.accessSlotsOf(0), 8u);
    EXPECT_EQ(s.accessSlotsOf(1), 16u);
    s.startAccess(0, 0);
    s.startAccess(1, 0);
    EXPECT_FALSE(s.busy(0, 8));
    EXPECT_TRUE(s.busy(1, 8));   // slow bank still inside t_RC
    EXPECT_FALSE(s.busy(1, 16));
    // Re-access inside the longer window is still a conflict.
    EXPECT_THROW(s.startAccess(1, 12), PanicError);
    EXPECT_THROW(BankState(2, 8, {8}), PanicError);  // size mismatch
}

TEST(DramTiming, ExplicitTrcIsNotUniform)
{
    // An explicit tRc -- even one equal to B -- must count as
    // non-uniform so it passes through the CFDS-only gate and the
    // latency/RR slack extension (it changes bank lock times and
    // read completion regardless).
    TimingConfig cfg;
    cfg.tRc = 16;
    EXPECT_FALSE(cfg.isUniform());
    DramTiming t(cfg, 4, 2, 8);
    EXPECT_EQ(t.accessSlots(3), 16u);
    EXPECT_EQ(t.maxAccessSlots(), 16u);
    TimingConfig same_as_base;
    same_as_base.tRc = 8;
    EXPECT_FALSE(same_as_base.isUniform());
}

TEST(DramTiming, OutOfRangeBankPanics)
{
    TimingConfig cfg;
    cfg.groupTRc = {8, 16};
    DramTiming t(cfg, 4, 2, 8);
    EXPECT_THROW(t.accessSlots(4), PanicError);
}
