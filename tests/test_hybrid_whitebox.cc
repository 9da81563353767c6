/**
 * @file
 * White-box tests of HybridBuffer internals: the bypass/cancel
 * protocol, out-of-order refill, recycling invariants, admission
 * semantics, trace output, measurement mode and timing exactness
 * across granularities.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "buffer/hybrid_buffer.hh"
#include "sim/runner.hh"
#include "sim/workload.hh"

using namespace pktbuf;
using namespace pktbuf::buffer;
using namespace pktbuf::sim;

namespace
{

BufferConfig
config(unsigned queues, unsigned B, unsigned b, unsigned banks)
{
    BufferConfig cfg;
    cfg.params = model::BufferParams{queues, B, b, banks};
    return cfg;
}

Cell
cell(QueueId q, SeqNum s)
{
    Cell c;
    c.queue = q;
    c.seq = s;
    return c;
}

/** Push n cells of queue q, one per slot. */
void
fill(HybridBuffer &buf, QueueId q, unsigned n, SeqNum first = 0)
{
    for (unsigned i = 0; i < n; ++i)
        buf.step(cell(q, first + i), kInvalidQueue);
}

/** Step idle slots. */
void
idle(HybridBuffer &buf, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        buf.step(std::nullopt, kInvalidQueue);
}

} // namespace

TEST(Whitebox, CutThroughSingleCell)
{
    // One cell arrives and is requested immediately: it must flow
    // through the bypass (it can never have reached DRAM).
    HybridBuffer buf(config(4, 4, 2, 8));
    buf.step(cell(2, 0), kInvalidQueue);
    auto g = buf.step(std::nullopt, 2);
    std::uint64_t waited = 0;
    while (!g && waited < buf.pipelineDepth() + 4) {
        g = buf.step(std::nullopt, kInvalidQueue);
        ++waited;
    }
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->cell.queue, 2u);
    const auto rep = buf.report();
    EXPECT_EQ(rep.bypasses, 1u);
    EXPECT_EQ(rep.dramReads, 0u);
}

TEST(Whitebox, WriteCancelledInFavorOfBypass)
{
    // Fill exactly one block's worth so the t-MMA claims a write,
    // then request the cells before the write can matter.  The
    // pending write must be squashed, not raced.
    HybridBuffer buf(config(2, 8, 4, 4));
    fill(buf, 0, 4);
    // Let the t-MMA claim (runs on b-boundaries).
    idle(buf, 8);
    // Now demand all 4 cells.
    std::uint64_t got = 0;
    for (int i = 0; i < 4; ++i) {
        if (buf.step(std::nullopt, 0))
            ++got;
    }
    for (std::uint64_t i = 0; i < buf.pipelineDepth() + 8; ++i) {
        if (buf.step(std::nullopt, kInvalidQueue))
            ++got;
    }
    EXPECT_EQ(got, 4u);
    const auto rep = buf.report();
    // Either the write launched and a DRAM read served the cells, or
    // it was cancelled and they bypassed; both are legal, but no
    // cell may be duplicated or lost (golden-free scenario, count
    // conservation checks it).
    EXPECT_EQ(rep.grants, 4u);
    EXPECT_EQ(rep.arrivals, 4u);
}

TEST(Whitebox, DramRoundTripForDeepQueue)
{
    // A deep backlog must flow through DRAM (not just bypass).
    HybridBuffer buf(config(2, 8, 2, 8));
    fill(buf, 1, 64);
    idle(buf, 128); // t-MMA drains to DRAM
    EXPECT_GT(buf.report().dramWrites, 0u);
    EXPECT_GT(buf.dramStore().totalCells(), 0u);
    // Drain all of it.
    std::uint64_t got = 0;
    for (unsigned i = 0; i < 64; ++i)
        if (buf.step(std::nullopt, 1))
            ++got;
    for (std::uint64_t i = 0; i < buf.pipelineDepth() + 64; ++i)
        if (buf.step(std::nullopt, kInvalidQueue))
            ++got;
    EXPECT_EQ(got, 64u);
    EXPECT_GT(buf.report().dramReads, 0u);
    EXPECT_EQ(buf.dramStore().totalCells(), 0u);
}

TEST(Whitebox, GrantsAreInFifoOrderPerQueueAcrossPaths)
{
    // Mix bypass and DRAM paths on the same queue; sequence numbers
    // must stay dense.  Load 0.35 keeps one queue's read+write
    // demand (2 * 0.35 cells/slot) under its group's 1-cell/slot
    // bandwidth (see DESIGN.md section 7.4).
    HybridBuffer buf(config(2, 8, 2, 8));
    GoldenChecker checker(2);
    SeqNum next = 0;
    Rng rng(5);
    std::uint64_t outstanding = 0, granted = 0;
    for (Slot t = 0; t < 30000; ++t) {
        std::optional<Cell> arr;
        if (rng.chance(0.35))
            arr = cell(0, next++);
        QueueId req = kInvalidQueue;
        if (outstanding + granted < next && rng.chance(0.35)) {
            req = 0;
            ++outstanding;
        }
        const auto g = buf.step(arr, req);
        if (g) {
            checker.onGrant(g->logicalQueue, g->cell);
            --outstanding;
            ++granted;
        }
    }
    EXPECT_GT(granted, 7000u);
}

TEST(Whitebox, TraceProducesEvents)
{
    HybridBuffer buf(config(2, 4, 2, 4));
    std::ostringstream os;
    buf.trace = &os;
    fill(buf, 0, 8);
    buf.step(std::nullopt, 0); // a request makes the h-MMA fire
    idle(buf, 16);
    buf.trace = nullptr;
    const auto text = os.str();
    EXPECT_NE(text.find("tmma claim"), std::string::npos);
    EXPECT_NE(text.find("hmma select"), std::string::npos)
        << "trace: " << text;
    EXPECT_NE(text.find("grant due"), std::string::npos);
}

TEST(Whitebox, WouldAdmitReflectsDramSpace)
{
    BufferConfig cfg = config(2, 4, 2, 4);
    cfg.dramCells = 8; // 2 groups... groups = 4/2 = 2 -> 4 cells each
    HybridBuffer buf(cfg);
    EXPECT_TRUE(buf.wouldAdmit(0));
    // Queue 0 lives in group 0 (4-cell share): committed counts
    // arrivals immediately.
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(buf.wouldAdmit(0)) << i;
        buf.step(cell(0, static_cast<SeqNum>(i)), kInvalidQueue);
    }
    EXPECT_FALSE(buf.wouldAdmit(0));
    // The other group's queue is unaffected.
    EXPECT_TRUE(buf.wouldAdmit(1));
    // Draining the queue frees the committed space again.
    std::uint64_t got = 0;
    for (unsigned i = 0; i < 4; ++i)
        if (buf.step(std::nullopt, 0))
            ++got;
    for (std::uint64_t i = 0; i < buf.pipelineDepth() + 32; ++i)
        if (buf.step(std::nullopt, kInvalidQueue))
            ++got;
    EXPECT_EQ(got, 4u);
    EXPECT_TRUE(buf.wouldAdmit(0));
}

TEST(Whitebox, MeasureModeRecordsButNeverPanics)
{
    BufferConfig cfg = config(4, 8, 2, 16);
    cfg.measureOnly = true;
    HybridBuffer buf(cfg);
    EXPECT_EQ(buf.headSram().capacity(), 0u);
    EXPECT_EQ(buf.tailSram().capacity(), 0u);
    EXPECT_EQ(buf.scheduler().rr().capacity(), 0u);
    UniformRandom wl(4, 17, 1.0);
    SimRunner runner(buf, wl);
    runner.run(20000);
    EXPECT_GT(buf.report().headSramHighWater, 0);
}

TEST(Whitebox, ExplicitSramOverridesRespected)
{
    BufferConfig cfg = config(4, 8, 2, 16);
    cfg.headSramCells = 5000;
    cfg.tailSramCells = 6000;
    cfg.rrCapacity = 77;
    HybridBuffer buf(cfg);
    EXPECT_EQ(buf.headSram().capacity(), 5000u);
    EXPECT_EQ(buf.tailSram().capacity(), 6000u);
    EXPECT_EQ(buf.scheduler().rr().capacity(), 77u);
}

TEST(Whitebox, GranularityOneTimingExact)
{
    HybridBuffer buf(config(2, 4, 1, 8));
    // b = 1: lookahead collapses to 1 slot; latency register covers
    // the reordering window.
    EXPECT_EQ(buf.lookaheadDepth(), 1u);
    EXPECT_GE(buf.latencyDepth(), 4u); // at least the DRAM access
    fill(buf, 0, 8);
    idle(buf, 16);
    const Slot issued = buf.now();
    auto g = buf.step(std::nullopt, 0);
    std::uint64_t waited = 0;
    while (!g && waited < buf.pipelineDepth() + 4) {
        g = buf.step(std::nullopt, kInvalidQueue);
        ++waited;
    }
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(buf.now() - issued, buf.pipelineDepth() + 1);
}

TEST(Whitebox, BackToBackFullRateOneQueueRads)
{
    // RADS happily serves one queue at full line rate (its single
    // "channel" per direction is dimensioned for it).
    HybridBuffer buf(config(2, 4, 4, 1));
    GoldenChecker checker(2);
    SeqNum next = 0;
    std::uint64_t granted = 0;
    for (Slot t = 0; t < 10000; ++t) {
        const auto g =
            buf.step(cell(0, next), next >= 64 ? 0 : kInvalidQueue);
        ++next;
        if (g) {
            checker.onGrant(0, g->cell);
            ++granted;
        }
    }
    EXPECT_GT(granted, 9000u);
}

TEST(Whitebox, EcqfIdlesWhenNothingCritical)
{
    // No requests => no replenishes beyond tail-side writes.
    HybridBuffer buf(config(4, 8, 2, 16));
    fill(buf, 0, 32);
    idle(buf, 256);
    EXPECT_EQ(buf.report().dramReads, 0u);
    EXPECT_EQ(buf.report().bypasses, 0u);
    EXPECT_GT(buf.report().dramWrites, 0u);
}

TEST(Whitebox, ReportSlotsAdvance)
{
    HybridBuffer buf(config(2, 4, 2, 4));
    idle(buf, 123);
    EXPECT_EQ(buf.report().slots, 123u);
    EXPECT_EQ(buf.now(), 123u);
}

TEST(Whitebox, InvalidRequestQueuePanics)
{
    HybridBuffer buf(config(2, 4, 2, 4));
    EXPECT_THROW(buf.step(std::nullopt, 7), PanicError);
}

TEST(Whitebox, InvalidArrivalQueuePanics)
{
    HybridBuffer buf(config(2, 4, 2, 4));
    EXPECT_THROW(buf.step(cell(9, 0), kInvalidQueue), PanicError);
}

TEST(Whitebox, MdqfUsesNoLookahead)
{
    BufferConfig cfg = config(4, 4, 2, 8);
    cfg.mma = MmaKind::Mdqf;
    HybridBuffer buf(cfg);
    EXPECT_EQ(buf.lookaheadDepth(), 1u);
    // MDQF proactively replenishes queues with backing cells even
    // without any pending request.
    fill(buf, 0, 16);
    idle(buf, 64);
    EXPECT_GT(buf.report().bypasses + buf.report().dramReads * 2, 0u);
}

TEST(Whitebox, MdqfSramLargerThanEcqf)
{
    BufferConfig e = config(16, 8, 8, 1);
    BufferConfig m = e;
    m.mma = MmaKind::Mdqf;
    HybridBuffer ecqf(e), mdqf(m);
    EXPECT_GT(mdqf.headSram().capacity(), ecqf.headSram().capacity());
}

TEST(Whitebox, LoadRejectsHugeInFlightReads)
{
    // The in-flight reads are the last section before the statistics
    // registry ("STRG"): splice hand-built counts in at that point.
    HybridBuffer fresh(config(2, 4, 2, 4));
    ser::Writer saved;
    fresh.save(saved);
    const std::string &bytes = saved.bytes();
    const auto stats_at = bytes.find("STRG");
    ASSERT_NE(stats_at, std::string::npos);
    const std::size_t count_at = stats_at - 8;
    ASSERT_EQ(bytes.substr(count_at, 8), std::string(8, '\0'));

    const auto expect_fatal = [&](const ser::Writer &reads) {
        const std::string spliced = bytes.substr(0, count_at) +
                                    reads.bytes() +
                                    bytes.substr(stats_at);
        HybridBuffer buf(config(2, 4, 2, 4));
        ser::Reader r(spliced);
        EXPECT_THROW(buf.load(r), FatalError);
    };
    const std::uint64_t huge = std::uint64_t{1} << 60;

    ser::Writer many;
    many.u64(huge);
    expect_fatal(many);

    const auto one_read = [](std::uint64_t cells, QueueId q) {
        ser::Writer w;
        w.u64(1);
        w.u64(10);  // completes at
        w.u32(q);
        w.u64(0);   // replenish seq
        w.u64(cells);
        for (unsigned i = 0; i < 4; ++i)
            Cell{q, i, 0}.save(w);
        return w;
    };
    expect_fatal(one_read(huge, 0));
    expect_fatal(one_read(1, 0));  // a DRAM read is b = 2 cells
    expect_fatal(one_read(2, 7));  // queue out of range

    // The splice itself is sound: a well-formed read loads.
    HybridBuffer buf(config(2, 4, 2, 4));
    const auto good = one_read(2, 1);
    const std::string spliced = bytes.substr(0, count_at) +
                                good.bytes().substr(0, good.bytes().size() -
                                                    2 * Cell::kSavedBytes) +
                                bytes.substr(stats_at);
    ser::Reader r(spliced);
    EXPECT_NO_THROW(buf.load(r));
    r.done();
}
