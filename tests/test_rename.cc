/**
 * @file
 * Unit tests of the queue-renaming machinery (Section 6): tail
 * assignment, cross-group allocation when a group fills, FIFO
 * translation across the physical-queue chain, retirement and
 * recycling, and oversubscription exhaustion.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "rename/renaming_table.hh"

using namespace pktbuf;
using namespace pktbuf::rename;

namespace
{

auto
unbounded()
{
    return [](unsigned) -> std::uint64_t { return UINT64_MAX; };
}

/** One grant of `lq`: the physical queues it retired, oldest first. */
std::vector<QueueId>
grant(RenamingTable &rt, QueueId lq)
{
    std::vector<QueueId> recycled;
    rt.onGrant(lq, [&](QueueId p) { recycled.push_back(p); });
    return recycled;
}

using Names = std::vector<std::vector<QueueId>>;

/**
 * A renaming-table checkpoint section written by hand: one chain of
 * physical names per logical queue (each element with one cell
 * assigned, nothing requested, `cursor` as its request cursor) and
 * one free pool per group.
 */
std::string
tableBytes(const Names &chains, const Names &pools,
           std::uint64_t cursor)
{
    ser::Writer w;
    w.tag("RNTB");
    w.u64(chains.size());
    for (const auto &chain : chains) {
        w.u64(cursor);
        w.u64(chain.size());
        for (const auto p : chain) {
            w.u32(p);
            w.u64(1);  // assigned
            w.u64(0);  // requested
            w.u64(0);  // granted
        }
    }
    w.u64(pools.size());
    for (const auto &pool : pools) {
        w.u64(pool.size());
        for (const auto p : pool)
            w.u32(p);
    }
    w.u64(0);  // renames
    w.u64(0);  // recycles
    return w.take();
}

/** Restore hand-written bytes into a 2-logical, 6-physical,
 *  2-group table. */
void
restoreTable(const Names &chains, const Names &pools,
             std::uint64_t cursor = 0)
{
    RenamingTable rt(2, 6, 2);
    const auto bytes = tableBytes(chains, pools, cursor);
    ser::Reader r(bytes);
    rt.load(r);
    r.done();
}

} // namespace

TEST(Renaming, FirstArrivalAllocatesOnePhysQueue)
{
    RenamingTable rt(2, 8, 4);
    EXPECT_TRUE(rt.canAssign(0, unbounded()));
    const auto p = rt.assignArrival(0, unbounded());
    EXPECT_LT(p, 8u);
    EXPECT_EQ(rt.chainLength(0), 1u);
    EXPECT_EQ(rt.tailPhys(0), p);
    EXPECT_EQ(rt.freePhysCount(), 7u);
    // Subsequent arrivals stay on the same physical queue.
    EXPECT_EQ(rt.assignArrival(0, unbounded()), p);
    EXPECT_EQ(rt.chainLength(0), 1u);
}

TEST(Renaming, FullGroupForcesCrossGroupSpill)
{
    RenamingTable rt(1, 8, 4);
    const auto p0 = rt.assignArrival(0, unbounded());
    const auto g0 = rt.groupOf(p0);
    // Now report the tail's group as full: next arrival must land
    // on a different group.
    auto g_free = [&](unsigned g) -> std::uint64_t {
        return g == g0 ? 0 : 1000;
    };
    const auto p1 = rt.assignArrival(0, g_free);
    EXPECT_NE(rt.groupOf(p1), g0);
    EXPECT_EQ(rt.chainLength(0), 2u);
    EXPECT_EQ(rt.renames(), 1u);
}

TEST(Renaming, AllocationBalancesTowardEmptiestGroup)
{
    RenamingTable rt(4, 16, 4);
    std::map<unsigned, std::uint64_t> free_cells{
        {0, 10}, {1, 500}, {2, 50}, {3, 40}};
    auto g_free = [&](unsigned g) { return free_cells[g]; };
    const auto p = rt.assignArrival(0, g_free);
    EXPECT_EQ(rt.groupOf(p), 1u);
}

TEST(Renaming, AllocationAvoidsGroupsServingActiveChains)
{
    // A DRAM bank group sustains ~1 cell/slot of combined read+write
    // bandwidth, so free SPACE alone is the wrong placement signal: a
    // group draining a hot head has plenty of space precisely because
    // it is saturated with reads.  The allocator must weight groups by
    // the head/tail elements they already serve and steer new tails
    // elsewhere, even when the busy group has the most free cells.
    RenamingTable rt(4, 16, 4);
    const auto p0 = rt.assignArrival(0, unbounded());
    const auto g0 = rt.groupOf(p0);
    // g0 now serves q0's head AND tail (single-element chain) -- give
    // it the most free space and still expect a different group.
    auto g_free = [&](unsigned g) -> std::uint64_t {
        return g == g0 ? 1000 : 500;
    };
    const auto p1 = rt.assignArrival(1, g_free);
    EXPECT_NE(rt.groupOf(p1), g0);
    // With every OTHER group equally loaded, a third queue also
    // avoids both busy groups.
    const auto p2 = rt.assignArrival(2, g_free);
    EXPECT_NE(rt.groupOf(p2), g0);
    EXPECT_NE(rt.groupOf(p2), rt.groupOf(p1));
}

TEST(Renaming, TranslationFollowsFifoAcrossChain)
{
    RenamingTable rt(1, 8, 2);
    // 3 cells on phys A, then the group "fills", 2 cells on phys B.
    const auto pa = rt.assignArrival(0, unbounded());
    rt.assignArrival(0, unbounded());
    rt.assignArrival(0, unbounded());
    auto full = [&](unsigned g) -> std::uint64_t {
        return g == rt.groupOf(pa) ? 0 : 1000;
    };
    const auto pb = rt.assignArrival(0, full);
    rt.assignArrival(0, full);
    ASSERT_NE(pa, pb);
    // Requests 1-3 drain phys A, 4-5 drain phys B.
    EXPECT_EQ(rt.translateRequest(0), pa);
    EXPECT_EQ(rt.translateRequest(0), pa);
    EXPECT_EQ(rt.translateRequest(0), pa);
    EXPECT_EQ(rt.translateRequest(0), pb);
    EXPECT_EQ(rt.translateRequest(0), pb);
}

TEST(Renaming, RetireAndRecycleAfterFullDrain)
{
    RenamingTable rt(1, 4, 2);
    const auto pa = rt.assignArrival(0, unbounded());
    rt.assignArrival(0, unbounded());
    auto full = [&](unsigned g) -> std::uint64_t {
        return g == rt.groupOf(pa) ? 0 : 1000;
    };
    rt.assignArrival(0, full); // phys B allocated
    rt.translateRequest(0);
    rt.translateRequest(0);
    // First grant: element A not yet fully granted.
    EXPECT_TRUE(grant(rt, 0).empty());
    // Second grant drains A completely; A retires.
    const auto rec = grant(rt, 0);
    ASSERT_EQ(rec.size(), 1u);
    EXPECT_EQ(rec[0], pa);
    EXPECT_EQ(rt.chainLength(0), 1u);
    EXPECT_EQ(rt.recycles(), 1u);
    // The recycled name is available again.
    EXPECT_EQ(rt.freePhysCount(), 3u);
}

TEST(Renaming, TailElementNeverRetiresEarly)
{
    RenamingTable rt(1, 4, 2);
    rt.assignArrival(0, unbounded());
    rt.translateRequest(0);
    // Fully requested and granted, but it is the tail: more
    // arrivals may come, so it must stay.
    EXPECT_TRUE(grant(rt, 0).empty());
    EXPECT_EQ(rt.chainLength(0), 1u);
}

TEST(Renaming, RequestBeyondArrivalsPanics)
{
    RenamingTable rt(1, 2, 1);
    rt.assignArrival(0, unbounded());
    rt.translateRequest(0);
    EXPECT_THROW(rt.translateRequest(0), PanicError);
}

TEST(Renaming, ExhaustionRefusesAdmission)
{
    // 2 logical queues, 2 physical queues, 2 groups: once both
    // names are taken and the tails' groups are full, admission
    // must fail rather than corrupt state.
    RenamingTable rt(2, 2, 2);
    const auto p0 = rt.assignArrival(0, unbounded());
    const auto p1 = rt.assignArrival(1, unbounded());
    auto all_full = [&](unsigned) -> std::uint64_t { return 0; };
    EXPECT_FALSE(rt.canAssign(0, all_full));
    (void)p0;
    (void)p1;
}

TEST(Renaming, OversubscriptionRequired)
{
    EXPECT_THROW(RenamingTable(8, 4, 2), FatalError);
    EXPECT_NO_THROW(RenamingTable(4, 8, 2));
}

TEST(Renaming, IndependentLogicalQueues)
{
    RenamingTable rt(3, 12, 4);
    const auto a = rt.assignArrival(0, unbounded());
    const auto b = rt.assignArrival(1, unbounded());
    const auto c = rt.assignArrival(2, unbounded());
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
    EXPECT_NE(a, c);
    EXPECT_EQ(rt.translateRequest(1), b);
}

TEST(Renaming, RestoreRoundTripsAndAcceptsConsistentNames)
{
    RenamingTable rt(2, 6, 2);
    rt.assignArrival(0, unbounded());
    rt.assignArrival(1, unbounded());
    ser::Writer w;
    rt.save(w);
    RenamingTable back(2, 6, 2);
    ser::Reader r(w.bytes());
    back.load(r);
    r.done();
    ser::Writer again;
    back.save(again);
    EXPECT_EQ(again.bytes(), w.bytes());

    EXPECT_NO_THROW(restoreTable({{0}, {1}}, {{2, 4}, {3, 5}}));
}

TEST(Renaming, RestoreRejectsInconsistentPhysicalNames)
{
    // The buffer indexes per-queue state by these names, so a
    // corrupt one must fail the restore rather than the run.
    EXPECT_THROW(restoreTable({{100000}, {1}}, {{2, 4}, {3, 5}}),
                 FatalError);
    EXPECT_THROW(restoreTable({{6}, {1}}, {{2, 4}, {3, 5}}),
                 FatalError);
    EXPECT_THROW(restoreTable({{0}, {1}}, {{2, 100000}, {3, 5}}),
                 FatalError);
    // 3 belongs to group 1, not to group 0's pool.
    EXPECT_THROW(restoreTable({{0}, {1}}, {{2, 3}, {4, 5}}),
                 FatalError);
    // A name in two chains, in a chain and a pool, or twice in one
    // pool.
    EXPECT_THROW(restoreTable({{0}, {0}}, {{2, 4}, {3, 5}}),
                 FatalError);
    EXPECT_THROW(restoreTable({{0}, {1}}, {{0, 2}, {3, 5}}),
                 FatalError);
    EXPECT_THROW(restoreTable({{0}, {1}}, {{2, 2}, {3, 5}}),
                 FatalError);
    // A request cursor past the end of its chain.
    EXPECT_THROW(restoreTable({{0}, {1}}, {{2, 4}, {3, 5}}, 1),
                 FatalError);
}
