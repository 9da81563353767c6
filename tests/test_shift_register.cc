/**
 * @file
 * Direct unit tests for src/common/shift_register.hh beyond the
 * basics covered in test_common: construction guards, the
 * forEachFromHead fast-path traversal (the per-slot ECQF scan), the
 * head pointer after clear(), and long-run wraparound.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/shift_register.hh"

using namespace pktbuf;

namespace
{

TEST(ShiftRegisterGuards, DepthZeroPanics)
{
    EXPECT_THROW(ShiftRegister<int>(0, -1), PanicError);
}

TEST(ShiftRegisterGuards, DepthIsFixedAtConstruction)
{
    ShiftRegister<int> sr(5, 0);
    EXPECT_EQ(sr.depth(), 5u);
    for (int i = 0; i < 100; ++i)
        sr.shift(i);
    EXPECT_EQ(sr.depth(), 5u);
}

TEST(ShiftRegisterTraversal, ForEachFromHeadVisitsInEmergenceOrder)
{
    ShiftRegister<int> sr(4, 0);
    sr.shift(1);
    sr.shift(2);
    // Stages now: [idle, idle, 1, 2] in emergence order; the visit
    // order must match what peek(0..depth-1) reports.
    std::vector<int> seen;
    sr.forEachFromHead([&seen](int v) { seen.push_back(v); });
    ASSERT_EQ(seen.size(), sr.depth());
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], sr.peek(i)) << "stage " << i;
    EXPECT_EQ(seen, (std::vector<int>{0, 0, 1, 2}));
}

TEST(ShiftRegisterTraversal, ForEachFromHeadAfterWraparound)
{
    // Push more than depth values so the internal head index wraps:
    // the two linear segments of the traversal must still splice
    // into one emergence-ordered pass.
    ShiftRegister<int> sr(3, -1);
    for (int i = 1; i <= 5; ++i)
        sr.shift(i);  // register now holds 3, 4, 5
    std::vector<int> seen;
    sr.forEachFromHead([&seen](int v) { seen.push_back(v); });
    EXPECT_EQ(seen, (std::vector<int>{3, 4, 5}));
    EXPECT_EQ(sr.occupancy(), 3u);
    EXPECT_EQ(sr.shift(-1), 3);
}

TEST(ShiftRegisterClear, ClearResetsContentsAndHead)
{
    ShiftRegister<int> sr(3, -1);
    sr.shift(1);
    sr.shift(2);
    sr.clear();
    EXPECT_EQ(sr.occupancy(), 0u);
    // After clear() the register must behave exactly like a fresh
    // one: `depth` shifts before the first value re-emerges.
    EXPECT_EQ(sr.shift(7), -1);
    EXPECT_EQ(sr.shift(8), -1);
    EXPECT_EQ(sr.shift(9), -1);
    EXPECT_EQ(sr.shift(-1), 7);
}

TEST(ShiftRegisterValues, NonTrivialElementType)
{
    // The MMA pipes carry struct entries; exercise a non-POD T.
    ShiftRegister<std::string> sr(2, "");
    EXPECT_EQ(sr.shift("a"), "");
    EXPECT_EQ(sr.shift("b"), "");
    EXPECT_EQ(sr.occupancy(), 2u);
    EXPECT_EQ(sr.shift(""), "a");
    EXPECT_EQ(sr.peek(0), "b");
    EXPECT_EQ(sr.occupancy(), 1u);
}

TEST(ShiftRegisterLongRun, MillionShiftsKeepFifoOrder)
{
    ShiftRegister<int> sr(7, -1);
    for (int i = 0; i < 1000000; ++i) {
        const int out = sr.shift(i);
        EXPECT_EQ(out, i < 7 ? -1 : i - 7);
    }
}

TEST(ShiftRegisterLeap, IdleShiftsCountsToTheOldestLiveEntry)
{
    ShiftRegister<int> sr(5, 0);
    EXPECT_EQ(sr.idleShifts(), UINT64_MAX);
    sr.shift(7);
    sr.shift(0);
    sr.shift(8);
    // Stages in emergence order: [0, 0, 7, 0, 8].
    EXPECT_EQ(sr.idleShifts(), 2u);
    sr.advance(2);
    EXPECT_EQ(sr.idleShifts(), 0u);
    EXPECT_EQ(sr.shift(0), 7);
    EXPECT_EQ(sr.idleShifts(), 1u);
    // A leap may not drop a live entry.
    EXPECT_THROW(sr.advance(2), PanicError);
    sr.advance(1);
    EXPECT_EQ(sr.shift(0), 8);
    EXPECT_EQ(sr.idleShifts(), UINT64_MAX);
    // An empty register leaps any distance.
    sr.advance(1000000);
    sr.shift(9);
    EXPECT_EQ(sr.idleShifts(), 4u);
}

TEST(ShiftRegisterLeap, AdvanceEqualsIdleShifts)
{
    // Leaping over the idle exits and shifting one at a time give
    // the same register, through many wraps of the storage and of
    // the exit ring (which grows past its first capacity of 8).
    ShiftRegister<int> leap(37, -1);
    ShiftRegister<int> walk(37, -1);
    std::uint64_t x = 1;
    for (int i = 0; i < 20000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const int in = (x >> 60) < 6 ? i : -1;
        ASSERT_EQ(leap.shift(in), walk.shift(in)) << "shift " << i;
        const std::uint64_t n =
            std::min<std::uint64_t>(leap.idleShifts(), (x >> 33) % 5);
        leap.advance(n);
        for (std::uint64_t k = 0; k < n; ++k)
            ASSERT_EQ(walk.shift(-1), -1);
        ASSERT_EQ(leap.idleShifts(), walk.idleShifts());
        ASSERT_EQ(leap.occupancy(), walk.occupancy());
    }
}

TEST(ShiftRegisterLeap, RestoreRebuildsTheExitRing)
{
    struct Entry
    {
        std::uint32_t v = 0;
        bool operator==(const Entry &o) const { return v == o.v; }
        void fields(ser::Io &io) { io.u32(v); }
    };
    ShiftRegister<Entry> a(6, Entry{});
    for (std::uint32_t v : {0u, 4u, 0u, 0u, 5u, 6u, 0u})
        a.shift(Entry{v});
    ser::Writer w;
    ser::save(w, a);
    ShiftRegister<Entry> b(6, Entry{});
    ser::Reader r(w.bytes());
    ser::load(r, b);
    EXPECT_EQ(b.idleShifts(), a.idleShifts());
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(b.idleShifts(), a.idleShifts()) << "shift " << i;
        EXPECT_EQ(b.shift(Entry{}).v, a.shift(Entry{}).v);
    }
    EXPECT_EQ(b.idleShifts(), UINT64_MAX);
}

} // namespace
