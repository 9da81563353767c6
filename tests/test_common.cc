/**
 * @file
 * Unit tests for the common substrate: types, logging, RNG,
 * statistics, shift register, key window.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>

#include "common/key_window.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/ring.hh"
#include "common/shift_register.hh"
#include "common/stats.hh"
#include "common/types.hh"

using namespace pktbuf;

TEST(Types, SlotTimes)
{
    EXPECT_DOUBLE_EQ(slotTimeNs(LineRate::OC3072), 3.2);
    EXPECT_DOUBLE_EQ(slotTimeNs(LineRate::OC768), 12.8);
    EXPECT_DOUBLE_EQ(slotTimeNs(LineRate::OC192), 51.2);
}

TEST(Types, LineRateNames)
{
    EXPECT_EQ(toString(LineRate::OC3072), "OC-3072");
    EXPECT_EQ(toString(LineRate::OC768), "OC-768");
}

TEST(Types, CellStampDetectsIdentity)
{
    Cell a{1, 5, 0};
    Cell b{1, 5, 99}; // arrival slot does not affect identity
    Cell c{2, 5, 0};
    Cell d{1, 6, 0};
    EXPECT_EQ(a.stamp(), b.stamp());
    EXPECT_NE(a.stamp(), c.stamp());
    EXPECT_NE(a.stamp(), d.stamp());
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom ", 42), PanicError);
    EXPECT_THROW(fatal("bad config"), FatalError);
    try {
        panic("value=", 7);
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("value=7"),
                  std::string::npos);
    }
}

TEST(Logging, PanicIfConditions)
{
    EXPECT_NO_THROW(panic_if(false, "never"));
    EXPECT_THROW(panic_if(true, "always"), PanicError);
    EXPECT_NO_THROW(fatal_if(false, "never"));
    EXPECT_THROW(fatal_if(true, "always"), FatalError);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform)
{
    Rng r(7);
    std::vector<int> hist(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const auto v = r.below(10);
        ASSERT_LT(v, 10u);
        ++hist[static_cast<int>(v)];
    }
    for (const int h : hist) {
        EXPECT_GT(h, n / 10 - n / 50);
        EXPECT_LT(h, n / 10 + n / 50);
    }
}

TEST(Rng, BetweenInclusive)
{
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.between(3, 5));
    EXPECT_EQ(seen.size(), 3u);
    EXPECT_TRUE(seen.count(3) && seen.count(4) && seen.count(5));
}

TEST(Rng, ChanceExtremes)
{
    Rng r(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Stats, CounterAndSampler)
{
    Counter c;
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);

    Sampler s;
    EXPECT_EQ(s.mean(), 0.0);
    s.sample(1.0);
    s.sample(3.0);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
    EXPECT_EQ(s.count(), 2u);
}

TEST(Stats, HighWaterTracksMaximum)
{
    HighWater h;
    h.observe(3);
    h.observe(1);
    h.observe(7);
    h.observe(2);
    EXPECT_EQ(h.max(), 7);
}

TEST(ShiftRegister, FifoWithExactDepth)
{
    ShiftRegister<int> sr(3, -1);
    EXPECT_EQ(sr.shift(1), -1);
    EXPECT_EQ(sr.shift(2), -1);
    EXPECT_EQ(sr.shift(3), -1);
    EXPECT_EQ(sr.shift(4), 1);
    EXPECT_EQ(sr.shift(5), 2);
}

TEST(ShiftRegister, PeekSeesInOrder)
{
    ShiftRegister<int> sr(4, 0);
    sr.shift(10);
    sr.shift(20);
    // peek(0) is the value emerging next.
    EXPECT_EQ(sr.peek(0), 0);
    EXPECT_EQ(sr.peek(2), 10);
    EXPECT_EQ(sr.peek(3), 20);
}

TEST(ShiftRegister, OccupancyAndClear)
{
    ShiftRegister<int> sr(4, 0);
    sr.shift(1);
    sr.shift(2);
    EXPECT_EQ(sr.occupancy(), 2u);
    sr.clear();
    EXPECT_EQ(sr.occupancy(), 0u);
}

TEST(ShiftRegister, DepthOneIsOneSlotDelay)
{
    ShiftRegister<int> sr(1, -1);
    EXPECT_EQ(sr.shift(5), -1);
    EXPECT_EQ(sr.shift(6), 5);
}

TEST(ShiftRegister, PeekBeyondDepthPanics)
{
    ShiftRegister<int> sr(2, 0);
    EXPECT_THROW(sr.peek(2), PanicError);
}

TEST(KeyWindow, EmptyUntilFirstInsert)
{
    KeyWindow<int> w;
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(w.find(0), nullptr);
    EXPECT_EQ(w.find(UINT64_MAX), nullptr);
    w.insert(UINT64_MAX - 1, 7);
    EXPECT_EQ(*w.find(UINT64_MAX - 1), 7);
    EXPECT_EQ(w.find(UINT64_MAX), nullptr);
    EXPECT_EQ(w.take(UINT64_MAX - 1), 7);
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(w.span(), 0u);
}

TEST(KeyWindow, TrimsBothEndsAndGrowsBelowBase)
{
    KeyWindow<int> w;
    for (int k = 10; k < 14; ++k)
        w.insert(static_cast<std::uint64_t>(k), k);
    w.take(11);  // a hole
    EXPECT_EQ(w.span(), 4u);
    w.take(10);  // the front goes, and the hole behind it
    EXPECT_EQ(w.base(), 12u);
    EXPECT_EQ(w.span(), 2u);
    w.take(13);
    EXPECT_EQ(w.span(), 1u);
    w.insert(3, 3);  // far below the base
    EXPECT_EQ(w.base(), 3u);
    EXPECT_EQ(w.span(), 10u);
    std::vector<std::uint64_t> keys;
    w.forEach([&](std::uint64_t k, int v) {
        EXPECT_EQ(static_cast<std::uint64_t>(v), k);
        keys.push_back(k);
    });
    EXPECT_EQ(keys, (std::vector<std::uint64_t>{3, 12}));
    EXPECT_EQ(w.pushBack(13), 13);
    EXPECT_EQ(*w.find(13), 13);
}

TEST(KeyWindow, RestoreRejectsDisorderAndWideGaps)
{
    KeyWindow<int> w;
    w.restore(5, 5, 3, "test key");
    EXPECT_THROW(w.restore(5, 5, 3, "test key"), FatalError);
    EXPECT_THROW(w.restore(4, 4, 3, "test key"), FatalError);
    EXPECT_THROW(
        w.restore(5 + 3 + KeyWindow<int>::kRestoreHoles, 0, 3, "test key"),
        FatalError);
    EXPECT_NO_THROW(w.restore(9, 9, 3, "test key"));
    EXPECT_EQ(w.size(), 2u);

    KeyWindow<int> top;  // the last key of the u64 range
    top.restore(UINT64_MAX, 1, 2, "test key");
    EXPECT_THROW(top.restore(UINT64_MAX, 2, 2, "test key"), FatalError);
}

TEST(KeyWindow, RandomOperationsMatchAnOrderedMap)
{
    // Keys drift upward around a moving front, like block ordinals;
    // inserts land below, inside and above the live span.
    KeyWindow<std::uint64_t> w;
    std::map<std::uint64_t, std::uint64_t> ref;
    Rng rng(99);
    std::uint64_t front = 1000;
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t key = front - 20 + rng.below(60);
        if (rng.chance(0.5) && !ref.count(key)) {
            w.insert(key, key * 3);
            ref.emplace(key, key * 3);
        } else if (ref.count(key)) {
            ASSERT_EQ(w.take(key), ref[key]);
            ref.erase(key);
        }
        if (rng.chance(0.05))
            front += rng.below(8);
        ASSERT_EQ(w.size(), ref.size());
        ASSERT_EQ(w.contains(key), ref.count(key) != 0);
        if (!ref.empty()) {
            ASSERT_EQ(w.base(), ref.begin()->first);
            ASSERT_EQ(w.base() + w.span() - 1, ref.rbegin()->first);
        }
    }
    auto it = ref.begin();
    w.forEach([&](std::uint64_t k, std::uint64_t v) {
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(k, it->first);
        EXPECT_EQ(v, it->second);
        ++it;
    });
    EXPECT_EQ(it, ref.end());
}

TEST(Ring, RandomOperationsMatchADeque)
{
    // Pushes and pops wrap the ring and grow it past a wrapped front;
    // resize truncates or appends as a restore does.
    Ring<std::uint64_t> r;
    std::deque<std::uint64_t> ref;
    Rng rng(7);
    for (std::uint64_t step = 0; step < 20000; ++step) {
        if (rng.chance(0.01)) {
            const std::size_t n = rng.below(40);
            r.resize(n);
            ref.resize(n);
            for (std::size_t i = 0; i < n; ++i)
                r[i] = ref[i] = step + i;
        } else if (ref.empty() || rng.chance(0.55)) {
            r.pushBack(step);
            ref.push_back(step);
        } else {
            ASSERT_EQ(r.front(), ref.front());
            r.popFront();
            ref.pop_front();
        }
        ASSERT_EQ(r.size(), ref.size());
        ASSERT_EQ(r.empty(), ref.empty());
        if (!ref.empty()) {
            ASSERT_EQ(r.back(), ref.back());
        }
    }
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(r[i], ref[i]);
}
