/**
 * @file
 * Unit tests of the DRAM Scheduler Subsystem: RR age order, skip
 * accounting (Eq. 2's measured counterpart), per-queue write order,
 * cancellation, ORR locking, and the full DSA conflict-freedom loop
 * against a bank-state oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "dram/address_map.hh"
#include "dram/bank_state.hh"
#include "dram/timing.hh"
#include "dss/dram_scheduler.hh"

using namespace pktbuf;
using namespace pktbuf::dss;

namespace
{

DramRequest
makeRead(QueueId q, std::uint64_t ord, unsigned bank, Slot issued = 0)
{
    DramRequest r;
    r.kind = DramRequest::Kind::Read;
    r.physQueue = q;
    r.blockOrdinal = ord;
    r.bank = bank;
    r.issued = issued;
    return r;
}

DramRequest
makeWrite(QueueId q, std::uint64_t ord, unsigned bank, Slot issued = 0)
{
    auto r = makeRead(q, ord, bank, issued);
    r.kind = DramRequest::Kind::Write;
    return r;
}

/** RR probe blocking (as bank-busy) exactly the banks `locked`
 *  names. */
template <typename LockedFn>
auto
busyBanks(LockedFn locked)
{
    return [locked](const DramRequest &r)
               -> std::optional<dram::StallCause> {
        if (locked(r.bank))
            return dram::StallCause::BankBusy;
        return std::nullopt;
    };
}

const auto kNoneBusy = busyBanks([](unsigned) { return false; });

} // namespace

TEST(RequestRegister, OldestReadyFirst)
{
    RequestRegister rr(8);
    rr.push(makeRead(0, 0, 5));
    rr.push(makeRead(1, 0, 6));
    rr.push(makeRead(2, 0, 7));
    auto sel = rr.selectOldestReady(kNoneBusy);
    ASSERT_TRUE(sel);
    EXPECT_EQ(sel->physQueue, 0u);
    EXPECT_EQ(rr.size(), 2u);
}

TEST(RequestRegister, SkipsLockedBanksAndCountsSkips)
{
    RequestRegister rr(8);
    rr.push(makeRead(0, 0, 5));
    rr.push(makeRead(1, 0, 6));
    auto sel = rr.selectOldestReady(
        busyBanks([](unsigned bank) { return bank == 5; }));
    ASSERT_TRUE(sel);
    EXPECT_EQ(sel->physQueue, 1u);
    EXPECT_EQ(rr.maxSkips(), 1);
    // The skipped entry keeps its age: next call picks it.
    sel = rr.selectOldestReady(kNoneBusy);
    ASSERT_TRUE(sel);
    EXPECT_EQ(sel->physQueue, 0u);
}

TEST(RequestRegister, AllLockedReturnsNothing)
{
    RequestRegister rr(4);
    rr.push(makeRead(0, 0, 1));
    rr.push(makeRead(1, 0, 2));
    EXPECT_FALSE(rr.selectOldestReady(
        busyBanks([](unsigned) { return true; })));
    EXPECT_EQ(rr.size(), 2u);
}

TEST(RequestRegister, CapacityOverflowPanics)
{
    RequestRegister rr(2);
    rr.push(makeRead(0, 0, 0));
    rr.push(makeRead(1, 0, 1));
    EXPECT_THROW(rr.push(makeRead(2, 0, 2)), PanicError);
}

TEST(RequestRegister, UnboundedWhenCapacityZero)
{
    RequestRegister rr(0);
    for (unsigned i = 0; i < 100; ++i)
        rr.push(makeRead(i, 0, i % 7));
    EXPECT_EQ(rr.size(), 100u);
    EXPECT_EQ(rr.highWater(), 100);
}

TEST(RequestRegister, PerQueueOrderEnforcedForWrites)
{
    RequestRegister rr(8, /*in_order_per_queue=*/true);
    rr.push(makeWrite(3, 0, 1)); // bank 1 locked
    rr.push(makeWrite(3, 1, 2)); // same queue, free bank
    rr.push(makeWrite(4, 0, 3)); // other queue, free bank
    auto sel = rr.selectOldestReady(
        busyBanks([](unsigned bank) { return bank == 1; }));
    // Queue 3's younger write must NOT overtake its older one, but
    // queue 4 may proceed.
    ASSERT_TRUE(sel);
    EXPECT_EQ(sel->physQueue, 4u);
}

TEST(RequestRegister, CancelRemovesOldestMatch)
{
    RequestRegister rr(8);
    rr.push(makeWrite(5, 0, 1));
    rr.push(makeWrite(6, 0, 2));
    rr.push(makeWrite(5, 1, 3));
    auto c = rr.cancel([](const DramRequest &r) {
        return r.physQueue == 5;
    });
    ASSERT_TRUE(c);
    EXPECT_EQ(c->blockOrdinal, 0u);
    EXPECT_EQ(rr.size(), 2u);
    c = rr.cancel([](const DramRequest &r) {
        return r.physQueue == 5;
    });
    ASSERT_TRUE(c);
    EXPECT_EQ(c->blockOrdinal, 1u);
    EXPECT_FALSE(rr.cancel([](const DramRequest &r) {
        return r.physQueue == 5;
    }));
}

TEST(OngoingRequests, LockWindowMatchesAccessTime)
{
    OngoingRequests orr(8);
    orr.add(3, 10);
    EXPECT_TRUE(orr.locked(3, 10));
    EXPECT_TRUE(orr.locked(3, 17));
    EXPECT_FALSE(orr.locked(3, 18));
    EXPECT_FALSE(orr.locked(4, 12));
}

TEST(OngoingRequests, DoubleLockPanics)
{
    OngoingRequests orr(8);
    orr.add(1, 0);
    EXPECT_THROW(orr.add(1, 4), PanicError);
    EXPECT_NO_THROW(orr.add(1, 8));
}

TEST(OngoingRequests, SizeTracksInFlight)
{
    OngoingRequests orr(4);
    orr.add(0, 0);
    orr.add(1, 1);
    orr.add(2, 2);
    EXPECT_EQ(orr.size(2), 3u);
    EXPECT_EQ(orr.size(4), 2u); // bank 0 done at slot 4
    EXPECT_EQ(orr.highWater(), 3);
}

TEST(DramScheduler, LaunchLocksBank)
{
    OngoingRequests orr(8);
    DramScheduler sched(16, orr);
    sched.push(makeRead(0, 0, 3, 0));
    sched.push(makeRead(1, 0, 3, 0)); // same bank
    auto first = sched.tryLaunch(0);
    ASSERT_TRUE(first);
    EXPECT_EQ(first->physQueue, 0u);
    // Second request to the same bank must wait out the access.
    EXPECT_FALSE(sched.tryLaunch(2));
    EXPECT_EQ(sched.stalls(), 1u);
    auto second = sched.tryLaunch(8);
    ASSERT_TRUE(second);
    EXPECT_EQ(second->physQueue, 1u);
    EXPECT_EQ(sched.launches(), 2u);
}

TEST(DramScheduler, QueueDelayStatistics)
{
    OngoingRequests orr(4);
    DramScheduler sched(16, orr);
    sched.push(makeRead(0, 0, 0, 0));
    sched.tryLaunch(6);
    EXPECT_DOUBLE_EQ(sched.queueDelay().mean(), 6.0);
}

TEST(OngoingRequests, LockExpiryBoundaryIsExclusive)
{
    // The lock window is [now, now + t_RC): an entry with
    // until <= now is pruned, so the bank frees on exactly the slot
    // the access completes, never one early or late.
    OngoingRequests orr(8);
    orr.add(5, 100);
    EXPECT_EQ(orr.size(100), 1u);
    EXPECT_TRUE(orr.locked(5, 107));   // until = 108 > 107
    EXPECT_EQ(orr.size(107), 1u);
    EXPECT_FALSE(orr.locked(5, 108));  // until = 108 <= 108
    EXPECT_EQ(orr.size(108), 0u);
}

TEST(OngoingRequests, SharedBetweenReadAndWriteSchedulers)
{
    // The read path and the write path each own a scheduler; a bank
    // is locked no matter which direction locked it, because both
    // share one ORR.
    OngoingRequests orr(8);
    DramScheduler reads(16, orr);
    DramScheduler writes(16, orr, /*in_order_per_queue=*/true);

    writes.push(makeWrite(0, 0, 3, 0));
    reads.push(makeRead(1, 0, 3, 0));  // same bank as the write
    ASSERT_TRUE(writes.tryLaunch(0));
    // The write's lock must stall the *read* scheduler too.
    EXPECT_FALSE(reads.tryLaunch(2));
    EXPECT_EQ(reads.stalls(), 1u);
    EXPECT_EQ(reads.stallsFor(dram::StallCause::BankBusy), 1u);
    // ...until the write's access time elapses.
    auto r = reads.tryLaunch(8);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->physQueue, 1u);
    // And the read's fresh lock now stalls the write scheduler.
    writes.push(makeWrite(2, 0, 3, 8));
    EXPECT_FALSE(writes.tryLaunch(10));
    EXPECT_EQ(writes.stallsFor(dram::StallCause::BankBusy), 1u);
    EXPECT_EQ(orr.highWater(), 1);
}

namespace
{

std::shared_ptr<const pktbuf::dram::DramTiming>
makeTiming(const pktbuf::dram::TimingConfig &cfg, unsigned banks,
           unsigned banks_per_group, pktbuf::Slot base)
{
    return std::make_shared<const pktbuf::dram::DramTiming>(
        cfg, banks, banks_per_group, base);
}

} // namespace

TEST(DramScheduler, RefreshStallsAreAccountedByCause)
{
    // Banks 0-1 are blacked out during [0, 8) of every 64-slot
    // refresh interval (window 2, rotating).
    dram::TimingConfig cfg;
    cfg.tRefi = 64;
    cfg.tRfc = 8;
    cfg.refreshBanks = 2;
    OngoingRequests orr(makeTiming(cfg, 4, 2, 8));
    StatRegistry stats;
    DramScheduler sched(16, orr, false, &stats);

    sched.push(makeRead(0, 0, /*bank=*/0, 0));
    EXPECT_FALSE(sched.tryLaunch(0));  // bank 0 refreshing
    EXPECT_EQ(sched.stallsFor(dram::StallCause::Refresh), 1u);
    EXPECT_EQ(sched.stallsFor(dram::StallCause::BankBusy), 0u);
    EXPECT_EQ(stats.counterValue("dsa.stall.refresh"), 1u);
    // A request to a bank outside the window launches immediately.
    sched.push(makeRead(1, 0, /*bank=*/2, 0));
    auto r = sched.tryLaunch(0);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->bank, 2u);
    // Once the blackout ends, the deferred request goes out.
    r = sched.tryLaunch(8);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->bank, 0u);
}

TEST(DramScheduler, TurnaroundStallsAreAccountedByCause)
{
    dram::TimingConfig cfg;
    cfg.turnaround = 4;
    OngoingRequests orr(makeTiming(cfg, 4, 2, 8));
    StatRegistry stats;
    DramScheduler sched(16, orr, false, &stats);

    sched.push(makeRead(0, 0, 0, 0));
    sched.push(makeWrite(1, 0, 1, 0));
    ASSERT_TRUE(sched.tryLaunch(0));  // read launches
    // The write must wait out the bus turnaround, not a bank lock.
    EXPECT_FALSE(sched.tryLaunch(2));
    EXPECT_EQ(sched.stallsFor(dram::StallCause::Turnaround), 1u);
    EXPECT_EQ(sched.stallsFor(dram::StallCause::BankBusy), 0u);
    EXPECT_EQ(stats.counterValue("dsa.stall.turnaround"), 1u);
    auto w = sched.tryLaunch(4);
    ASSERT_TRUE(w);
    EXPECT_EQ(w->kind, DramRequest::Kind::Write);
}

TEST(DramScheduler, PerGroupTrcExtendsTheLockWindow)
{
    // Group 0 (banks 0-1) runs at t_RC 8, group 1 (banks 2-3) at 16.
    dram::TimingConfig cfg;
    cfg.groupTRc = {8, 16};
    OngoingRequests orr(makeTiming(cfg, 4, 2, 8));
    DramScheduler sched(16, orr);

    ASSERT_TRUE((sched.push(makeRead(0, 0, 0, 0)),
                 sched.tryLaunch(0)));
    ASSERT_TRUE((sched.push(makeRead(1, 0, 2, 0)),
                 sched.tryLaunch(0)));
    // Fast bank frees at 8; slow bank stays locked until 16 -- and
    // the ORR prunes the fast entry even though the slow one is
    // older in the table.
    sched.push(makeRead(0, 1, 0, 8));
    sched.push(makeRead(1, 1, 2, 8));
    auto r = sched.tryLaunch(8);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->bank, 0u);
    EXPECT_FALSE(sched.tryLaunch(10));  // bank 2 still busy
    EXPECT_EQ(sched.stallsFor(dram::StallCause::BankBusy), 1u);
    ASSERT_TRUE(sched.tryLaunch(16));
}

TEST(DramScheduler, RandomizedConflictFreedomAgainstOracle)
{
    // Property: whatever request stream arrives, every launch the
    // DSA makes is conflict-free per the BankState oracle, and
    // block-cyclic requests of one queue never stall the scheduler
    // for more than B/b consecutive opportunities.
    const unsigned banks = 16, bpg = 4, B = 8, b = 2;
    dram::AddressMap map(banks, bpg);
    dram::BankState oracle(banks, B);
    OngoingRequests orr(B);
    DramScheduler sched(0, orr);
    Rng rng(77);
    std::vector<std::uint64_t> ord(8, 0);

    Slot now = 0;
    for (int step = 0; step < 4000; ++step) {
        now += b;
        if (rng.chance(0.8)) {
            const QueueId q = static_cast<QueueId>(rng.below(8));
            sched.push(makeRead(q, ord[q], map.bankOf(q, ord[q]), now));
            ++ord[q];
        }
        if (auto r = sched.tryLaunch(now)) {
            // Panics on conflict; the test fails via the exception.
            oracle.startAccess(r->bank, now);
        }
    }
    EXPECT_GT(sched.launches(), 1000u);
}

TEST(OngoingRequests, FastBankExpiresBehindSlowOne)
{
    // Banks 0-1 take 11 slots, banks 2-3 take 3.
    dram::TimingConfig cfg;
    cfg.groupTRc = {11, 3};
    OngoingRequests orr(makeTiming(cfg, 4, 2, 8));
    orr.add(0, 0);
    orr.add(2, 1);
    EXPECT_EQ(orr.size(3), 2u);
    EXPECT_EQ(orr.size(4), 1u);  // bank 2 expired behind bank 0
    EXPECT_FALSE(orr.locked(2, 4));
    EXPECT_TRUE(orr.locked(0, 4));
    EXPECT_NO_THROW(orr.add(2, 4));
    EXPECT_THROW(orr.add(0, 10), PanicError);
    EXPECT_NO_THROW(orr.add(0, 11));
    EXPECT_EQ(orr.size(11), 1u);  // bank 2 (locked at 4) expired at 7
    EXPECT_EQ(orr.highWater(), 2);
}

TEST(OngoingRequests, RandomizedPerGroupTrcMatchesBruteForce)
{
    // Launches to random free banks at random (sometimes repeated)
    // slots; after every call the lock table must agree with a scan
    // of the live (bank, until) pairs, and its checkpoint must round
    // trip to a table that keeps agreeing.
    const unsigned banks = 8, bpg = 2;
    dram::TimingConfig cfg;
    cfg.groupTRc = {13, 2, 7, 4};
    const auto timing = makeTiming(cfg, banks, bpg, 8);
    OngoingRequests orr(timing);
    std::vector<std::pair<unsigned, Slot>> live;
    std::size_t high_water = 0;
    Rng rng(2024);

    const auto busy = [&](unsigned bank, Slot now) {
        for (const auto &[b, until] : live)
            if (b == bank && until > now)
                return true;
        return false;
    };
    const auto live_at = [&](Slot now) {
        std::size_t n = 0;
        for (const auto &e : live)
            n += e.second > now;
        return n;
    };

    Slot now = 0;
    for (int step = 0; step < 5000; ++step) {
        now += rng.below(3);  // 0: several calls within one slot
        for (unsigned bank = 0; bank < banks; ++bank) {
            const auto cause =
                orr.blockedCause(bank, dram::AccessKind::Read, now);
            ASSERT_EQ(cause.has_value(), busy(bank, now))
                << "bank " << bank << " at slot " << now;
            if (cause) {
                EXPECT_EQ(*cause, dram::StallCause::BankBusy);
            }
        }
        ASSERT_EQ(orr.size(now), live_at(now)) << "slot " << now;
        const auto bank = static_cast<unsigned>(rng.below(banks));
        if (!busy(bank, now) && rng.chance(0.6)) {
            orr.add(bank, now,
                    rng.chance(0.5) ? dram::AccessKind::Read
                                    : dram::AccessKind::Write);
            live.emplace_back(bank, now + timing->accessSlots(bank));
            high_water = std::max(high_water, live_at(now));
        } else if (busy(bank, now)) {
            EXPECT_THROW(orr.add(bank, now), PanicError);
        }
        if (step % 500 == 499) {
            ser::Writer w;
            orr.save(w);
            OngoingRequests restored(timing);
            ser::Reader r(w.bytes());
            restored.load(r);
            ser::Writer again;
            restored.save(again);
            ASSERT_EQ(w.bytes(), again.bytes());
            orr = std::move(restored);
        }
    }
    EXPECT_EQ(orr.highWater(), static_cast<std::int64_t>(high_water));
    EXPECT_GE(high_water, 3u);
}
