/**
 * @file
 * The buffer's per-slot path allocates nothing once it is warm.
 *
 * This executable replaces the global operator new/delete with
 * counting forwarders to malloc/free (so AddressSanitizer still sees
 * every block).  Each leg warms its buffer for 4,096 slots, then
 * counts the allocations made inside 65,536 more HybridBuffer::step
 * calls, which must be zero (see countStepAllocs for how container
 * growth is kept out of the count).  The workload that drives the
 * buffer runs outside the counted calls, except in
 * IdleLegThroughTheRunner, which counts a whole SimRunner::run, and
 * CrossbarWindows, which counts whole pipelined crossbar windows.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "buffer/hybrid_buffer.hh"
#include "crossbar/crossbar_sim.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/workload.hh"

namespace
{

/** Set while a counted call runs.  Atomic: the pool's workers step
 *  a crossbar's inputs, and allocate (or not), on their own threads. */
std::atomic<bool> g_counting = false;
std::atomic<std::size_t> g_allocs = 0;

void *
countedAlloc(std::size_t n)
{
    if (g_counting)
        ++g_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    if (g_counting)
        ++g_allocs;
    const auto a = static_cast<std::size_t>(al);
    // aligned_alloc wants a size that is a multiple of the alignment.
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace pktbuf;

namespace
{

constexpr std::uint64_t kWarmSlots = 4096;
constexpr std::uint64_t kCountedSlots = 65536;

struct Counted
{
    std::size_t allocs = 0;
    std::uint64_t grants = 0;
    std::uint64_t recycles = 0;  //!< renamed queues retired
};

/** Step the buffer `slots` times, counting step()'s allocations
 *  when `counted`; returns the grants. */
std::uint64_t
drive(sim::Workload &wl, buffer::HybridBuffer &buf, std::uint64_t slots,
      bool counted)
{
    const auto admit = [&buf](QueueId q) { return buf.wouldAdmit(q); };
    std::uint64_t grants = 0;
    for (std::uint64_t i = 0; i < slots; ++i) {
        const sim::Stimulus st = wl.step(buf.now(), admit);
        g_counting = counted;
        const auto g = buf.step(st.arrival, st.request);
        g_counting = false;
        grants += g ? 1 : 0;
    }
    return grants;
}

/**
 * Warm `s` up, then count the allocations of the counted window.
 *
 * A container grows (once, by doubling) whenever a queue, register
 * or the live block count reaches a new high-water mark, and a
 * random-walk backlog keeps setting new marks however long the
 * warm-up.  That growth is not per-slot work, so the window runs
 * twice from one checkpoint: the first pass grows every container to
 * the window's marks, and load() keeps their capacity and reuses the
 * block vectors it replaces.  The second, counted pass replays the
 * same slots, so any allocation in it is per-slot churn.
 */
Counted
countStepAllocs(const sim::Scenario &s)
{
    auto wl = sim::makeWorkload(s);
    buffer::HybridBuffer buf(s.bufferConfig());
    drive(*wl, buf, kWarmSlots, false);
    ser::Writer w;
    wl->save(w);
    buf.save(w);
    const std::string warm = w.bytes();
    drive(*wl, buf, kCountedSlots, false);
    ser::Reader r(warm);
    wl->load(r);
    buf.load(r);
    const auto recycles = [&buf] {
        return buf.renaming() ? buf.renaming()->recycles() : 0;
    };
    const std::uint64_t warm_recycles = recycles();
    Counted out;
    out.grants = drive(*wl, buf, kCountedSlots, true);
    out.allocs = g_allocs;
    out.recycles = recycles() - warm_recycles;
    g_allocs = 0;
    return out;
}

/** The leg-saturated buffer: Q=8, B=8, b=2, G=8, drained whole
 *  queues at load 1. */
sim::Scenario
saturatedLeg(bool event_engine)
{
    sim::Scenario s;
    s.variant = sim::BufferVariant::Cfds;
    s.workload = sim::WorkloadKind::DrainPermutation;
    s.queues = 8;
    s.granRads = 8;
    s.gran = 2;
    s.groups = 8;
    s.load = 1.0;
    s.seed = 1;
    s.slots = kWarmSlots + kCountedSlots;
    s.eventEngine = event_engine;
    return s;
}

Counted
expectAllocationFree(const sim::Scenario &s)
{
    SCOPED_TRACE(s.describe());
    const Counted c = countStepAllocs(s);
    // The legs must really serve cells in the counted window, or an
    // idle buffer would pass trivially.
    EXPECT_GT(c.grants, 0u);
    EXPECT_EQ(c.allocs, 0u)
        << c.allocs << " allocations in " << kCountedSlots
        << " warm step() calls ("
        << static_cast<double>(c.allocs) / kCountedSlots
        << " per slot)";
    return c;
}

} // namespace

TEST(AllocFree, CounterSeesAllocations)
{
    // The counter itself works.  An explicit call, unlike a
    // new-expression, cannot be elided by the optimizer.
    g_counting = true;
    ::operator delete(::operator new(16));
    g_counting = false;
    EXPECT_EQ(g_allocs.load(), 1u);
    g_allocs = 0;
}

TEST(AllocFree, SaturatedLegReferenceEngine)
{
    expectAllocationFree(saturatedLeg(false));
}

TEST(AllocFree, SaturatedLegEventEngine)
{
    expectAllocationFree(saturatedLeg(true));
}

TEST(AllocFree, IdleLeg)
{
    sim::Scenario s = saturatedLeg(true);
    s.workload = sim::WorkloadKind::Bernoulli;
    s.queues = 64;
    s.load = 0.05;
    expectAllocationFree(s);
}

TEST(AllocFree, IdleLegThroughTheRunner)
{
    // SimRunner::run pre-rolls the workload's idle slots and leaps the
    // buffer over the inert ones (runIdle); that path allocates
    // nothing either.  Same warm-up and replay as countStepAllocs,
    // with the whole run() counted, workload and checker included.
    sim::Scenario s = saturatedLeg(true);
    s.workload = sim::WorkloadKind::Bernoulli;
    s.queues = 64;
    s.load = 0.05;
    auto wl = sim::makeWorkload(s);
    buffer::HybridBuffer buf(s.bufferConfig());
    sim::SimRunner(buf, *wl, false).run(kWarmSlots);
    ser::Writer w;
    wl->save(w);
    buf.save(w);
    const std::string warm = w.bytes();
    sim::SimRunner(buf, *wl, false).run(kCountedSlots);
    ser::Reader r(warm);
    wl->load(r);
    buf.load(r);
    // The checker restarts at this point, so it stays off.
    sim::SimRunner runner(buf, *wl, false);
    g_counting = true;
    const auto res = runner.run(kCountedSlots);
    g_counting = false;
    EXPECT_GT(res.grants, 0u);
    EXPECT_EQ(g_allocs.load(), 0u);
    g_allocs = 0;
}

TEST(AllocFree, RadsLeg)
{
    sim::Scenario s;
    s.variant = sim::BufferVariant::Rads;
    s.workload = sim::WorkloadKind::Adversarial;
    s.queues = 8;
    s.granRads = 8;
    s.gran = 8;
    s.seed = 1;
    s.slots = kWarmSlots + kCountedSlots;
    s.eventEngine = true;
    expectAllocationFree(s);
}

TEST(AllocFree, RenamingLeg)
{
    // The scenario matrix's renaming shape: half as many logical as
    // physical queues and a DRAM of B cells per physical queue, so
    // chains form and retire (checked below) and the renaming table's
    // grant, allocation and recycling paths all run in the window.
    sim::Scenario s = saturatedLeg(true);
    s.variant = sim::BufferVariant::CfdsRenaming;
    s.workload = sim::WorkloadKind::Bernoulli;
    s.physQueues = 8;
    s.queues = 4;
    s.groups = 4;
    s.dramCells = 8 * 8;
    s.load = 0.9;
    EXPECT_GT(expectAllocationFree(s).recycles, 0u);
}

TEST(AllocFree, CrossbarWindows)
{
    // A whole fabric slot allocates nothing once warm either: the
    // scheduler fills the fabric's own matching, the look-ahead and
    // played scripts swap without growing, and the inputs step on
    // the pool's workers.  The low load reaches the all-empty slots
    // that skip the scheduler.  Same warm-up and replay as
    // countStepAllocs, through a crossbar checkpoint.
    constexpr std::uint64_t kWarm = 2048;
    constexpr std::uint64_t kCounted = 2048;
    for (const auto kind : {xbar::SchedulerKind::Islip,
                            xbar::SchedulerKind::Qps,
                            xbar::SchedulerKind::RandomMaximal}) {
        for (const double load : {0.85, 0.02}) {
            xbar::CrossbarConfig cfg;
            cfg.ports = 16;
            cfg.scheduler = kind;
            cfg.load = load;
            cfg.slots = kWarm + kCounted;
            SCOPED_TRACE(cfg.describe());
            xbar::CrossbarRun run(cfg);
            std::uint64_t active = 0;
            run.onMatch = [&](Slot, const xbar::Occupancy &,
                              const xbar::Matching &, unsigned) {
                ++active;
            };
            run.runTo(kWarm);
            const std::string warm = run.checkpoint();
            run.runTo(cfg.slots);
            run.restore(warm);
            active = 0;
            g_counting = true;
            run.runTo(cfg.slots);
            g_counting = false;
            EXPECT_EQ(g_allocs.load(), 0u);
            g_allocs = 0;
            // onMatch fires on active slots only; the rest were empty.
            if (load < 0.5) {
                EXPECT_LT(active, kCounted);
            }
            run.onMatch = nullptr;
            const auto out = run.finish();
            EXPECT_TRUE(out.passed) << out.failure;
            EXPECT_GT(out.report.matchEdges, 0u);
        }
    }
}
