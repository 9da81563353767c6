/**
 * @file
 * Integration tests across modules: the input-queued router of
 * Figure 1 (multiple buffers + a matching scheduler), long soaks
 * through phase changes, and a cross-architecture differential test
 * (RADS and CFDS fed the identical stimulus must grant the identical
 * cell sequence per queue).
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "buffer/hybrid_buffer.hh"
#include "common/random.hh"
#include "sim/golden.hh"
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

} // namespace

TEST(Integration, VoqRouterFourPorts)
{
    // 4 input ports, each with a VOQ buffer over 4 outputs; a
    // round-robin matching grants one (input, output) pair per
    // output per slot.
    constexpr unsigned kPorts = 4;
    struct Input
    {
        std::unique_ptr<HybridBuffer> buffer;
        std::vector<std::uint64_t> backlog =
            std::vector<std::uint64_t>(kPorts, 0);
        std::vector<SeqNum> seq = std::vector<SeqNum>(kPorts, 0);
        GoldenChecker checker{kPorts};
        unsigned rr = 0;
    };
    std::vector<Input> inputs(kPorts);
    for (auto &in : inputs)
        in.buffer = std::make_unique<HybridBuffer>(
            config(kPorts, 8, 2, 16));

    Rng rng(11);
    std::uint64_t granted = 0, injected = 0;
    for (Slot t = 0; t < 100000; ++t) {
        std::vector<bool> out_taken(kPorts, false);
        for (unsigned i = 0; i < kPorts; ++i) {
            auto &in = inputs[i];
            QueueId req = kInvalidQueue;
            for (unsigned k = 0; k < kPorts; ++k) {
                const unsigned out = (in.rr + k) % kPorts;
                if (!out_taken[out] && in.backlog[out] > 0) {
                    req = out;
                    --in.backlog[out];
                    out_taken[out] = true;
                    in.rr = (out + 1) % kPorts;
                    break;
                }
            }
            std::optional<Cell> arr;
            if (rng.chance(0.85)) {
                const auto out =
                    static_cast<QueueId>(rng.below(kPorts));
                Cell c;
                c.queue = out;
                c.seq = in.seq[out]++;
                c.arrival = t;
                arr = c;
                ++in.backlog[out];
                ++injected;
            }
            const auto g = in.buffer->step(arr, req);
            if (g) {
                in.checker.onGrant(g->logicalQueue, g->cell);
                ++granted;
            }
        }
    }
    // ~85% load, minus pipeline fill: throughput must track load.
    EXPECT_GT(granted, injected * 9 / 10);
}

TEST(Integration, RadsAndCfdsGrantIdenticalSequences)
{
    // Same workload stream into both architectures: the *contents*
    // of the grant stream per queue must be identical (the pipeline
    // depths differ, so compare per-queue cell orders, which the
    // golden checkers already pin; here we compare totals after
    // drain).
    const unsigned queues = 8;
    HybridBuffer rads(config(queues, 8, 8, 1));
    HybridBuffer cfds(config(queues, 8, 2, 16));
    UniformRandom wl_a(queues, 777, 0.9);
    UniformRandom wl_b(queues, 777, 0.9); // identical stream
    SimRunner run_a(rads, wl_a);
    SimRunner run_b(cfds, wl_b);
    const auto ra = run_a.run(50000);
    const auto rb = run_b.run(50000);
    EXPECT_EQ(ra.arrivals, rb.arrivals);
    run_a.drain(200000);
    run_b.drain(200000);
    for (QueueId q = 0; q < queues; ++q) {
        EXPECT_EQ(run_a.checker().served(q),
                  run_b.checker().served(q))
            << "queue " << q;
    }
}

TEST(Integration, PhaseChangeSoak)
{
    // Bursty phase, then near-silence, then uniform saturation: no
    // state corruption across phases (golden-checked).
    const unsigned queues = 8;
    HybridBuffer buf(config(queues, 8, 4, 16));
    GoldenChecker checker(queues);
    std::vector<SeqNum> seq(queues, 0);
    std::vector<std::uint64_t> credit(queues, 0);
    Rng rng(3);
    std::uint64_t granted = 0;

    auto stepOnce = [&](double arrival_p, double request_p,
                        QueueId hot) {
        std::optional<Cell> arr;
        if (rng.chance(arrival_p)) {
            const QueueId q =
                hot != kInvalidQueue
                    ? hot
                    : static_cast<QueueId>(rng.below(queues));
            Cell c;
            c.queue = q;
            c.seq = seq[q]++;
            arr = c;
            ++credit[q];
        }
        QueueId req = kInvalidQueue;
        if (rng.chance(request_p)) {
            for (unsigned k = 0; k < queues; ++k) {
                const auto q =
                    static_cast<QueueId>(rng.below(queues));
                if (credit[q] > 0) {
                    req = q;
                    --credit[q];
                    break;
                }
            }
        }
        if (const auto g = buf.step(arr, req)) {
            checker.onGrant(g->logicalQueue, g->cell);
            ++granted;
        }
    };

    for (int i = 0; i < 20000; ++i)
        stepOnce(0.4, 0.9, 2); // hot queue 2 at feasible load
    for (int i = 0; i < 20000; ++i)
        stepOnce(0.02, 0.9, kInvalidQueue); // near idle, drain
    for (int i = 0; i < 20000; ++i)
        stepOnce(0.95, 0.95, kInvalidQueue); // saturation
    EXPECT_GT(granted, 20000u);
}

TEST(Integration, ManyShortLivedQueues)
{
    // Queues activate, carry a handful of cells, and go quiet --
    // stresses per-queue state reset-free reuse (non-renaming).
    const unsigned queues = 32;
    HybridBuffer buf(config(queues, 8, 2, 32));
    GoldenChecker checker(queues);
    std::vector<SeqNum> seq(queues, 0);
    Rng rng(9);
    std::uint64_t granted = 0;
    QueueId active = 0;
    unsigned remaining = 0;
    std::deque<QueueId> pending;
    for (Slot t = 0; t < 120000; ++t) {
        std::optional<Cell> arr;
        if (remaining == 0) {
            active = static_cast<QueueId>(rng.below(queues));
            remaining = 1 + static_cast<unsigned>(rng.below(6));
        }
        if (rng.chance(0.8)) {
            Cell c;
            c.queue = active;
            c.seq = seq[active]++;
            arr = c;
            pending.push_back(active);
            --remaining;
        }
        QueueId req = kInvalidQueue;
        if (!pending.empty() && rng.chance(0.85)) {
            req = pending.front();
            pending.pop_front();
        }
        if (const auto g = buf.step(arr, req)) {
            checker.onGrant(g->logicalQueue, g->cell);
            ++granted;
        }
    }
    EXPECT_GT(granted, 70000u);
}

TEST(Integration, RenamingRouterWithTinyDram)
{
    // Renaming under a realistic mixed load with a DRAM small enough
    // that chains and recycles happen continuously.
    BufferConfig cfg = config(12, 8, 2, 16);
    cfg.logicalQueues = 6;
    cfg.renaming = true;
    cfg.dramCells = 256;
    // Concentrated bursts exceed the spread-traffic RR sizing; see
    // DESIGN.md section 7.4.
    cfg.rrCapacity = 2 * model::rrSize(cfg.params) + 16;
    HybridBuffer buf(cfg);
    BurstyOnOff wl(6, 31, 128, 0.9);
    SimRunner runner(buf, wl);
    const auto r = runner.run(120000);
    EXPECT_GT(r.grants, 60000u);
    runner.drain(400000);
    EXPECT_EQ(buf.report().dramResidentCells, 0u);
}
