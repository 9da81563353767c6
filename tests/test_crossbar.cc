/**
 * @file
 * Tests of the crossbar layer (src/crossbar): per-slot matching
 * invariants for every scheduler x pattern combination, iSLIP's
 * pointer accept rule, the bitset iSLIP against the scalar one it
 * replaced, a differential oracle against brute-force maximum
 * matchings, the 1x1 == single-buffer byte equivalence, the
 * 16-port uniform throughput floor, the failure path's text and
 * artifact accounting, checkpoint/restore bit identity, the pipelined
 * windows (chunking, onMatch ordering, the look-ahead's rollback on
 * an input failure) and the seeded crossbar fuzz smoke.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "artifact_rows.hh"
#include "buffer/hybrid_buffer.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/serialize.hh"
#include "crossbar/crossbar_sim.hh"
#include "crossbar/scheduler.hh"
#include "fabric/fabric.hh"
#include "fuzz_env.hh"
#include "soak/checkpoint.hh"
#include "sweep/scenario_sweep.hh"
#include "sweep/sweep.hh"

using namespace pktbuf;
using namespace pktbuf::xbar;

namespace
{

/** Serialize a record to one JSON-ish line for byte comparison. */
std::string
recordJson(const sweep::Record &rec)
{
    std::string out = "{";
    for (const auto &[k, v] : rec.fields()) {
        if (out.size() > 1)
            out += ", ";
        out += sweep::Value(k).json() + ": " + v.json();
    }
    return out + "}";
}

/** Concatenated per-input + aggregate rows: the artifact payload. */
std::string
outcomeJson(const CrossbarConfig &cfg, const CrossbarOutcome &out)
{
    std::string all;
    for (std::size_t i = 0; i < out.inputs.size(); ++i)
        all += recordJson(inputRecord(out.plans[i], out.inputs[i]))
               + "\n";
    all += recordJson(crossbarRecord(cfg, out)) + "\n";
    return all;
}

CrossbarConfig
baseConfig(unsigned ports, fabric::TrafficPattern pattern,
           std::uint64_t slots = 2000)
{
    CrossbarConfig cfg;
    cfg.ports = ports;
    cfg.pattern = pattern;
    cfg.slots = slots;
    cfg.masterSeed = 11;
    return cfg;
}

const SchedulerKind kAllKinds[] = {SchedulerKind::Islip,
                                   SchedulerKind::Qps,
                                   SchedulerKind::RandomMaximal};

const fabric::TrafficPattern kAllPatterns[] = {
    fabric::TrafficPattern::Uniform, fabric::TrafficPattern::Hotspot,
    fabric::TrafficPattern::Incast, fabric::TrafficPattern::Permutation};

/** Build an occupancy from a row-major depth matrix. */
Occupancy
makeOcc(unsigned ports,
        const std::vector<std::vector<std::uint64_t>> &rows)
{
    Occupancy occ(ports);
    for (unsigned i = 0; i < ports; ++i)
        for (unsigned j = 0; j < ports; ++j)
            occ.set(i, j, rows[i][j]);
    return occ;
}

/** A random sparse occupancy for the scheduler replay tests. */
Occupancy
randomOcc(unsigned ports, Rng &rng)
{
    Occupancy occ(ports);
    for (unsigned i = 0; i < ports; ++i)
        for (unsigned j = 0; j < ports; ++j)
            if (rng.chance(0.4))
                occ.set(i, j, 1 + rng.below(5));
    return occ;
}

/**
 * The scalar iSLIP the bitset scheduler replaced: O(N^2) probes per
 * iteration, one `% N` per probe.  Kept verbatim as the reference of
 * the differential test.
 */
struct ScalarIslip
{
    unsigned ports;
    unsigned iterations;
    unsigned lastIters = 0;
    std::vector<unsigned> g = std::vector<unsigned>(ports, 0);
    std::vector<unsigned> a = std::vector<unsigned>(ports, 0);

    Matching
    schedule(const Occupancy &occ)
    {
        const unsigned n = ports;
        Matching match(n, kInvalidQueue);
        std::vector<bool> out_matched(n, false);
        lastIters = 0;
        for (unsigned it = 0; it < iterations; ++it) {
            std::vector<QueueId> grant(n, kInvalidQueue);
            for (unsigned j = 0; j < n; ++j) {
                if (out_matched[j])
                    continue;
                for (unsigned k = 0; k < n; ++k) {
                    const unsigned i = (g[j] + k) % n;
                    if (match[i] == kInvalidQueue && occ.at(i, j) > 0) {
                        grant[j] = i;
                        break;
                    }
                }
            }
            bool progress = false;
            for (unsigned i = 0; i < n; ++i) {
                if (match[i] != kInvalidQueue)
                    continue;
                for (unsigned k = 0; k < n; ++k) {
                    const unsigned j = (a[i] + k) % n;
                    if (grant[j] != i)
                        continue;
                    match[i] = j;
                    out_matched[j] = true;
                    progress = true;
                    if (it == 0) {
                        g[j] = (i + 1) % n;
                        a[i] = (j + 1) % n;
                    }
                    break;
                }
            }
            if (!progress)
                break;
            ++lastIters;
        }
        return match;
    }
};

/** Request bitsets and total() agree with the counts. */
void
expectInStep(const Occupancy &occ)
{
    const unsigned n = occ.ports();
    ASSERT_EQ(occ.words(), (n + 63) / 64);
    std::uint64_t total = 0;
    for (unsigned j = 0; j < n; ++j) {
        std::vector<std::uint64_t> want(occ.words(), 0);
        for (unsigned i = 0; i < n; ++i) {
            total += occ.at(i, j);
            if (occ.at(i, j) > 0)
                want[i / 64] |= std::uint64_t{1} << (i % 64);
        }
        const auto req = occ.requesters(j);
        ASSERT_EQ(std::vector<std::uint64_t>(req.begin(), req.end()),
                  want)
            << "output " << j;
    }
    EXPECT_EQ(occ.total(), total);
}

} // namespace

TEST(CrossbarScheduler, KindTokensRoundTrip)
{
    for (const auto k : kAllKinds) {
        SchedulerKind back = SchedulerKind::RandomMaximal;
        ASSERT_TRUE(parseSchedulerKind(toString(k), back))
            << toString(k);
        EXPECT_EQ(back, k);
    }
    SchedulerKind out;
    EXPECT_FALSE(parseSchedulerKind("islip4", out));
    EXPECT_FALSE(parseSchedulerKind("", out));
    EXPECT_EQ(makeScheduler(SchedulerKind::Islip, 4, 2, 8, 1)->name(),
              "islip2");
    EXPECT_EQ(makeScheduler(SchedulerKind::Qps, 4, 2, 8, 1)->name(),
              "qps_w8");
    EXPECT_EQ(makeScheduler(SchedulerKind::RandomMaximal, 4, 2, 8, 1)
                  ->name(),
              "random");
}

TEST(CrossbarScheduler, ValidatorsJudgeHandMatchings)
{
    const auto occ = makeOcc(3, {{1, 0, 0},   //
                                 {0, 2, 0},   //
                                 {0, 3, 1}});

    // input0 -> out0, input1 -> out1, input2 unmatched: conflict-free
    // and backed, and maximal (input2's only free backed VOQ is out2,
    // which is free -- so NOT maximal; out2 backed by occ(2,2)=1).
    Matching m = {0, 1, kInvalidQueue};
    EXPECT_EQ(matchingSize(m), 2u);
    EXPECT_TRUE(matchingConflictFree(m, 3));
    EXPECT_TRUE(matchingBacked(m, occ));
    EXPECT_FALSE(matchingMaximal(m, occ));

    m = {0, 1, 2};
    EXPECT_TRUE(matchingConflictFree(m, 3));
    EXPECT_TRUE(matchingBacked(m, occ));
    EXPECT_TRUE(matchingMaximal(m, occ));

    // Duplicate output and out-of-range target are conflicts.
    EXPECT_FALSE(matchingConflictFree({1, 1, kInvalidQueue}, 3));
    EXPECT_FALSE(matchingConflictFree({3, kInvalidQueue,
                                       kInvalidQueue}, 3));
    // Granting an empty VOQ is unbacked.
    EXPECT_FALSE(matchingBacked({1, kInvalidQueue, kInvalidQueue},
                                occ));

    // The empty matching over an empty fabric is trivially maximal.
    const Occupancy empty(3);
    EXPECT_TRUE(matchingMaximal(
        {kInvalidQueue, kInvalidQueue, kInvalidQueue}, empty));
    EXPECT_EQ(maximumMatchingSize(empty), 0u);

    // Kuhn's oracle finds the augmenting path a greedy pass misses:
    // input0 can reach both outputs, input1 only output0, so the
    // maximum is 2 even though greedy (input0 -> out0 first) gets 1.
    const auto aug = makeOcc(2, {{4, 1},  //
                                 {2, 0}});
    EXPECT_EQ(maximumMatchingSize(aug), 2u);
    EXPECT_EQ(maximumMatchingSize(occ), 3u);
}

TEST(CrossbarScheduler, IslipPointersFollowTheAcceptRule)
{
    IslipScheduler s(4, /*iterations=*/1);
    ASSERT_EQ(s.grantPointers(), std::vector<unsigned>(4, 0));
    ASSERT_EQ(s.acceptPointers(), std::vector<unsigned>(4, 0));

    // input0 requests {out0, out1}, input1 requests {out0}.  Both
    // outputs grant input0 (pointers at 0); input0 accepts out0.
    // Only the *accepted* pair's pointers advance: g[0] -> 1,
    // a[0] -> 1.  out1's unaccepted grant must NOT move g[1] -- the
    // rule that prevents pointer synchronization.
    auto occ = makeOcc(4, {{2, 1, 0, 0},
                           {3, 0, 0, 0},
                           {0, 0, 0, 0},
                           {0, 0, 0, 0}});
    Matching m = s.schedule(occ);
    EXPECT_EQ(m, (Matching{0, kInvalidQueue, kInvalidQueue,
                           kInvalidQueue}));
    EXPECT_EQ(s.grantPointers(), (std::vector<unsigned>{1, 0, 0, 0}));
    EXPECT_EQ(s.acceptPointers(), (std::vector<unsigned>{1, 0, 0, 0}));

    // Same contenders again: out0's pointer now favors input1, so
    // the grant rotates -- input0 starves this slot, input1 serves.
    occ = makeOcc(4, {{2, 0, 0, 0},
                      {3, 0, 0, 0},
                      {0, 0, 0, 0},
                      {0, 0, 0, 0}});
    m = s.schedule(occ);
    EXPECT_EQ(m, (Matching{kInvalidQueue, 0, kInvalidQueue,
                           kInvalidQueue}));
    EXPECT_EQ(s.grantPointers(), (std::vector<unsigned>{2, 0, 0, 0}));
    EXPECT_EQ(s.acceptPointers(), (std::vector<unsigned>{1, 1, 0, 0}));
}

TEST(CrossbarScheduler, IslipLaterIterationsLeavePointersAlone)
{
    IslipScheduler s(4, /*iterations=*/2);

    // Iteration 0 matches (input0, out0); iteration 1 then matches
    // (input1, out1).  The second-iteration match must not advance
    // g[1] or a[1] -- only first-iteration accepts move pointers.
    const auto occ = makeOcc(4, {{2, 1, 0, 0},
                                 {0, 3, 0, 0},
                                 {0, 0, 0, 0},
                                 {0, 0, 0, 0}});
    const Matching m = s.schedule(occ);
    EXPECT_EQ(m, (Matching{0, 1, kInvalidQueue, kInvalidQueue}));
    EXPECT_EQ(s.lastIterations(), 2u);
    EXPECT_EQ(s.grantPointers(), (std::vector<unsigned>{1, 0, 0, 0}));
    EXPECT_EQ(s.acceptPointers(), (std::vector<unsigned>{1, 0, 0, 0}));
}

TEST(CrossbarScheduler, BitsetIslipMatchesScalarReference)
{
    // The bitset scheduler and the scalar reference run side by side
    // with their pointers carried from slot to slot.  Radixes up to
    // 64 take the one-word path (1, 63 and 64, whose free sets fill
    // the whole word); 65 and 130 take the multi-word one, whose
    // cyclic search crosses word edges;
    // the occupancy drifts a few VOQs per slot and now and then
    // refills at a new density, from empty to full.
    const double densities[] = {0.0, 0.01, 0.1, 0.5, 1.0};
    for (const unsigned n : {1u, 2u, 3u, 16u, 63u, 64u, 65u, 130u}) {
        for (const unsigned iters : {1u, 4u, n}) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " iters=" + std::to_string(iters));
            IslipScheduler fast(n, iters);
            ScalarIslip ref{n, iters};
            Occupancy occ(n);
            Rng rng(sweep::deriveSeed(n, iters));
            double density = 0.1;
            const auto draw = [&](unsigned i, unsigned j) {
                occ.set(i, j,
                        rng.chance(density) ? 1 + rng.below(3) : 0);
            };
            for (unsigned t = 0; t < 700; ++t) {
                if (rng.below(16) == 0) {
                    density = densities[rng.below(5)];
                    for (unsigned i = 0; i < n; ++i)
                        for (unsigned j = 0; j < n; ++j)
                            draw(i, j);
                } else {
                    for (unsigned k = 0; k < n; ++k)
                        draw(static_cast<unsigned>(rng.below(n)),
                             static_cast<unsigned>(rng.below(n)));
                }
                ASSERT_EQ(fast.schedule(occ), ref.schedule(occ))
                    << "slot " << t;
                ASSERT_EQ(fast.lastIterations(), ref.lastIters)
                    << "slot " << t;
                ASSERT_EQ(fast.grantPointers(), ref.g) << "slot " << t;
                ASSERT_EQ(fast.acceptPointers(), ref.a) << "slot " << t;
            }
        }
    }
}

TEST(CrossbarScheduler, SetKeepsRequestersInStepWithCounts)
{
    for (const unsigned n : {1u, 63u, 64u, 65u, 130u}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        Occupancy occ(n);
        expectInStep(occ);
        // One VOQ 0 -> k -> k' -> 0, on every word boundary input.
        for (const unsigned i : {0u, 63u, 64u, n - 1}) {
            if (i >= n)
                continue;
            const unsigned j = (i * 7) % n;
            const std::uint64_t bit = std::uint64_t{1} << (i % 64);
            occ.set(i, j, 3);
            EXPECT_TRUE(occ.requesters(j)[i / 64] & bit);
            EXPECT_EQ(occ.total(), 3u);
            occ.set(i, j, 5);
            EXPECT_TRUE(occ.requesters(j)[i / 64] & bit);
            EXPECT_EQ(occ.total(), 5u);
            expectInStep(occ);
            occ.set(i, j, 0);
            EXPECT_FALSE(occ.requesters(j)[i / 64] & bit);
            EXPECT_EQ(occ.total(), 0u);
            expectInStep(occ);
        }
        // Fill every VOQ, then empty them again in a random order.
        Rng rng(n);
        for (unsigned i = 0; i < n; ++i)
            for (unsigned j = 0; j < n; ++j)
                occ.set(i, j, 1 + rng.below(4));
        expectInStep(occ);
        for (unsigned k = 0; k < 4 * n * n; ++k)
            occ.set(static_cast<unsigned>(rng.below(n)),
                    static_cast<unsigned>(rng.below(n)), 0);
        expectInStep(occ);
        for (unsigned i = 0; i < n; ++i)
            for (unsigned j = 0; j < n; ++j)
                occ.set(i, j, 0);
        expectInStep(occ);
        EXPECT_EQ(occ.total(), 0u);
    }
}

TEST(CrossbarScheduler, SaveLoadReplaysEverySchedulerBitForBit)
{
    constexpr unsigned kPorts = 5;
    for (const auto kind : kAllKinds) {
        SCOPED_TRACE(toString(kind));
        auto live = makeScheduler(kind, kPorts, 3, 4, 77);
        auto shadow = makeScheduler(kind, kPorts, 3, 4, 77);
        Rng traffic(91);
        for (unsigned t = 0; t < 40; ++t) {
            const auto occ = randomOcc(kPorts, traffic);
            ASSERT_EQ(live->schedule(occ), shadow->schedule(occ));
        }
        // Round-trip `live` into a fresh, differently seeded
        // instance; it must continue exactly like the shadow.
        ser::Writer w;
        live->save(w);
        auto restored = makeScheduler(kind, kPorts, 3, 4, 12345);
        ser::Reader r(w.bytes());
        restored->load(r);
        r.done();
        for (unsigned t = 0; t < 40; ++t) {
            const auto occ = randomOcc(kPorts, traffic);
            ASSERT_EQ(restored->schedule(occ), shadow->schedule(occ));
        }
    }
}

TEST(CrossbarPlan, ImpossibleKnobsAreFatal)
{
    CrossbarConfig cfg = baseConfig(0, fabric::TrafficPattern::Uniform);
    EXPECT_THROW(planCrossbar(cfg), FatalError);
    cfg = baseConfig(4, fabric::TrafficPattern::Incast);
    cfg.incastVictim = 4;  // out of range
    EXPECT_THROW(planCrossbar(cfg), FatalError);
    cfg = baseConfig(4, fabric::TrafficPattern::Uniform);
    cfg.load = 0.0;
    EXPECT_THROW(planCrossbar(cfg), FatalError);
    cfg = baseConfig(4, fabric::TrafficPattern::Hotspot);
    cfg.hotFraction = 1.5;
    EXPECT_THROW(planCrossbar(cfg), FatalError);
    cfg.hotFraction = 0.0;
    EXPECT_THROW(planCrossbar(cfg), FatalError);
    cfg = baseConfig(4, fabric::TrafficPattern::Incast);
    cfg.hotFraction = 1.0;
    EXPECT_THROW(planCrossbar(cfg), FatalError);
    cfg = baseConfig(fabric::kMaxPorts + 1, fabric::TrafficPattern::Uniform);
    EXPECT_THROW(planCrossbar(cfg), FatalError);
}

TEST(CrossbarPlan, LoadsResolveWithinAdmissibleCaps)
{
    // Permutation concentrates each input's whole rate on one VOQ,
    // so the per-VOQ bound clamps the input load.
    CrossbarConfig cfg =
        baseConfig(8, fabric::TrafficPattern::Permutation);
    cfg.load = 0.9;
    auto plans = planCrossbar(cfg);
    ASSERT_EQ(plans.size(), 8u);
    for (const auto &p : plans) {
        EXPECT_DOUBLE_EQ(p.scenario.load,
                         CrossbarConfig::kMaxVoqLoad);
        EXPECT_EQ(p.dest.permTarget, (p.input + 1) % 8);
        EXPECT_EQ(p.scenario.seed,
                  sweep::deriveSeed(cfg.masterSeed, p.input));
    }

    // A 1x1 crossbar is the same concentration regardless of pattern.
    cfg = baseConfig(1, fabric::TrafficPattern::Uniform);
    cfg.load = 0.9;
    plans = planCrossbar(cfg);
    EXPECT_DOUBLE_EQ(plans[0].scenario.load,
                     CrossbarConfig::kMaxVoqLoad);

    // Hotspot: the hot side's fraction is clamped so no hot output
    // sees more than kMaxSkewedOutputLoad in aggregate.
    cfg = baseConfig(8, fabric::TrafficPattern::Hotspot);
    cfg.load = 0.9;
    cfg.hotFraction = 0.9;
    plans = planCrossbar(cfg);
    const auto &d = plans[0].dest;
    ASSERT_EQ(d.hotOutputs, 2u);  // default max(1, ports / 4)
    const double per_hot_output =
        8 * plans[0].scenario.load * d.hotFraction / d.hotOutputs;
    EXPECT_LE(per_hot_output,
              CrossbarConfig::kMaxSkewedOutputLoad + 1e-9);

    // Incast: the burst-start probability is a real probability and
    // the implied victim fraction respects the same output cap.
    cfg = baseConfig(6, fabric::TrafficPattern::Incast);
    cfg.load = 0.9;
    cfg.hotFraction = 0.9;
    cfg.incastVictim = 3;
    plans = planCrossbar(cfg);
    EXPECT_GT(plans[0].dest.burstStart, 0.0);
    EXPECT_LT(plans[0].dest.burstStart, 1.0);
    EXPECT_EQ(plans[0].dest.victim, 3u);
}

TEST(CrossbarRun, InvariantsHoldForEverySchedulerAndPattern)
{
    const auto check = [](const CrossbarConfig &cfg) {
        CrossbarRun run(cfg);
        std::uint64_t checked = 0;
        run.onMatch = [&](Slot, const Occupancy &occ, const Matching &m,
                          unsigned iters) {
            ++checked;
            ASSERT_TRUE(matchingConflictFree(m, cfg.ports));
            ASSERT_TRUE(matchingBacked(m, occ));
            ASSERT_TRUE(matchingMaximal(m, occ));
            ASSERT_GE(iters, 1u);
        };
        const auto out = run.finish();
        EXPECT_TRUE(out.passed) << out.failure;
        EXPECT_GT(checked, 0u);
        EXPECT_EQ(out.report.activeSlots, checked);
    };
    for (const auto kind : kAllKinds) {
        for (const auto pattern : kAllPatterns) {
            SCOPED_TRACE(toString(kind) + std::string("/")
                         + fabric::toString(pattern));
            CrossbarConfig cfg = baseConfig(4, pattern, 1500);
            cfg.scheduler = kind;
            cfg.islipIterations = 4;  // N rounds => maximal
            check(cfg);
        }
    }
    // 65 ports: input and output 64 sit in a second bitset word.
    SCOPED_TRACE("islip/uniform/65 ports");
    CrossbarConfig cfg = baseConfig(65, fabric::TrafficPattern::Uniform, 1500);
    cfg.islipIterations = 65;
    check(cfg);
}

TEST(CrossbarRun, OracleBoundsEverySlotAndIslipNearsMaximum)
{
    // Differential oracle, ports 2..6: every scheduler's per-slot
    // matching is maximal and never exceeds the brute-force maximum;
    // iSLIP with N iterations additionally serves >= 98% of what a
    // maximum-matching fabric could have, cumulatively.
    for (unsigned ports = 2; ports <= 6; ++ports) {
        for (const auto kind : kAllKinds) {
            SCOPED_TRACE(toString(kind) + std::string(" ports=")
                         + std::to_string(ports));
            CrossbarConfig cfg =
                baseConfig(ports, fabric::TrafficPattern::Uniform, 3000);
            cfg.scheduler = kind;
            cfg.islipIterations = ports;
            cfg.load = 0.6;
            CrossbarRun run(cfg);
            std::uint64_t matched = 0, maximum = 0;
            run.onMatch = [&](Slot, const Occupancy &occ,
                              const Matching &m, unsigned) {
                const auto size = matchingSize(m);
                const auto best = maximumMatchingSize(occ);
                ASSERT_TRUE(matchingMaximal(m, occ));
                ASSERT_LE(size, best);
                matched += size;
                maximum += best;
            };
            const auto out = run.finish();
            ASSERT_TRUE(out.passed) << out.failure;
            ASSERT_GT(maximum, 0u);
            const double ratio =
                static_cast<double>(matched)
                / static_cast<double>(maximum);
            // A maximal matching is at least half a maximum one
            // slot by slot; in practice every scheduler here sits
            // far above the theory floor.
            EXPECT_GE(ratio, 0.5);
            if (kind == SchedulerKind::Islip) {
                // iSLIP tracks the per-slot maximum closely (a
                // maximal matching misses the odd augmenting path)
                // and, the property that matters, serves >= 98% of
                // the offered cells within the main phase.
                EXPECT_GE(ratio, 0.9);
                EXPECT_GE(out.report.throughput, 0.98)
                    << "matched " << out.report.matchEdges << " of "
                    << out.report.arrivals;
            }
        }
    }
}

TEST(CrossbarEquivalence, OnePortReproducesSingleBufferLeg)
{
    // The load-bearing layering invariant: a 1x1 crossbar *is* the
    // matching single-buffer scenario leg.  Any maximal scheduler is
    // work-conserving at N == 1, which is exactly what the
    // self-greedy reference workload plays back through the plain
    // soak::runScenario() driver -- so the serialized scenario
    // records must agree byte for byte, for every scheduler.
    for (const auto kind : kAllKinds) {
        SCOPED_TRACE(toString(kind));
        CrossbarConfig cfg =
            baseConfig(1, fabric::TrafficPattern::Uniform, 4000);
        cfg.scheduler = kind;
        cfg.masterSeed = 23;
        const auto out = runCrossbar(cfg);
        ASSERT_TRUE(out.passed) << out.failure;
        ASSERT_EQ(out.inputs.size(), 1u);

        const auto plans = planCrossbar(cfg);
        const auto leg = soak::runScenario(plans[0].scenario, [&] {
            return makeInputWorkload(plans[0], /*self_greedy=*/true);
        });
        EXPECT_TRUE(leg.passed) << leg.failure;
        EXPECT_EQ(
            recordJson(sweep::scenarioRecord(plans[0].scenario,
                                             out.inputs[0])),
            recordJson(sweep::scenarioRecord(plans[0].scenario,
                                             leg)));
    }
}

TEST(CrossbarRun, SixteenPortUniformIslipSustainsThroughput)
{
    // The acceptance bar: 16 ports, uniform admissible load, iSLIP
    // with 4 iterations serves >= 95% of offered cells in-phase.
    CrossbarConfig cfg =
        baseConfig(16, fabric::TrafficPattern::Uniform, 6000);
    cfg.scheduler = SchedulerKind::Islip;
    cfg.islipIterations = 4;
    cfg.load = 0.6;
    const auto out = runCrossbar(cfg);
    ASSERT_TRUE(out.passed) << out.failure;
    EXPECT_GT(out.report.arrivals, 0u);
    EXPECT_GE(out.report.throughput, 0.95)
        << "matched " << out.report.matchEdges << " of "
        << out.report.arrivals;
    EXPECT_EQ(out.report.drops, 0u);
}

TEST(CrossbarRun, OnMatchFiresOnTheCallerAheadOfTheDataPlane)
{
    // onMatch runs on the control plane: on the thread that called
    // runTo(), for strictly increasing slots, never for a slot an
    // input may already have stepped.  With pool workers it also
    // fires for the next window while the current one steps.
    for (const auto kind : kAllKinds) {
        SCOPED_TRACE(toString(kind));
        CrossbarConfig cfg =
            baseConfig(16, fabric::TrafficPattern::Uniform, 3000);
        cfg.scheduler = kind;
        cfg.load = 0.85;
        CrossbarRun run(cfg);
        const auto caller = std::this_thread::get_id();
        std::uint64_t calls = 0;
        std::uint64_t ahead = 0;
        Slot last = 0;
        run.onMatch = [&](Slot t, const Occupancy &, const Matching &,
                          unsigned) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            EXPECT_TRUE(calls == 0 || t > last) << t << " after " << last;
            EXPECT_GE(t, run.dataPlaneEnd()) << "slot " << t;
            ahead += run.dataPlaneEnd() > run.executed() ? 1 : 0;
            last = t;
            ++calls;
        };
        for (const std::uint64_t to : {1000u, 1001u, 2287u, 3000u})
            run.runTo(to);
        EXPECT_GT(calls, 2000u);
        if (sweep::availableCpus() > 1) {
            EXPECT_GT(ahead, 0u) << "no slot was planned ahead";
        }
        run.onMatch = nullptr;
        const auto out = run.finish();
        EXPECT_TRUE(out.passed) << out.failure;
    }
}

TEST(CrossbarRun, RepeatRunsAreByteIdentical)
{
    CrossbarConfig cfg =
        baseConfig(4, fabric::TrafficPattern::Hotspot, 2000);
    cfg.scheduler = SchedulerKind::Qps;
    EXPECT_EQ(outcomeJson(cfg, runCrossbar(cfg)),
              outcomeJson(cfg, runCrossbar(cfg)));
}

TEST(CrossbarCheckpoint, RestoreIsBitIdenticalForEveryScheduler)
{
    // Checkpoint every 700 slots (deliberately not a divisor of the
    // budget), restore into a completely fresh fabric each time, and
    // demand the artifact bytes of the stitched run match a plain
    // one.  Incast exercises the burst-machine serialization.
    for (const auto kind : kAllKinds) {
        for (const auto pattern : {fabric::TrafficPattern::Uniform,
                                   fabric::TrafficPattern::Incast}) {
            SCOPED_TRACE(toString(kind) + std::string("/")
                         + fabric::toString(pattern));
            CrossbarConfig cfg = baseConfig(4, pattern, 3000);
            cfg.scheduler = kind;
            const auto plain = runCrossbar(cfg);
            ASSERT_TRUE(plain.passed) << plain.failure;
            const auto stitched =
                soak::runCheckpointed<CrossbarRun>(cfg, 700);
            ASSERT_TRUE(stitched.passed) << stitched.failure;
            EXPECT_EQ(outcomeJson(cfg, plain),
                      outcomeJson(cfg, stitched));
        }
    }
}

TEST(CrossbarCheckpoint, RestoreIsBitIdenticalWhenArrivalsDrop)
{
    // Two renaming inputs at full load overflow and drop arrivals: a
    // dropped arrival picks a VOQ whose credit then does not move,
    // the case the engine's per-slot occupancy update must get
    // right.  Restores at several slots must still reproduce the
    // unbroken run's bytes.
    for (const auto kind : kAllKinds) {
        SCOPED_TRACE(toString(kind));
        CrossbarConfig cfg =
            baseConfig(2, fabric::TrafficPattern::Uniform, 50000);
        cfg.scheduler = kind;
        cfg.variant = sim::BufferVariant::CfdsRenaming;
        cfg.load = 1.0;
        cfg.masterSeed = 1;
        const auto plain = runCrossbar(cfg);
        ASSERT_TRUE(plain.passed) << plain.failure;
        EXPECT_GT(plain.report.drops, 0u);
        const auto stitched =
            soak::runCheckpointed<CrossbarRun>(cfg, 12007);
        ASSERT_TRUE(stitched.passed) << stitched.failure;
        EXPECT_EQ(outcomeJson(cfg, plain), outcomeJson(cfg, stitched));
    }
}

TEST(CrossbarCheckpoint, ForeignOrCorruptEnvelopesAreFatal)
{
    CrossbarConfig cfg =
        baseConfig(3, fabric::TrafficPattern::Uniform, 1000);
    CrossbarRun a(cfg);
    a.runTo(400);
    const auto bytes = a.checkpoint();

    // A different master seed is a different fingerprint text.
    CrossbarConfig other = cfg;
    other.masterSeed = 999;
    CrossbarRun b(other);
    EXPECT_THROW(b.restore(bytes), FatalError);

    // So is a different scheduler.
    other = cfg;
    other.scheduler = SchedulerKind::Qps;
    CrossbarRun c(other);
    EXPECT_THROW(c.restore(bytes), FatalError);

    // Flipping a payload byte breaks the envelope checksum.
    auto corrupt = bytes;
    corrupt[corrupt.size() / 2] ^= 0x40;
    CrossbarRun d(cfg);
    EXPECT_THROW(d.restore(corrupt), FatalError);

    // The pristine envelope still restores and completes cleanly.
    CrossbarRun e(cfg);
    e.restore(bytes);
    EXPECT_EQ(e.executed(), 400u);
    const auto out = e.finish();
    EXPECT_TRUE(out.passed) << out.failure;
}

/**
 * Drive one fabric to its end in chunks of `chunks` (cycled; 0 = the
 * whole main phase in one call), checkpointing after every chunk
 * whose end is in `at`.  Returns the checkpoints by slot plus the
 * finished outcome's artifact rows and failure text.
 */
struct ChunkedRun
{
    std::vector<std::pair<std::uint64_t, std::string>> checkpoints;
    std::string artifact;
};

ChunkedRun
runInChunks(const CrossbarConfig &cfg,
            const std::vector<std::uint64_t> &chunks,
            const std::vector<std::uint64_t> &at)
{
    ChunkedRun r;
    CrossbarRun run(cfg);
    std::size_t k = 0;
    while (run.executed() < cfg.slots) {
        const std::uint64_t step =
            chunks.empty() ? cfg.slots : chunks[k++ % chunks.size()];
        run.runTo(std::min(cfg.slots, run.executed() + step));
        if (std::find(at.begin(), at.end(), run.executed()) != at.end())
            r.checkpoints.emplace_back(run.executed(), run.checkpoint());
    }
    const auto out = run.finish();
    r.artifact = outcomeJson(cfg, out) + (out.passed ? "passed" : "FAILED")
                 + out.failure;
    return r;
}

TEST(CrossbarWindow, AnyRunToChunkingIsByteIdentical)
{
    // The control plane plans windows of up to 256 slots, the next
    // one while the pool's workers step the inputs through the
    // current one; windows under 32 slots stay on the caller.  One runTo()
    // for the whole phase, one per slot and odd chunks around both
    // thresholds must leave the same checkpoint bytes at every
    // boundary they share, and finish with the same artifact.  A
    // 287-slot chunk (256 + 31) leaves a look-ahead too short to fan
    // out, and 545 (256 + 256 + 33) one that does.
    const std::vector<std::uint64_t> odd = {1, 31, 33, 255, 257, 287,
                                            545};
    constexpr std::uint64_t kSlots = 2400;
    std::vector<std::uint64_t> bounds;
    for (std::uint64_t t = 0, k = 0; t < kSlots;) {
        t = std::min(kSlots, t + odd[k++ % odd.size()]);
        bounds.push_back(t);
    }
    for (const auto kind : kAllKinds) {
        for (const auto pattern : kAllPatterns) {
            for (const auto variant : {sim::BufferVariant::Cfds,
                                       sim::BufferVariant::Rads}) {
                SCOPED_TRACE(toString(kind) + std::string("/")
                             + fabric::toString(pattern) + "/"
                             + sim::toString(variant));
                CrossbarConfig cfg = baseConfig(5, pattern, kSlots);
                cfg.scheduler = kind;
                cfg.variant = variant;
                cfg.load = 0.7;
                const auto chunked = runInChunks(cfg, odd, bounds);
                const auto per_slot = runInChunks(cfg, {1}, bounds);
                const auto whole = runInChunks(cfg, {}, {kSlots});
                ASSERT_EQ(chunked.checkpoints.size(), bounds.size());
                EXPECT_TRUE(chunked.checkpoints == per_slot.checkpoints);
                ASSERT_EQ(whole.checkpoints.size(), 1u);
                EXPECT_TRUE(whole.checkpoints.back()
                            == chunked.checkpoints.back());
                EXPECT_NE(chunked.artifact.find("passed"),
                          std::string::npos);
                EXPECT_EQ(chunked.artifact, per_slot.artifact);
                EXPECT_EQ(chunked.artifact, whole.artifact);
            }
        }
    }
}

TEST(CrossbarWindow, DroppingRenamingInputsStepOneSlotAtATime)
{
    // Renaming promises no admission ahead (a horizon of 0), so every
    // window is one lockstep slot and a dropped arrival's credit is
    // re-read after it: a whole-phase runTo() must drop, and match
    // the per-slot run byte for byte.
    for (const auto kind : kAllKinds) {
        SCOPED_TRACE(toString(kind));
        CrossbarConfig cfg =
            baseConfig(2, fabric::TrafficPattern::Uniform, 20000);
        cfg.scheduler = kind;
        cfg.variant = sim::BufferVariant::CfdsRenaming;
        cfg.load = 1.0;
        cfg.masterSeed = 1;
        const std::vector<std::uint64_t> at = {7777, cfg.slots};
        const auto whole = runInChunks(cfg, {}, {cfg.slots});
        const auto per_slot = runInChunks(cfg, {1}, at);
        const auto chunked = runInChunks(cfg, {7777}, at);
        const auto out = runCrossbar(cfg);
        ASSERT_TRUE(out.passed) << out.failure;
        EXPECT_GT(out.report.drops, 0u);
        EXPECT_TRUE(whole.checkpoints.back()
                    == per_slot.checkpoints.back());
        EXPECT_TRUE(chunked.checkpoints == per_slot.checkpoints);
        EXPECT_EQ(whole.artifact, per_slot.artifact);
        EXPECT_EQ(whole.artifact, chunked.artifact);
    }
}

TEST(CrossbarWindow, AdmitHorizonIsTheSmallestGroupFreeSpace)
{
    buffer::BufferConfig bc;
    bc.params = model::BufferParams{8, 8, 2, 16};
    EXPECT_EQ(buffer::HybridBuffer(bc).admitHorizon(), UINT64_MAX);

    // 4 groups of 64 cells: each arrival on queue 0 takes one cell
    // of its group, and the horizon reaches 0 exactly when the
    // buffer stops admitting there.
    bc.dramCells = 256;
    buffer::HybridBuffer buf(bc);
    ASSERT_EQ(buf.admitHorizon(), 64u);
    for (std::uint64_t k = 0; k < 64; ++k) {
        ASSERT_EQ(buf.admitHorizon(), 64u - k);
        ASSERT_TRUE(buf.wouldAdmit(0));
        Cell c;
        c.queue = 0;
        c.seq = k;
        c.arrival = buf.now();
        buf.step(c, kInvalidQueue);
    }
    EXPECT_EQ(buf.admitHorizon(), 0u);
    EXPECT_FALSE(buf.wouldAdmit(0));

    // Renaming (on bounded DRAM, which it requires) promises nothing.
    bc.renaming = true;
    bc.logicalQueues = 4;
    EXPECT_EQ(buffer::HybridBuffer(bc).admitHorizon(), 0u);
}

TEST(CrossbarFuzz, CrossbarFuzzSmoke)
{
    // Seeded fuzz: random radix, pattern, scheduler, buffer variant,
    // load and checkpoint cadence; every leg must pass its golden
    // checks and survive checkpoint/restore byte-identically.
    // PKTBUF_FUZZ_SEED / PKTBUF_FUZZ_ITERS widen the net (the fuzz
    // CTest entry and the nightly soak both do).
    const auto seed = testutil::envU64("PKTBUF_FUZZ_SEED", 1);
    const auto iters = testutil::envU64("PKTBUF_FUZZ_ITERS", 3);
    const sim::BufferVariant variants[] = {
        sim::BufferVariant::Rads, sim::BufferVariant::Cfds,
        sim::BufferVariant::CfdsRenaming};

    for (std::uint64_t it = 0; it < iters; ++it) {
        Rng rng(sweep::deriveSeed(seed, it));
        CrossbarConfig cfg;
        cfg.ports = 1 + static_cast<unsigned>(rng.below(6));
        cfg.pattern = kAllPatterns[rng.below(4)];
        cfg.scheduler = kAllKinds[rng.below(3)];
        cfg.islipIterations = 1 + static_cast<unsigned>(rng.below(4));
        cfg.qpsWindow = 1 + static_cast<unsigned>(rng.below(12));
        cfg.variant = variants[rng.below(3)];
        cfg.load = 0.2 + 0.05 * static_cast<double>(rng.below(9));
        cfg.slots = 600 + rng.below(1201);
        cfg.masterSeed = 1 + rng.below(1u << 30);
        cfg.incastVictim =
            static_cast<unsigned>(rng.below(cfg.ports));
        const auto every = 1 + cfg.slots / (2 + rng.below(6));

        SCOPED_TRACE("leg " + std::to_string(it) + ": "
                     + cfg.describe() + " every="
                     + std::to_string(every));
        const auto plain = runCrossbar(cfg);
        ASSERT_TRUE(plain.passed) << plain.failure;
        const auto stitched =
            soak::runCheckpointed<CrossbarRun>(cfg, every);
        ASSERT_TRUE(stitched.passed) << stitched.failure;
        ASSERT_EQ(outcomeJson(cfg, plain),
                  outcomeJson(cfg, stitched));
    }
}

namespace
{

/**
 * A checkpoint of `cfg` at slot `at` in which input 0 believes in
 * one cell more than its buffer holds: its workload stamps one extra
 * arrival that never reaches the buffer.  The fabric then grants the
 * phantom cell, and input 0 fails inside the window that requests
 * it.
 */
std::string
phantomCheckpoint(const CrossbarConfig &cfg, std::uint64_t at)
{
    CrossbarRun run(cfg);
    run.runTo(at);
    const std::uint64_t print = ser::fnv1a(cfg.describe());
    const std::string payload =
        soak::openCheckpoint(run.checkpoint(), print);
    ser::Reader r(payload);
    ser::Writer w;
    r.tag("XBAR");
    w.tag("XBAR");
    for (int k = 0; k < 4; ++k)  // slot cursor, fabric counters
        w.u64(r.u64());
    // seed: replaced by the load() of the saved scheduler state
    constexpr std::uint64_t kLoadedSeed = 1;
    const auto sched = makeScheduler(cfg.scheduler, cfg.ports,
                                     cfg.islipIterations, cfg.qpsWindow,
                                     kLoadedSeed);
    ser::load(r, *sched);
    ser::save(w, *sched);
    w.u64(r.u64());  // input count
    const auto plans = planCrossbar(cfg);
    for (unsigned i = 0; i < cfg.ports; ++i) {
        std::string sealed = r.str();
        if (i == 0) {
            CrossbarPortWorkload *wl = nullptr;
            soak::ScenarioRun in(plans[0].scenario, [&] {
                auto made = makeInputWorkload(plans[0]);
                wl = made.get();
                return made;
            });
            in.restore(sealed);
            const std::uint64_t credits = wl->totalCredit();
            while (wl->totalCredit() == credits)
                wl->step(at);
            sealed = in.checkpoint();
        }
        w.str(sealed);
    }
    r.done();
    return soak::sealCheckpoint(w.bytes(), print);
}

/** Restore `bytes`, finish, and render the outcome; `planned`
 *  receives the last slot onMatch saw, `window_end` the run's
 *  dataPlaneEnd() after the failure. */
std::string
finishFrom(const CrossbarConfig &cfg, const std::string &bytes,
           Slot &planned, std::uint64_t &window_end)
{
    CrossbarRun run(cfg);
    run.restore(bytes);
    run.onMatch = [&](Slot t, const Occupancy &, const Matching &,
                      unsigned) { planned = t; };
    std::string thrown;
    try {
        run.runTo(cfg.slots);
    } catch (const std::exception &e) {
        thrown = e.what();
    }
    window_end = run.dataPlaneEnd();
    run.onMatch = nullptr;
    const auto out = run.finish();
    return thrown + "\n" + outcomeJson(cfg, out) +
           (out.passed ? "passed" : "FAILED") + out.failure;
}

} // namespace

TEST(CrossbarFailure, FailedInputsFailTheRunAndTheArtifact)
{
    // Input 0 is granted a cell its buffer never held and fails its
    // leg.  (An input offered no cell passes: it has nothing to
    // deliver.)
    CrossbarConfig cfg =
        baseConfig(4, fabric::TrafficPattern::Uniform, 2000);
    CrossbarRun run(cfg);
    run.restore(phantomCheckpoint(cfg, 500));
    const auto out = run.finish();
    EXPECT_FALSE(out.passed);
    ASSERT_GT(out.report.failed, 0u);
    for (std::size_t i = 0; i < out.inputs.size(); ++i) {
        if (!out.inputs[i].passed) {
            EXPECT_NE(out.failure.find("input" + std::to_string(i) + ": "),
                      std::string::npos)
                << out.failure;
        }
    }
    EXPECT_NE(out.failure.find("master_seed=" +
                               std::to_string(cfg.masterSeed)),
              std::string::npos)
        << out.failure;

    // The artifact's "failed" counts exactly its ok=false rows: every
    // failed input's and the aggregate's.
    const std::string path = testing::TempDir() + "/xbar_failure.json";
    emitCrossbarArtifacts(cfg, out, "test", {}, path, "");
    const auto rows = testutil::readArtifactRows(path);
    EXPECT_EQ(rows.failed, rows.okFalse);
    EXPECT_EQ(rows.failed, out.report.failed + 1);
    std::remove(path.c_str());
}

TEST(CrossbarWindow, InputFailureDiscardsTheLookAhead)
{
    // Input 0 fails inside a window while the control plane has
    // already planned the next one.  The pipelined engine must drop
    // that look-ahead -- planner streams, burst counters, fabric
    // counters and scripts back at the window boundary -- and so
    // leave the outcome the serial engine does.  A sweep pool task
    // runs the serial engine (a round inside a round runs inline).
    for (const auto kind : kAllKinds) {
        SCOPED_TRACE(toString(kind));
        CrossbarConfig cfg =
            baseConfig(8, fabric::TrafficPattern::Incast, 6000);
        cfg.scheduler = kind;
        cfg.load = 0.85;
        const std::string bytes = phantomCheckpoint(cfg, 1000);

        Slot planned = 0;
        std::uint64_t window_end = 0;
        const std::string piped =
            finishFrom(cfg, bytes, planned, window_end);
        ASSERT_NE(piped.find("FAILED"), std::string::npos) << piped;
        if (sweep::availableCpus() > 1) {
            EXPECT_GE(planned, window_end)
                << "no look-ahead was planned past the failed window";
        }

        std::vector<std::string> serial(2);
        std::vector<sweep::Task> tasks;
        for (auto &out : serial) {
            tasks.push_back({"serial", [&](const sweep::SweepContext &) {
                                 Slot p = 0;
                                 std::uint64_t e = 0;
                                 out = finishFrom(cfg, bytes, p, e);
                                 EXPECT_LT(p, e);
                                 return sweep::TaskResult{};
                             }});
        }
        sweep::SweepOptions opt;
        opt.jobs = 2;
        ASSERT_EQ(sweep::runSweep(tasks, opt).failed, 0u);
        EXPECT_EQ(piped, serial[0]);
        EXPECT_EQ(piped, serial[1]);
    }
}

namespace
{

/** Entries of /proc/self/task: the threads of this process. */
std::size_t
threadCount()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &e :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

/** Run a crossbar to the end; `ahead` counts the onMatch calls for
 *  a slot planned while an earlier window still steps. */
std::string
runCounted(const CrossbarConfig &cfg, std::uint64_t &ahead)
{
    CrossbarRun run(cfg);
    run.onMatch = [&](Slot, const Occupancy &, const Matching &,
                      unsigned) {
        ahead += run.dataPlaneEnd() > run.executed() ? 1 : 0;
    };
    run.runTo(cfg.slots);
    run.onMatch = nullptr;
    const auto out = run.finish();
    return outcomeJson(cfg, out) + (out.passed ? "passed" : "FAILED") +
           out.failure;
}

} // namespace

TEST(CrossbarPool, CrossbarsInsideSweepTasksRunInline)
{
    // A crossbar inside a pool task -- the caller's own item or a
    // worker's -- finds the pool running a round, so it steps every
    // window on its own thread with no look-ahead, and writes the
    // bytes of a standalone run.
    CrossbarConfig cfg =
        baseConfig(16, fabric::TrafficPattern::Uniform, 3000);
    cfg.load = 0.85;
    std::uint64_t unused = 0;
    const std::string alone = runCounted(cfg, unused);

    std::vector<std::string> nested(2);
    std::vector<std::uint64_t> ahead(2, 0);
    std::vector<sweep::Task> tasks;
    for (std::size_t k = 0; k < nested.size(); ++k) {
        tasks.push_back({"xbar", [&, k](const sweep::SweepContext &) {
                             nested[k] = runCounted(cfg, ahead[k]);
                             return sweep::TaskResult{};
                         }});
    }
    sweep::SweepOptions opt;
    opt.jobs = 2;
    ASSERT_EQ(sweep::runSweep(tasks, opt).failed, 0u);
    for (std::size_t k = 0; k < nested.size(); ++k) {
        EXPECT_EQ(ahead[k], 0u) << "task " << k << " planned ahead";
        EXPECT_EQ(nested[k], alone) << "task " << k;
    }
}

TEST(CrossbarPool, LaterSweepsAndCrossbarsStartNoThread)
{
    // The pool starts its workers once, on the first round that fans
    // out; every later sweep and crossbar window reuses them.
    if (sweep::availableCpus() == 1)
        GTEST_SKIP() << "one CPU: every round runs inline";
    const auto sweepOnce = [] {
        const std::vector<sweep::Task> tasks(
            8, sweep::Task{"t", [](const sweep::SweepContext &) {
                               return sweep::TaskResult{};
                           }});
        sweep::SweepOptions opt;
        opt.jobs = 0;
        EXPECT_EQ(sweep::runSweep(tasks, opt).failed, 0u);
    };
    CrossbarConfig cfg =
        baseConfig(16, fabric::TrafficPattern::Uniform, 2000);
    cfg.load = 0.85;
    std::uint64_t ahead = 0;
    sweepOnce();
    runCounted(cfg, ahead);
    const std::size_t before = threadCount();
    sweepOnce();
    ahead = 0;
    runCounted(cfg, ahead);
    EXPECT_GT(ahead, 0u) << "the second crossbar never fanned out";
    EXPECT_EQ(threadCount(), before);
}
