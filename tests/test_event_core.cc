/**
 * @file
 * Differential oracle for the event-calendar execution engine: the
 * event core (BufferConfig::eventCore) must be *bit-identical* to
 * the reference per-slot loop -- same grants, drops, golden-checker
 * totals, serialized record bytes and checkpoint bytes -- on every
 * scenario-matrix leg, every timing leg, and a seeded fuzz sweep of
 * random legs crossed with random checkpoint cadences.  Also hosts
 * the stats-correctness regression tests that rode along with the
 * engine PR (zero-grant delay statistics, sweep wall-clock).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "buffer/hybrid_buffer.hh"
#include "common/random.hh"
#include "fuzz_env.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/workload.hh"
#include "soak/checkpoint.hh"
#include "sweep/emit.hh"
#include "sweep/scenario_sweep.hh"
#include "sweep/sweep.hh"

using namespace pktbuf;

namespace
{

/** Serialized record bytes of a leg's outcome -- the exact fields
 *  the sweep artifacts are built from. */
std::string
recordBytes(const sim::Scenario &s, const sim::ScenarioOutcome &o)
{
    std::string out;
    const auto rec = sweep::scenarioRecord(s, o);
    for (const auto &[k, v] : rec.fields())
        out += k + "=" + v.json() + ";";
    return out;
}

/** The same leg with the event engine switched on. */
sim::Scenario
eventTwin(sim::Scenario s)
{
    s.eventEngine = true;
    return s;
}

/**
 * Assert two outcomes are bit-identical: every counter, every
 * double (exact -- both engines must perform the same arithmetic in
 * the same order), and the serialized record bytes.
 */
void
expectIdenticalOutcomes(const sim::Scenario &ref_leg,
                        const sim::ScenarioOutcome &ref,
                        const sim::Scenario &evt_leg,
                        const sim::ScenarioOutcome &evt)
{
    EXPECT_EQ(ref.passed, evt.passed)
        << "ref: " << ref.failure << " evt: " << evt.failure;
    EXPECT_EQ(ref.run.slots, evt.run.slots);
    EXPECT_EQ(ref.run.arrivals, evt.run.arrivals);
    EXPECT_EQ(ref.run.grants, evt.run.grants);
    EXPECT_EQ(ref.run.drops, evt.run.drops);
    EXPECT_EQ(ref.run.meanDelaySlots, evt.run.meanDelaySlots);
    EXPECT_EQ(ref.run.maxDelaySlots, evt.run.maxDelaySlots);
    EXPECT_EQ(ref.drained, evt.drained);
    EXPECT_EQ(ref.verified, evt.verified);
    EXPECT_EQ(ref.undelivered, evt.undelivered);
    EXPECT_EQ(recordBytes(ref_leg, ref), recordBytes(evt_leg, evt));
}

/** Run one leg under both engines and compare everything. */
void
differentialLeg(const sim::Scenario &s)
{
    SCOPED_TRACE(s.describe());
    const auto ref = soak::runScenario(s);
    const sim::Scenario evt_leg = eventTwin(s);
    const auto evt = soak::runScenario(evt_leg);
    expectIdenticalOutcomes(s, ref, evt_leg, evt);
}

// ------------------------------------------------- full-matrix oracle

TEST(EventCoreOracle, DefaultMatrixBitIdentical)
{
    for (const auto &s : sim::defaultMatrix())
        differentialLeg(s);
}

TEST(EventCoreOracle, TimingMatrixBitIdentical)
{
    for (const auto &s : sim::timingMatrix())
        differentialLeg(s);
}

// --------------------------------------------- emitted-artifact bytes

TEST(EventCoreOracle, SweepArtifactsByteIdentical)
{
    // The sweep JSON/CSV the BENCH baselines are built from must not
    // change with the engine: run the smoke matrix through the sweep
    // machinery once per engine and compare the emitted bytes.
    const auto emit = [](bool event_engine) {
        auto legs = sim::smokeMatrix();
        for (auto &s : legs)
            s.eventEngine = event_engine;
        const auto tasks =
            sweep::makeScenarioTasks(legs, /*deriveSeeds=*/false);
        sweep::SweepOptions opt;
        opt.jobs = 1;
        const auto rep = sweep::runSweep(tasks, opt);
        EXPECT_EQ(rep.failed, 0u);
        sweep::EmitMeta meta;
        meta.tool = "event_core_oracle";
        return sweep::toJson(rep, tasks, meta) + "\n" +
               sweep::toCsv(rep, tasks);
    };
    EXPECT_EQ(emit(false), emit(true));
}

// --------------------------------------------------- checkpoint bytes

/** Representative legs across the architecture space. */
std::vector<sim::Scenario>
checkpointLegs()
{
    std::vector<sim::Scenario> picked;
    for (const auto &s : sim::defaultMatrix()) {
        const auto n = s.name();
        if (n == "rads_adversarial_q8_B8_b8" ||
            n == "cfds_bursty_q8_B8_b2" ||
            n == "cfds_bernoulli_q16_B8_b2" ||
            n == "renaming_drainperm_q8_B8_b2_p16") {
            picked.push_back(s);
        }
    }
    for (const auto &s : sim::timingMatrix()) {
        if (s.name() == "cfds_bernoulli_q8_B8_b2_refresh")
            picked.push_back(s);
    }
    EXPECT_EQ(picked.size(), 5u);
    return picked;
}

TEST(EventCoreOracle, CheckpointBytesEngineAgnostic)
{
    // Both engines paused at the same slot must serialize the *same
    // bytes*: every derived structure the event core adds is either
    // unserialized or rebuilt, and the shift registers normalize
    // their rotation.  This is what makes checkpoints portable
    // across engines.
    for (const auto &s : checkpointLegs()) {
        SCOPED_TRACE(s.describe());
        soak::ScenarioRun ref(s);
        soak::ScenarioRun evt(eventTwin(s));
        for (const unsigned pct : {25u, 50u, 75u}) {
            SCOPED_TRACE("at " + std::to_string(pct) + "%");
            ref.runTo(s.slots * pct / 100);
            evt.runTo(s.slots * pct / 100);
            EXPECT_EQ(ref.checkpoint(), evt.checkpoint());
        }
    }
}

TEST(EventCoreOracle, CrossEngineRestore)
{
    // A checkpoint written by one engine restores into the other and
    // finishes bit-identically to an unbroken reference run.
    for (const auto &s : checkpointLegs()) {
        SCOPED_TRACE(s.describe());
        const auto plain = soak::runScenario(s);
        const auto expect = recordBytes(s, plain);
        const sim::Scenario evt_leg = eventTwin(s);
        // The odd cursors sit off the b and B interval grid.
        const std::uint64_t half = s.slots / 2;
        for (const std::uint64_t at : {half, half + 1, half + 3}) {
            SCOPED_TRACE("restore at slot " + std::to_string(at));
            soak::ScenarioRun ref(s);
            ref.runTo(at);
            soak::ScenarioRun evt(evt_leg);
            evt.restore(ref.checkpoint());
            const auto via_event = evt.finish();
            EXPECT_EQ(via_event.passed, plain.passed)
                << via_event.failure;
            EXPECT_EQ(recordBytes(evt_leg, via_event), expect);

            soak::ScenarioRun evt2(evt_leg);
            evt2.runTo(at);
            soak::ScenarioRun ref2(s);
            ref2.restore(evt2.checkpoint());
            const auto via_ref = ref2.finish();
            EXPECT_EQ(via_ref.passed, plain.passed) << via_ref.failure;
            EXPECT_EQ(recordBytes(s, via_ref), expect);
        }
    }
}

// ------------------------------------------------- idle-heavy legs

/**
 * Legs at loads 0.02-0.1, where most slots are inert and the event
 * engine leaps over them: RADS, CFDS with the legacy and the bursty
 * pattern, renaming, and a timed-DRAM family (unbiased picker).
 */
std::vector<sim::Scenario>
idleLegs()
{
    const std::vector<std::pair<std::string, double>> want = {
        {"rads_bernoulli_q8_B8_b8", 0.02},
        {"cfds_bernoulli_q16_B8_b2", 0.05},
        {"cfds_bursty_q8_B8_b2", 0.1},
        {"renaming_bernoulli_q8_B8_b2_p16", 0.1},
        {"cfds_bernoulli_q8_B8_b2_refresh", 0.05},
    };
    auto all = sim::defaultMatrix();
    const auto timing = sim::timingMatrix();
    all.insert(all.end(), timing.begin(), timing.end());
    std::vector<sim::Scenario> picked;
    for (const auto &[name, load] : want) {
        for (auto s : all) {
            if (s.name() == name) {
                s.load = load;
                s.slots = 6000;
                picked.push_back(s);
            }
        }
    }
    EXPECT_EQ(picked.size(), want.size());
    return picked;
}

TEST(EventCoreOracle, IdleLegsCheckpointLikeTheReferenceEngine)
{
    for (const auto &s : idleLegs()) {
        SCOPED_TRACE(s.describe());
        soak::ScenarioRun ref(s);
        const sim::Scenario evt_leg = eventTwin(s);
        soak::ScenarioRun evt(evt_leg);
        for (const std::uint64_t at :
             std::vector<std::uint64_t>{1, 97, 1000, 2501, 4096, s.slots}) {
            SCOPED_TRACE("at slot " + std::to_string(at));
            ref.runTo(at);
            evt.runTo(at);
            EXPECT_EQ(ref.checkpoint(), evt.checkpoint());
        }
        const auto ref_out = ref.finish();
        const auto evt_out = evt.finish();
        EXPECT_TRUE(evt_out.passed) << evt_out.failure;
        EXPECT_GT(evt_out.run.grants, 0u);
        expectIdenticalOutcomes(s, ref_out, evt_leg, evt_out);
    }
}

/** Buffer, workload and runner bytes of an MDQF leg (no Scenario
 *  knob selects MDQF) run through SimRunner to each slot of `at`. */
std::vector<std::string>
mdqfCheckpoints(bool event_engine, const std::vector<std::uint64_t> &at)
{
    sim::Scenario s;
    s.variant = sim::BufferVariant::Cfds;
    s.workload = sim::WorkloadKind::Bernoulli;
    s.queues = 8;
    s.granRads = 8;
    s.gran = 2;
    s.groups = 4;
    s.load = 0.05;
    s.seed = 5;
    s.eventEngine = event_engine;
    auto cfg = s.bufferConfig();
    cfg.mma = buffer::MmaKind::Mdqf;
    buffer::HybridBuffer buf(cfg);
    const auto wl = sim::makeWorkload(s);
    sim::SimRunner runner(buf, *wl);
    std::vector<std::string> out;
    for (const auto slot : at) {
        runner.run(slot - buf.now());
        ser::Writer w;
        buf.save(w);
        wl->save(w);
        ser::save(w, runner);
        out.push_back(w.bytes());
    }
    return out;
}

TEST(EventCoreOracle, IdleMdqfLegSteppedPerSlotMatchesReference)
{
    // MDQF replenishes from occupancy deficit alone, so the event
    // engine never leaps it; its bytes must still match.
    const std::vector<std::uint64_t> at = {1, 333, 2048, 5000};
    EXPECT_EQ(mdqfCheckpoints(false, at), mdqfCheckpoints(true, at));
}

TEST(EventCoreOracle, AnyRunToChunkingMatchesAnUnbrokenRun)
{
    // runTo boundaries cut the workload's pre-rolled idle runs and
    // the buffer's leaps.  A run in chunks of any length 1..64, on
    // either engine, must checkpoint at every boundary exactly as a
    // reference run that went there in one call.
    sim::Scenario s = idleLegs()[1];
    s.slots = 640;
    std::vector<std::string> unbroken(s.slots + 1);
    for (std::uint64_t t = 1; t <= s.slots; ++t) {
        soak::ScenarioRun r(s);
        r.runTo(t);
        unbroken[t] = r.checkpoint();
    }
    for (const bool event_engine : {false, true}) {
        sim::Scenario leg = s;
        leg.eventEngine = event_engine;
        for (std::uint64_t len = 1; len <= 64; ++len) {
            soak::ScenarioRun r(leg);
            for (std::uint64_t t = len; t <= s.slots; t += len) {
                r.runTo(t);
                if (r.checkpoint() != unbroken[t]) {
                    ADD_FAILURE() << "engine " << event_engine
                                  << ", chunks of " << len
                                  << ": first mismatch at slot " << t;
                    break;
                }
            }
        }
    }
}

TEST(EventCoreLeap, AdvanceIdleStopsAtEachInternalEvent)
{
    sim::Scenario s;
    s.variant = sim::BufferVariant::Cfds;
    s.queues = 4;
    s.granRads = 8;
    s.gran = 2;
    s.groups = 4;
    s.eventEngine = true;
    buffer::HybridBuffer buf(s.bufferConfig());
    const Slot far = 1ull << 40;
    // An empty buffer leaps any distance in one call.
    EXPECT_TRUE(buf.advanceIdle(1000));
    EXPECT_EQ(buf.now(), 1000u);

    // One cell of queue 0, requested on the next slot.
    Cell c;
    c.queue = 0;
    c.arrival = buf.now();
    EXPECT_FALSE(buf.step(c, kInvalidQueue));
    const Slot entered = buf.now();
    EXPECT_FALSE(buf.step(std::nullopt, 0));
    // Queue 0 is now critical: the next interval edge replenishes it
    // (through the bypass, the cell is still in the t-SRAM).
    ASSERT_EQ(buf.now() % s.gran, 0u);
    EXPECT_FALSE(buf.advanceIdle(far));
    EXPECT_EQ(buf.now(), entered + 1);
    EXPECT_FALSE(buf.step(std::nullopt, kInvalidQueue));
    // Then nothing happens until the request leaves the lookahead
    // ...
    EXPECT_FALSE(buf.advanceIdle(far));
    EXPECT_EQ(buf.now(), entered + buf.lookaheadDepth());
    EXPECT_FALSE(buf.step(std::nullopt, kInvalidQueue));
    // ... and the latency register, where the grant is due.
    EXPECT_FALSE(buf.advanceIdle(far));
    EXPECT_EQ(buf.now(), entered + buf.pipelineDepth());
    const auto g = buf.step(std::nullopt, kInvalidQueue);
    ASSERT_TRUE(g);
    EXPECT_EQ(g->logicalQueue, 0u);
    EXPECT_EQ(g->cell.seq, 0u);
    // Empty again: `to` is reached.
    EXPECT_TRUE(buf.advanceIdle(far));
    EXPECT_EQ(buf.now(), far);
}

TEST(EventCoreLeap, ReferenceEngineAndMdqfNeverLeap)
{
    sim::Scenario s;
    s.variant = sim::BufferVariant::Cfds;
    s.queues = 4;
    s.granRads = 8;
    s.gran = 2;
    s.groups = 4;
    buffer::HybridBuffer ref(s.bufferConfig());
    EXPECT_FALSE(ref.advanceIdle(10));
    EXPECT_EQ(ref.now(), 0u);
    s.eventEngine = true;
    auto cfg = s.bufferConfig();
    cfg.mma = buffer::MmaKind::Mdqf;
    buffer::HybridBuffer mdqf(cfg);
    EXPECT_FALSE(mdqf.advanceIdle(10));
    EXPECT_EQ(mdqf.now(), 0u);
    // Reaching `to` is trivially true when already there.
    EXPECT_TRUE(mdqf.advanceIdle(0));
}

// --------------------------------------------------------- fuzz smoke

/**
 * Seeded differential fuzz: random matrix legs (fresh seeds, random
 * slot budgets) run under the event engine through the
 * checkpoint-every-M soak driver and compared to the unbroken
 * reference run.  PKTBUF_FUZZ_ITERS scales the iteration count (the
 * nightly workflow runs this at 100x); failures print the leg
 * description, seed and cadence for replay.
 */
TEST(EventCoreFuzzSmoke, RandomLegsMatchReference)
{
    const std::uint64_t master =
        testutil::envU64("PKTBUF_FUZZ_SEED", 1);
    const std::uint64_t iters =
        testutil::envU64("PKTBUF_FUZZ_ITERS", 3);
    const auto matrix = sim::defaultMatrix();
    Rng rng(master);
    for (std::uint64_t it = 0; it < iters; ++it) {
        sim::Scenario s = matrix[rng.below(matrix.size())];
        s.seed = rng.next();  // fresh seed: a genuinely new leg
        s.slots = 2000 + rng.below(4000);
        const std::uint64_t every = 1 + s.slots / (2 + rng.below(6));
        std::ostringstream desc;
        desc << "fuzz iter " << it << ": " << s.describe()
             << " every=" << every << " (PKTBUF_FUZZ_SEED=" << master
             << ")";
        SCOPED_TRACE(desc.str());
        const auto ref = soak::runScenario(s);
        const sim::Scenario evt_leg = eventTwin(s);
        const auto evt =
            soak::runCheckpointed<soak::ScenarioRun>(evt_leg, every);
        expectIdenticalOutcomes(s, ref, evt_leg, evt);
    }
}

// ----------------------------------- bugfix: zero-grant delay stats

/**
 * Regression (stats-correctness sweep): a run that grants nothing
 * must report meanDelaySlots / maxDelaySlots of exactly 0.0 -- never
 * NaN or -inf from an empty sampler -- through both SimRunner::run
 * and the drain path.
 */
TEST(RunnerStats, ZeroGrantRunReportsZeroDelays)
{
    sim::Scenario s;
    s.variant = sim::BufferVariant::Cfds;
    s.queues = 8;
    s.granRads = 8;
    s.gran = 2;
    s.groups = 4;
    buffer::HybridBuffer buf(s.bufferConfig());
    // Zero load: no arrivals, no requests, hence no grants ever.
    sim::UniformRandom wl(s.queues, /*seed=*/42, /*load=*/0.0);
    sim::SimRunner runner(buf, wl, /*check=*/true);

    const auto after_run = runner.run(500);
    EXPECT_EQ(after_run.grants, 0u);
    EXPECT_EQ(after_run.meanDelaySlots, 0.0);
    EXPECT_EQ(after_run.maxDelaySlots, 0.0);
    EXPECT_TRUE(std::isfinite(after_run.meanDelaySlots));
    EXPECT_TRUE(std::isfinite(after_run.maxDelaySlots));

    EXPECT_EQ(runner.drain(1000), 0u);
    const auto after_drain = runner.run(0);
    EXPECT_EQ(after_drain.grants, 0u);
    EXPECT_EQ(after_drain.meanDelaySlots, 0.0);
    EXPECT_EQ(after_drain.maxDelaySlots, 0.0);
}

// ------------------------------------- bugfix: sweep wall-clock

/**
 * Regression (stats-correctness sweep): SweepReport::wallSeconds is
 * one wall interval for the whole sweep and is excluded from the
 * emitted artifacts -- so two runs of the same sweep at different
 * thread counts agree on *everything else*, byte for byte.
 */
TEST(SweepStats, OnlyWallSecondsMayDifferAcrossJobCounts)
{
    auto legs = sim::smokeMatrix();
    legs.resize(8);  // enough tasks to occupy 8 workers
    const auto tasks =
        sweep::makeScenarioTasks(legs, /*deriveSeeds=*/false);
    sweep::SweepOptions opt1;
    opt1.jobs = 1;
    sweep::SweepOptions opt8;
    opt8.jobs = 8;
    const auto rep1 = sweep::runSweep(tasks, opt1);
    const auto rep8 = sweep::runSweep(tasks, opt8);

    EXPECT_EQ(rep1.failed, rep8.failed);
    ASSERT_EQ(rep1.results.size(), rep8.results.size());
    for (std::size_t i = 0; i < rep1.results.size(); ++i) {
        SCOPED_TRACE("task " + std::to_string(i));
        EXPECT_EQ(rep1.results[i].ok, rep8.results[i].ok);
        EXPECT_EQ(rep1.results[i].text, rep8.results[i].text);
        EXPECT_EQ(rep1.results[i].error, rep8.results[i].error);
    }
    EXPECT_GE(rep1.wallSeconds, 0.0);
    EXPECT_GE(rep8.wallSeconds, 0.0);
    // The artifacts are purely a function of the results: byte
    // identity across job counts, wallSeconds notwithstanding.
    sweep::EmitMeta meta;
    meta.tool = "wall_seconds_regression";
    EXPECT_EQ(sweep::toJson(rep1, tasks, meta),
              sweep::toJson(rep8, tasks, meta));
    EXPECT_EQ(sweep::toCsv(rep1, tasks),
              sweep::toCsv(rep8, tasks));
}

} // namespace
