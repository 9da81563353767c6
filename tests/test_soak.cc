/**
 * @file
 * Soak-layer tests: the serialization codec, the joint P^2 streaming
 * quantile estimator, the checkpoint envelope (including corruption
 * rejection), and the layer's core invariant -- save-at-slot-k +
 * restore-into-fresh-objects + run-to-N is bit-identical to an
 * unbroken N-slot run, on every scenario-matrix leg, every timing
 * leg, and a multi-port switch smoke.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "crossbar/crossbar_sim.hh"
#include "fabric/fabric.hh"
#include "fuzz_env.hh"
#include "soak/checkpoint.hh"
#include "sweep/scenario_sweep.hh"
#include "switch/switch_sim.hh"

using namespace pktbuf;

namespace
{

// ------------------------------------------------------------- codec

TEST(SerializeCodec, RoundTripsEveryFieldType)
{
    ser::Writer w;
    w.tag("TEST");
    w.u8(0xab);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.i64(-42);
    w.b(true);
    w.real(3.141592653589793);
    w.real(-0.0);
    w.str("hello \0 world");  // embedded NUL survives via length
    const std::string bytes = w.take();

    ser::Reader r(bytes);
    r.tag("TEST");
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_TRUE(r.b());
    EXPECT_EQ(r.real(), 3.141592653589793);
    EXPECT_TRUE(std::signbit(r.real()));  // -0.0 bit-exact
    EXPECT_EQ(r.str(), std::string("hello "));
    r.done();
}

TEST(SerializeCodec, RejectsMalformedInput)
{
    ser::Writer w;
    w.tag("GOOD");
    w.u64(7);
    const std::string bytes = w.take();

    {
        ser::Reader r(bytes);
        EXPECT_THROW(r.tag("EVIL"), FatalError);
    }
    {
        // Short read: ask for more than remains.  The Reader holds a
        // view, so the buffer must outlive it -- keep a named local.
        const std::string head = bytes.substr(0, 6);
        ser::Reader r(head);
        r.tag("GOOD");
        EXPECT_THROW(r.u64(), FatalError);
    }
    {
        // Trailing bytes must be an error, not silence.
        const std::string padded = bytes + "x";
        ser::Reader r(padded);
        r.tag("GOOD");
        EXPECT_EQ(r.u64(), 7u);
        EXPECT_THROW(r.done(), FatalError);
    }
    {
        // A bool octet above 1 is corruption, not "truthy".
        const std::string bad("\x02", 1);
        ser::Reader r(bad);
        EXPECT_THROW(r.b(), FatalError);
    }
}

TEST(SerializeCodec, RngStreamContinuesAcrossRoundTrip)
{
    Rng a(12345);
    for (int i = 0; i < 100; ++i)
        a.next();
    ser::Writer w;
    a.save(w);
    Rng b(999);  // different seed; load must fully overwrite
    ser::Reader r(w.bytes());
    b.load(r);
    r.done();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

// ------------------------------------------- joint P^2 estimator

/** Exact percentile: linear interpolation at rank p*(n-1). */
double
exactQuantile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    const double rank = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    if (lo + 1 >= v.size())
        return v.back();
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + frac * (v[lo + 1] - v[lo]);
}

/**
 * Regression (stats-correctness sweep): *independent* P^2 estimators
 * can cross each other -- on the pinned alternating stream {0, 0.5,
 * 0, 0.5, ...} a standalone p50 exceeds a standalone p99 at n == 7
 * -- which is the defect the old SwitchReport flooring hack papered
 * over.  The joint P2QuantileSet shares one sorted marker vector, so
 * its quantiles are ordered by construction; the hack is gone.
 */
TEST(P2QuantileSet, PinnedCrossingStreamStaysOrdered)
{
    P2QuantileSet joint({0.5, 0.99});
    for (int n = 1; n <= 50; ++n) {
        joint.sample(((n - 1) % 2) * 0.5);
        EXPECT_GE(joint.quantile(0.99), joint.quantile(0.5))
            << "n=" << n;
    }
}

TEST(P2QuantileSet, TracksExactPercentilesOnLargeStreams)
{
    // Deterministic smooth uniform stream: the P^2 markers must stay
    // close to the exact percentile of the full sample.
    Rng rng(7);
    std::vector<double> all;
    P2QuantileSet q({0.5, 0.99});
    for (int i = 0; i < 20000; ++i) {
        const double v =
            static_cast<double>(rng.below(100000)) / 100.0;
        all.push_back(v);
        q.sample(v);
    }
    // Uniform on [0, 1000): exact p50 ~ 500, p99 ~ 990.
    EXPECT_NEAR(q.quantile(0.5), exactQuantile(all, 0.5), 10.0);
    EXPECT_NEAR(q.quantile(0.99), exactQuantile(all, 0.99), 10.0);
    // Estimates never leave the observed range.
    EXPECT_GE(q.quantile(0.5), 0.0);
    EXPECT_LE(q.quantile(0.99), 1000.0);
}

TEST(P2QuantileSet, ExactForSevenOrFewerSamples)
{
    // 2k+3 = 7 markers for two targets: the estimator holds every
    // sample until the marker count is exceeded, so small-n results
    // are the exact order statistics.
    const std::vector<double> data = {4.0, 1.0, 3.0, 2.0,
                                      7.0, 5.0, 6.0};
    for (std::size_t n = 1; n <= data.size(); ++n) {
        const std::vector<double> prefix(data.begin(),
                                         data.begin() + n);
        P2QuantileSet q({0.5, 0.99});
        for (const double v : prefix)
            q.sample(v);
        EXPECT_DOUBLE_EQ(q.quantile(0.5),
                         exactQuantile(prefix, 0.5))
            << "n=" << n;
        EXPECT_DOUBLE_EQ(q.quantile(0.99),
                         exactQuantile(prefix, 0.99))
            << "n=" << n;
    }
}

TEST(P2QuantileSet, OrderedAndCloseOnAdversarialStreams)
{
    // Duplicate-heavy and monotone streams are the classic P^2
    // stress cases (marker positions saturate); the joint estimator
    // must stay ordered everywhere and track the exact percentile.
    const auto run = [](const std::vector<double> &stream,
                        double tol50, double tol99) {
        P2QuantileSet q({0.5, 0.99});
        std::vector<double> seen;
        for (const double v : stream) {
            q.sample(v);
            seen.push_back(v);
            ASSERT_GE(q.quantile(0.99), q.quantile(0.5))
                << "after " << seen.size() << " samples";
        }
        EXPECT_NEAR(q.quantile(0.5), exactQuantile(seen, 0.5),
                    tol50);
        EXPECT_NEAR(q.quantile(0.99), exactQuantile(seen, 0.99),
                    tol99);
    };

    // 90% duplicates of one value, 10% outliers.
    std::vector<double> dup;
    Rng rng(13);
    for (int i = 0; i < 5000; ++i)
        dup.push_back(rng.below(10) == 0
                          ? 100.0 + double(rng.below(100))
                          : 7.0);
    run(dup, 1.0, 60.0);

    // Monotone ascending and descending.
    std::vector<double> asc, desc;
    for (int i = 0; i < 5000; ++i) {
        asc.push_back(double(i));
        desc.push_back(double(5000 - i));
    }
    run(asc, 100.0, 100.0);
    run(desc, 100.0, 100.0);
}

TEST(P2QuantileSet, RoundTripsMidStream)
{
    P2QuantileSet a({0.5, 0.99});
    Rng rng(5);
    for (int i = 0; i < 10000; ++i)
        a.sample(static_cast<double>(rng.below(1 << 16)));

    ser::Writer w;
    a.save(w);
    P2QuantileSet b({0.5, 0.99});
    ser::Reader r(w.bytes());
    b.load(r);
    r.done();

    EXPECT_EQ(a.count(), b.count());
    for (int i = 0; i < 10000; ++i) {
        const double v = static_cast<double>(rng.below(1 << 16));
        a.sample(v);
        b.sample(v);
    }
    EXPECT_EQ(a.quantile(0.5), b.quantile(0.5));
    EXPECT_EQ(a.quantile(0.99), b.quantile(0.99));
}

TEST(P2QuantileSet, LoadRejectsDifferentTargets)
{
    // Same target count, different targets: restoring must fail
    // loudly rather than leave markers built for 0.9 answering 0.99.
    P2QuantileSet a({0.5, 0.9});
    for (int i = 0; i < 100; ++i)
        a.sample(static_cast<double>(i));
    ser::Writer w;
    a.save(w);
    P2QuantileSet b({0.5, 0.99});
    ser::Reader r(w.bytes());
    EXPECT_THROW(b.load(r), FatalError);
}

TEST(AggregateStat, MatchesExactPercentiles)
{
    // <= 5 ports: the aggregation is exact by construction.
    const std::vector<double> four = {4.0, 1.0, 3.0, 2.0};
    const auto a = fabric::aggregateStat(four);
    EXPECT_DOUBLE_EQ(a.p50, exactQuantile(four, 0.50));
    EXPECT_DOUBLE_EQ(a.p99, exactQuantile(four, 0.99));
    EXPECT_DOUBLE_EQ(a.max, 4.0);

    // Larger port counts: close to exact, inside [min, max], and
    // monotone (p99 >= p50) -- the properties a fixed-width
    // histogram could not guarantee.
    std::vector<double> many;
    Rng rng(11);
    for (int i = 0; i < 64; ++i)
        many.push_back(static_cast<double>(rng.below(1000)));
    const auto m = fabric::aggregateStat(many);
    EXPECT_NEAR(m.p50, exactQuantile(many, 0.50), 60.0);
    EXPECT_GE(m.p99, m.p50);
    EXPECT_GE(m.p50, m.min);
    EXPECT_LE(m.p99, m.max);
}

// -------------------------------------------------- stat registry

TEST(StatRegistry, LoadPreservesComponentPointers)
{
    StatRegistry reg;
    Counter &c = reg.counter("layer.events");
    c.inc(5);
    Sampler &s = reg.sampler("layer.delay");
    s.sample(2.0);
    HighWater &hw = reg.highWater("layer.occupancy");
    hw.observe(7);

    ser::Writer w;
    reg.save(w);
    c.inc(100);  // diverge after the snapshot
    s.sample(9.0);
    hw.observe(40);

    ser::Reader r(w.bytes());
    reg.load(r);
    r.done();
    // The references obtained before load() must still be live and
    // must see the restored values: components cache Counter* (and
    // friends) across checkpoint cycles.
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.max(), 2.0);
    EXPECT_EQ(hw.max(), 7);
}

// ---------------------------------------------- checkpoint envelope

TEST(CheckpointEnvelope, SealOpenRoundTrip)
{
    const std::string payload = "arbitrary \x00\x01\x02 bytes";
    const auto sealed = soak::sealCheckpoint(payload, 0x1234);
    EXPECT_EQ(soak::openCheckpoint(sealed, 0x1234), payload);
}

TEST(CheckpointEnvelope, RejectsCorruptionAndMismatch)
{
    const std::string payload(256, 'z');
    const auto sealed = soak::sealCheckpoint(payload, 77);

    // Wrong configuration fingerprint.
    EXPECT_THROW(soak::openCheckpoint(sealed, 78), FatalError);
    // Truncation (short read).
    EXPECT_THROW(
        soak::openCheckpoint(sealed.substr(0, sealed.size() / 2), 77),
        FatalError);
    // Bit rot in the payload flips the checksum.
    {
        std::string bad = sealed;
        bad[bad.size() / 2] ^= 0x40;
        EXPECT_THROW(soak::openCheckpoint(bad, 77), FatalError);
    }
    // Unknown version.
    {
        std::string bad = sealed;
        bad[4] = 0x7f;  // version lives right after the 4-byte magic
        EXPECT_THROW(soak::openCheckpoint(bad, 77), FatalError);
    }
    // An otherwise well-formed envelope of the previous version: its
    // StatRegistry blocks carry a section this build no longer reads.
    {
        ser::Writer w;
        w.tag("PKCK");
        w.u32(1);
        w.u64(77);
        w.str(payload);
        w.u64(ser::fnv1a(payload));
        EXPECT_THROW(soak::openCheckpoint(w.take(), 77), FatalError);
    }
    // Trailing garbage.
    EXPECT_THROW(soak::openCheckpoint(sealed + "!", 77), FatalError);
    // Wrong magic.
    {
        std::string bad = sealed;
        bad[0] = 'X';
        EXPECT_THROW(soak::openCheckpoint(bad, 77), FatalError);
    }
}

TEST(CheckpointEnvelope, FileRoundTripAndMissingFile)
{
    const std::string path =
        ::testing::TempDir() + "pktbuf_ck_test.bin";
    const auto sealed = soak::sealCheckpoint("state", 1);
    soak::writeFile(path, sealed);
    EXPECT_EQ(soak::readFile(path), sealed);
    std::remove(path.c_str());
    EXPECT_THROW(soak::readFile(path), FatalError);
}

TEST(CheckpointEnvelope, RestoreRejectsForeignLeg)
{
    // A checkpoint from one leg must not restore into another: the
    // describe() fingerprint differs (different seed).
    auto legs = sim::smokeMatrix();
    ASSERT_GE(legs.size(), 2u);
    soak::ScenarioRun a(legs[0]);
    a.runTo(100);
    const auto bytes = a.checkpoint();
    soak::ScenarioRun b(legs[1]);
    EXPECT_THROW(b.restore(bytes), FatalError);
}

TEST(CheckpointEnvelope, RestoreRejectsOutOfRangeRenamingName)
{
    // A re-sealed checkpoint whose renaming chain names a physical
    // queue the buffer does not have must fail the restore; a
    // restore that accepted it would index per-queue state out of
    // bounds once the leg continued.
    sim::Scenario s;
    for (const auto &leg : sim::smokeMatrix())
        if (leg.variant == sim::BufferVariant::CfdsRenaming)
            s = leg;
    ASSERT_EQ(s.variant, sim::BufferVariant::CfdsRenaming);
    soak::ScenarioRun a(s);
    a.runTo(s.slots / 2);
    const auto fingerprint = ser::fnv1a(s.describe());
    std::string payload = soak::openCheckpoint(a.checkpoint(), fingerprint);

    // Walk the renaming section (tag, queue count, then per queue a
    // request cursor, an element count and 28-byte elements) to the
    // first element's u32 physical name.
    const auto u64At = [&payload](std::size_t pos) {
        std::uint64_t v = 0;
        for (int i = 7; i >= 0; --i)
            v = v << 8 | static_cast<unsigned char>(payload[pos + i]);
        return v;
    };
    std::size_t pos = payload.find("RNTB");
    ASSERT_NE(pos, std::string::npos);
    pos += 4;
    const auto queues = u64At(pos);
    pos += 8;
    bool patched = false;
    for (std::uint64_t q = 0; q < queues && !patched; ++q) {
        const auto elems = u64At(pos + 8);
        pos += 16;
        if (elems > 0) {
            const std::uint32_t bad = 100000;
            for (int i = 0; i < 4; ++i)
                payload[pos + i] = static_cast<char>(bad >> (8 * i));
            patched = true;
        }
        pos += elems * 28;
    }
    ASSERT_TRUE(patched);

    soak::ScenarioRun b(s);
    EXPECT_THROW(b.restore(soak::sealCheckpoint(payload, fingerprint)),
                 FatalError);
}

// ------------------------------------------------- bit identity

/** The leg's emitted record, flattened to comparable bytes. */
std::string
recordBytes(const sim::Scenario &s, const sim::ScenarioOutcome &o)
{
    std::string out;
    const auto rec = sweep::scenarioRecord(s, o);
    for (const auto &[k, v] : rec.fields())
        out += k + "=" + v.json() + ";";
    return out;
}

std::string
portRecordBytes(const sw::PortPlan &plan,
                const sim::ScenarioOutcome &o)
{
    std::string out;
    const auto rec = sw::portRecord(plan, o);
    for (const auto &[k, v] : rec.fields())
        out += k + "=" + v.json() + ";";
    return out;
}

/**
 * Core invariant on one leg: for saves at 25/50/75% of the main
 * phase, restore into completely fresh objects and finish; the
 * emitted record must equal the unbroken run's byte for byte.
 */
void
expectBitIdentical(const sim::Scenario &s)
{
    SCOPED_TRACE(s.describe());
    const auto plain = soak::runScenario(s);
    const auto expect = recordBytes(s, plain);
    // The quartiles mostly fall on the b and B interval grid; the
    // odd cursors restore mid-interval with reads in flight, so the
    // derived interval cursor and next due slot are rebuilt there.
    const std::uint64_t half = s.slots / 2;
    for (const std::uint64_t at : {s.slots / 4, half, s.slots * 3 / 4,
                                   half + 1, half + 3}) {
        SCOPED_TRACE("save at slot " + std::to_string(at));
        soak::ScenarioRun a(s);
        a.runTo(at);
        const auto bytes = a.checkpoint();
        soak::ScenarioRun b(s);
        b.restore(bytes);
        const auto seg = b.finish();
        EXPECT_EQ(seg.passed, plain.passed);
        EXPECT_EQ(recordBytes(s, seg), expect);
    }
}

TEST(SoakBitIdentity, EveryScenarioMatrixLeg)
{
    for (const auto &s : sim::defaultMatrix())
        expectBitIdentical(s);
}

TEST(SoakBitIdentity, EveryTimingLeg)
{
    for (const auto &s : sim::timingMatrix())
        expectBitIdentical(s);
}

TEST(SoakBitIdentity, CheckpointEveryMSelfTest)
{
    // The nightly driver's mode: checkpoint every M slots, restoring
    // each snapshot into a fresh run before continuing.
    for (const auto &s : sim::smokeMatrix()) {
        SCOPED_TRACE(s.describe());
        const auto plain = soak::runScenario(s);
        const auto seg =
            soak::runCheckpointed<soak::ScenarioRun>(s, s.slots / 7 + 1);
        EXPECT_EQ(recordBytes(s, seg), recordBytes(s, plain));
    }
}

TEST(SoakBitIdentity, FourPortSwitchSmoke)
{
    // A 4-port mixed-variant switch: every port (CFDS, RADS,
    // renaming) checkpoints and restores through the same driver,
    // with the port's workload injected via the factory.
    sw::SwitchConfig cfg;
    cfg.ports = 4;
    cfg.mixedVariants = true;
    cfg.slots = 4000;
    cfg.masterSeed = 20260808;
    const auto plans = sw::planPorts(cfg);
    for (const auto &plan : plans) {
        SCOPED_TRACE("port " + std::to_string(plan.port) + ": " +
                     plan.scenario.describe());
        const soak::WorkloadFactory factory = [&plan] {
            return sw::makePortWorkload(plan);
        };
        const auto plain = soak::runScenario(plan.scenario, factory);
        const auto expect = portRecordBytes(plan, plain);
        for (const unsigned pct : {25u, 50u, 75u}) {
            SCOPED_TRACE("save at " + std::to_string(pct) + "%");
            soak::ScenarioRun a(plan.scenario, factory);
            a.runTo(plan.scenario.slots * pct / 100);
            const auto bytes = a.checkpoint();
            soak::ScenarioRun b(plan.scenario, factory);
            b.restore(bytes);
            const auto seg = b.finish();
            EXPECT_EQ(seg.passed, plain.passed);
            EXPECT_EQ(portRecordBytes(plan, seg), expect);
        }
    }
}

// --------------------------------------------------- leg driver

/** `text` with the source location of a fatal, "(<file>:<line>)",
 *  cut down to "(<where>)": the path depends on the checkout. */
std::string
withoutWhere(const std::string &text)
{
    static const std::regex where(R"(\([^()]*\.cc:[0-9]+\))");
    return std::regex_replace(text, where, "(<where>)");
}

TEST(LegDriver, ConstructionFailureTextIsPinned)
{
    // A granularity that does not divide B fails every buffer's
    // construction.  Matrix legs, switch ports and crossbar inputs
    // all run through soak::runCheckpointed, so each reports the one
    // catch's text, byte for byte the text of the drivers it
    // replaced.
    const std::string why =
        "exception: fatal: b=3 must divide B=8 (<where>); [";

    sim::Scenario s;
    s.variant = sim::BufferVariant::Cfds;
    s.gran = 3;
    s.groups = 4;
    s.slots = 100;
    s.seed = 77;
    const auto leg = soak::runScenario(s);
    EXPECT_FALSE(leg.passed);
    EXPECT_EQ(withoutWhere(leg.failure),
              why + "cfds_adversarial_q8_B8_b3 groups=4 "
                    "dram=unbounded load=1 slots=100 seed=77]");

    sw::SwitchConfig sc;
    sc.ports = 2;
    sc.gran = 3;
    sc.slots = 100;
    const auto ports = sw::runPlans(sw::planPorts(sc), 2);
    EXPECT_FALSE(ports.passed);
    EXPECT_EQ(withoutWhere(ports.failure),
              "port0: " + why +
                  "cfds_bernoulli_q8_B8_b3 groups=4 dram=unbounded "
                  "load=0.45 slots=100 seed=10451216379200822465] | "
                  "port1: " + why +
                  "cfds_bernoulli_q8_B8_b3 groups=4 dram=unbounded "
                  "load=0.45 slots=100 seed=13757245211066428519]");

    xbar::CrossbarConfig xc;
    xc.ports = 2;
    xc.gran = 3;
    xc.slots = 100;
    const auto fabric = xbar::runCrossbar(xc);
    EXPECT_FALSE(fabric.passed);
    EXPECT_EQ(withoutWhere(fabric.failure),
              why + "xbar_islip_uniform_p2_cfds_B8_b3 groups=4 "
                    "load=0.45 slots=100 master_seed=1 "
                    "islip_iters=4]");
}

TEST(LegDriver, LegOfferedNoCellPasses)
{
    // Nothing arrived and nothing was dropped: nothing to deliver.
    sim::Scenario s;
    s.variant = sim::BufferVariant::Cfds;
    s.gran = 2;
    s.groups = 4;
    s.workload = sim::WorkloadKind::Bernoulli;
    s.load = 0.0;
    s.slots = 500;
    const auto out = soak::runScenario(s);
    EXPECT_TRUE(out.passed) << out.failure;
    EXPECT_EQ(out.run.arrivals, 0u);
    EXPECT_EQ(out.verified, 0u);
}

// --------------------------------------------------- fuzz smoke

/**
 * Seeded soak fuzz: random matrix legs run through the
 * checkpoint-every-M driver and compared to their unbroken twin.
 * PKTBUF_FUZZ_ITERS scales the iteration count, PKTBUF_SOAK_EVERY
 * overrides the checkpoint cadence; the nightly workflow runs this
 * at 100x iterations.  Failures print the leg description and seed;
 * when PKTBUF_SOAK_ARTIFACT_DIR is set, each failing iteration also
 * drops a mid-run checkpoint plus a replay line there, which the
 * nightly workflow uploads for offline diagnosis.
 */
TEST(SoakFuzzSmoke, RandomLegsSurviveCheckpointCycles)
{
    const std::uint64_t master =
        testutil::envU64("PKTBUF_FUZZ_SEED", 1);
    const std::uint64_t iters =
        testutil::envU64("PKTBUF_FUZZ_ITERS", 3);
    const char *artifact_dir =
        std::getenv("PKTBUF_SOAK_ARTIFACT_DIR");
    const auto matrix = sim::defaultMatrix();
    Rng rng(master);
    for (std::uint64_t it = 0; it < iters; ++it) {
        sim::Scenario s = matrix[rng.below(matrix.size())];
        s.seed = rng.next();  // fresh seed: a genuinely new leg
        s.slots = 2000 + rng.below(4000);
        const std::uint64_t every = testutil::envU64(
            "PKTBUF_SOAK_EVERY", 1 + s.slots / (2 + rng.below(6)));
        std::ostringstream desc;
        desc << "fuzz iter " << it << ": " << s.describe()
             << " every=" << every << " (PKTBUF_FUZZ_SEED=" << master
             << ")";
        SCOPED_TRACE(desc.str());
        const bool failed_before = ::testing::Test::HasFailure();
        const auto plain = soak::runScenario(s);
        const auto seg = soak::runCheckpointed<soak::ScenarioRun>(s, every);
        EXPECT_EQ(seg.passed, plain.passed)
            << "plain: " << plain.failure
            << " seg: " << seg.failure;
        EXPECT_EQ(recordBytes(s, seg), recordBytes(s, plain));
        if (artifact_dir && !failed_before &&
            ::testing::Test::HasFailure()) {
            // Replayable failure artifact: a mid-run checkpoint plus
            // the exact leg parameters.  Best effort -- an
            // unwritable directory must not mask the real failure.
            try {
                soak::ScenarioRun run(s);
                run.runTo(s.slots / 2);
                const std::string stem = std::string(artifact_dir) +
                    "/soak_fail_iter" + std::to_string(it);
                soak::writeFile(stem + ".ck", run.checkpoint());
                std::ofstream log(std::string(artifact_dir) +
                                      "/soak_failures.txt",
                                  std::ios::app);
                log << desc.str() << "\n";
            } catch (const std::exception &e) {
                std::fprintf(stderr,
                             "artifact dump failed: %s\n", e.what());
            }
        }
    }
}

} // namespace
