/**
 * @file
 * Tests of the switch layer (src/switch): the 1-port == single-buffer
 * golden equivalence, byte-identical aggregation across thread
 * counts, hotspot/incast traffic shapes, per-port seed independence
 * under port-order permutation, mixed variants with per-port DDR
 * timing, and the aggregation/namespacing helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "artifact_rows.hh"
#include "common/logging.hh"
#include "fabric/fabric.hh"
#include "soak/checkpoint.hh"
#include "sweep/scenario_sweep.hh"
#include "sweep/sweep.hh"
#include "switch/switch_sim.hh"

using namespace pktbuf;
using namespace pktbuf::sw;

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

/** Concatenated per-port + aggregate rows: the artifact's payload. */
std::string
outcomeJson(const SwitchConfig &cfg, const SwitchOutcome &out)
{
    std::string all;
    for (std::size_t i = 0; i < out.ports.size(); ++i)
        all += recordJson(portRecord(out.plans[i], out.ports[i])) + "\n";
    all += recordJson(switchRecord(cfg, out)) + "\n";
    return all;
}

SwitchConfig
baseConfig(unsigned ports, TrafficPattern pattern,
           std::uint64_t slots = 3000)
{
    SwitchConfig cfg;
    cfg.ports = ports;
    cfg.pattern = pattern;
    cfg.slots = slots;
    cfg.masterSeed = 11;
    return cfg;
}

TEST(SwitchPlan, SeedsDeriveFromMasterAndPortIndex)
{
    const auto cfg = baseConfig(6, TrafficPattern::Uniform);
    const auto plans = planPorts(cfg);
    ASSERT_EQ(plans.size(), 6u);
    for (unsigned p = 0; p < 6; ++p) {
        EXPECT_EQ(plans[p].port, p);
        EXPECT_EQ(plans[p].scenario.seed,
                  sweep::deriveSeed(cfg.masterSeed, p));
        EXPECT_EQ(plans[p].scenario.slots, cfg.slots);
    }
}

TEST(SwitchPlan, ImpossibleKnobsAreFatal)
{
    SwitchConfig cfg = baseConfig(0, TrafficPattern::Uniform);
    EXPECT_THROW(planPorts(cfg), FatalError);
    cfg = baseConfig(4, TrafficPattern::Incast);
    cfg.incastVictim = 4;  // out of range
    EXPECT_THROW(planPorts(cfg), FatalError);
    cfg = baseConfig(4, TrafficPattern::Uniform);
    cfg.load = 0.0;
    EXPECT_THROW(planPorts(cfg), FatalError);
    // A fraction at either extreme starves one side of the split;
    // that must be a config fatal, not a misleading invariant
    // failure on the starved ports.
    cfg = baseConfig(4, TrafficPattern::Hotspot);
    cfg.hotFraction = 1.5;
    EXPECT_THROW(planPorts(cfg), FatalError);
    cfg.hotFraction = 0.0;
    EXPECT_THROW(planPorts(cfg), FatalError);
    cfg = baseConfig(4, TrafficPattern::Incast);
    cfg.hotFraction = 1.0;
    EXPECT_THROW(planPorts(cfg), FatalError);
    // A queue count past the bound fails before any per-queue
    // allocation; the bound itself plans.
    cfg = baseConfig(1, TrafficPattern::Uniform);
    cfg.queues = fabric::kMaxQueues + 1;
    EXPECT_THROW(planPorts(cfg), FatalError);
    cfg.queues = fabric::kMaxQueues;
    EXPECT_EQ(planPorts(cfg).size(), 1u);
}

TEST(SwitchEquivalence, OnePortUniformReproducesSingleBufferLeg)
{
    // The load-bearing invariant: a 1-port uniform switch *is* the
    // matching single-buffer scenario leg -- same buffer config,
    // same derived seed, same workload stream, same drain budget --
    // so the serialized records must agree byte for byte.
    SwitchConfig cfg = baseConfig(1, TrafficPattern::Uniform, 4000);
    cfg.masterSeed = 23;
    const SwitchSim sim(cfg);
    const auto out = sim.run(/*jobs=*/1);
    ASSERT_TRUE(out.passed) << out.failure;
    ASSERT_EQ(out.ports.size(), 1u);

    sim::Scenario leg;
    leg.variant = sim::BufferVariant::Cfds;
    leg.workload = sim::WorkloadKind::Bernoulli;
    leg.queues = cfg.queues;
    leg.granRads = cfg.granRads;
    leg.gran = cfg.gran;
    leg.groups = cfg.groups;
    leg.load = cfg.load;
    leg.slots = cfg.slots;
    leg.seed = sweep::deriveSeed(cfg.masterSeed, 0);
    const auto ref = soak::runScenario(leg);
    ASSERT_TRUE(ref.passed) << ref.failure;

    EXPECT_EQ(
        recordJson(sweep::scenarioRecord(out.plans[0].scenario,
                                         out.ports[0])),
        recordJson(sweep::scenarioRecord(leg, ref)));
    // Belt and braces on the raw counters too.
    EXPECT_EQ(out.ports[0].verified, ref.verified);
    EXPECT_EQ(out.ports[0].drained, ref.drained);
    EXPECT_EQ(out.ports[0].run.arrivals, ref.run.arrivals);
    EXPECT_EQ(out.ports[0].run.meanDelaySlots, ref.run.meanDelaySlots);
}

TEST(SwitchDeterminism, ByteIdenticalAcrossJobs)
{
    // The acceptance contract: same configuration, --jobs 1/4/8,
    // byte-identical serialized output (ports shard dynamically but
    // aggregate positionally).
    SwitchConfig cfg = baseConfig(8, TrafficPattern::Hotspot, 2500);
    cfg.mixedVariants = true;
    const SwitchSim sim(cfg);
    std::string json[3];
    const unsigned jobs[3] = {1, 4, 8};
    for (int k = 0; k < 3; ++k) {
        const auto out = sim.run(jobs[k]);
        EXPECT_TRUE(out.passed) << out.failure;
        json[k] = outcomeJson(cfg, out);
    }
    EXPECT_EQ(json[0], json[1]);
    EXPECT_EQ(json[0], json[2]);
    EXPECT_NE(json[0].find("\"pattern\": \"hotspot\""),
              std::string::npos);
}

TEST(SwitchDeterminism, ArtifactFilesByteIdenticalAcrossJobs)
{
    SwitchConfig cfg = baseConfig(4, TrafficPattern::Permutation, 2000);
    const SwitchSim sim(cfg);
    const std::string p1 =
        testing::TempDir() + "/switch_jobs1.json";
    const std::string p4 =
        testing::TempDir() + "/switch_jobs4.json";
    emitSwitchArtifacts(cfg, sim.run(1), "test", {}, p1, "");
    emitSwitchArtifacts(cfg, sim.run(4), "test", {}, p4, "");
    const auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    };
    const auto a = slurp(p1);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, slurp(p4));
    EXPECT_NE(a.find("\"schema\": \"pktbuf-sweep-v1\""),
              std::string::npos);
    EXPECT_NE(a.find("\"task\": \"aggregate\""), std::string::npos);
    EXPECT_NE(a.find("\"task\": \"port3\""), std::string::npos);
    std::remove(p1.c_str());
    std::remove(p4.c_str());
}

TEST(SwitchShape, HotspotConcentratesArrivalsOnHotPorts)
{
    SwitchConfig cfg = baseConfig(16, TrafficPattern::Hotspot, 3000);
    const auto plans = planPorts(cfg);
    const unsigned hot = 4;  // max(1, 16/4)
    // Hot ports plan a strictly higher load than cold ports...
    for (unsigned p = 0; p < cfg.ports; ++p) {
        if (p < hot) {
            EXPECT_GT(plans[p].scenario.load,
                      2 * plans[hot].scenario.load);
        }
    }
    // ...and actually receive (and deliver) more cells.
    const auto out = runPlans(plans, 4);
    ASSERT_TRUE(out.passed) << out.failure;
    std::uint64_t min_hot = ~0ull, max_cold = 0;
    for (unsigned p = 0; p < cfg.ports; ++p) {
        const auto arr = out.ports[p].run.arrivals;
        if (p < hot)
            min_hot = std::min(min_hot, arr);
        else
            max_cold = std::max(max_cold, arr);
    }
    EXPECT_GT(min_hot, 2 * max_cold);
    // The across-port aggregates surface the same skew.
    const auto *granted = out.report.agg("granted");
    ASSERT_NE(granted, nullptr);
    EXPECT_GT(granted->max, 2 * granted->min);
    EXPECT_GE(granted->p99, granted->p50);
}

TEST(SwitchShape, IncastConcentratesBurstsOnVictim)
{
    SwitchConfig cfg = baseConfig(8, TrafficPattern::Incast, 3000);
    cfg.incastVictim = 3;
    const auto plans = planPorts(cfg);
    ASSERT_TRUE(plans[3].victim);
    EXPECT_EQ(plans[3].scenario.workload, sim::WorkloadKind::Bursty);
    const auto out = runPlans(plans, 4);
    ASSERT_TRUE(out.passed) << out.failure;
    const auto victim_arr = out.ports[3].run.arrivals;
    for (unsigned p = 0; p < cfg.ports; ++p) {
        if (p == 3)
            continue;
        EXPECT_FALSE(plans[p].victim);
        // Victim load is at least double the cold share.
        EXPECT_GT(victim_arr, 3 * out.ports[p].run.arrivals / 2)
            << "port " << p;
    }
}

TEST(SwitchIndependence, PortOrderPermutationLeavesPortsUnchanged)
{
    // Every plan is self-contained (own seed, own buffer), so
    // running the ports in any order -- here fully reversed, on a
    // pool -- must reproduce each port's report byte for byte.
    SwitchConfig cfg = baseConfig(6, TrafficPattern::Hotspot, 2500);
    cfg.mixedVariants = true;
    const auto plans = planPorts(cfg);
    const auto fwd = runPlans(plans, 2);
    ASSERT_TRUE(fwd.passed) << fwd.failure;

    auto reversed = plans;
    std::reverse(reversed.begin(), reversed.end());
    const auto rev = runPlans(reversed, 2);
    ASSERT_TRUE(rev.passed) << rev.failure;

    const unsigned n = cfg.ports;
    for (unsigned k = 0; k < n; ++k) {
        EXPECT_EQ(rev.plans[k].port, n - 1 - k);
        EXPECT_EQ(
            recordJson(portRecord(rev.plans[k], rev.ports[k])),
            recordJson(portRecord(plans[n - 1 - k],
                                  fwd.ports[n - 1 - k])));
    }
    // Aggregation is order-insensitive for the sums...
    EXPECT_EQ(rev.report.granted, fwd.report.granted);
    EXPECT_EQ(rev.report.arrivals, fwd.report.arrivals);
    // ...and the namespaced registry keys follow the port id, not
    // the execution position.
    for (unsigned p = 0; p < n; ++p) {
        const auto key = "port" + std::to_string(p) + ".granted";
        EXPECT_EQ(rev.report.stats.counterValue(key),
                  fwd.report.stats.counterValue(key));
    }
}

TEST(SwitchMixed, VariantsCycleAndPerPortTimingHolds)
{
    SwitchConfig cfg = baseConfig(6, TrafficPattern::Uniform, 3000);
    cfg.mixedVariants = true;
    cfg.load = 0.35;  // feasible under a refresh-storm timing model
    auto plans = planPorts(cfg);
    EXPECT_EQ(plans[0].scenario.variant, sim::BufferVariant::Cfds);
    EXPECT_EQ(plans[1].scenario.variant, sim::BufferVariant::Rads);
    EXPECT_EQ(plans[2].scenario.variant,
              sim::BufferVariant::CfdsRenaming);
    EXPECT_EQ(plans[3].scenario.variant, sim::BufferVariant::Cfds);
    // Renaming ports keep fewer logical than physical queues.
    EXPECT_EQ(plans[2].scenario.queues, cfg.queues / 2);
    EXPECT_EQ(plans[2].scenario.physQueues, cfg.queues);

    // Per-port DDR timing: give one CFDS port the refresh-storm
    // model; everything else keeps the uniform default.
    plans[0].scenario.timing.tRefi = 128;
    plans[0].scenario.timing.tRfc = 16;
    plans[0].scenario.timing.refreshBanks = 2;
    const auto out = runPlans(plans, 3);
    ASSERT_TRUE(out.passed) << out.failure;
    EXPECT_GT(out.ports[0].report.dsaStallsRefresh, 0u);
    for (unsigned p = 1; p < cfg.ports; ++p)
        EXPECT_EQ(out.ports[p].report.dsaStallsRefresh, 0u);
}

TEST(SwitchPatterns, EveryPatternPassesGoldenChecksAtScale)
{
    for (const auto pattern :
         {TrafficPattern::Uniform, TrafficPattern::Hotspot,
          TrafficPattern::Incast, TrafficPattern::Permutation}) {
        SwitchConfig cfg = baseConfig(8, pattern, 2000);
        cfg.masterSeed = 77;
        const auto out = SwitchSim(cfg).run(4);
        EXPECT_TRUE(out.passed)
            << toString(pattern) << ": " << out.failure;
        EXPECT_EQ(out.report.undelivered, 0u) << toString(pattern);
        EXPECT_GT(out.report.granted, 0u) << toString(pattern);
    }
}

TEST(SwitchPatterns, PermutationBuildsSeededAffinityStripes)
{
    SwitchConfig cfg = baseConfig(4, TrafficPattern::Permutation);
    const auto plans = planPorts(cfg);
    for (const auto &plan : plans) {
        ASSERT_EQ(plan.affinity.size(), cfg.queues / 2);
        for (const auto q : plan.affinity)
            EXPECT_LT(q, cfg.queues);
    }
    // Same master seed -> same map; different master -> (almost
    // surely) a different stripe assignment somewhere.
    const auto again = planPorts(cfg);
    SwitchConfig other = cfg;
    other.masterSeed = 12345;
    const auto moved = planPorts(other);
    bool any_diff = false;
    for (unsigned p = 0; p < cfg.ports; ++p) {
        EXPECT_EQ(plans[p].affinity, again[p].affinity);
        any_diff |= plans[p].affinity != moved[p].affinity;
    }
    EXPECT_TRUE(any_diff);
}

TEST(SwitchAggregate, StatAggregationMatchesHandComputation)
{
    const auto a = fabric::aggregateStat({4.0, 1.0, 3.0, 2.0});
    EXPECT_DOUBLE_EQ(a.sum, 10.0);
    EXPECT_DOUBLE_EQ(a.min, 1.0);
    EXPECT_DOUBLE_EQ(a.max, 4.0);
    EXPECT_DOUBLE_EQ(a.mean, 2.5);
    EXPECT_GE(a.p50, 2.0);
    EXPECT_LE(a.p50, 3.1);
    EXPECT_GE(a.p99, a.p50);
    EXPECT_LE(a.p99, a.max);

    // All-zero stats must not report histogram bucket bounds.
    const auto z = fabric::aggregateStat({0.0, 0.0, 0.0});
    EXPECT_DOUBLE_EQ(z.p50, 0.0);
    EXPECT_DOUBLE_EQ(z.p99, 0.0);
    EXPECT_DOUBLE_EQ(z.max, 0.0);

    const auto e = fabric::aggregateStat({});
    EXPECT_DOUBLE_EQ(e.sum, 0.0);
    EXPECT_DOUBLE_EQ(e.max, 0.0);
}

TEST(SwitchAggregate, RegistryNamespacesPerPortStats)
{
    SwitchConfig cfg = baseConfig(3, TrafficPattern::Uniform, 1500);
    const auto out = SwitchSim(cfg).run(1);
    ASSERT_TRUE(out.passed) << out.failure;
    std::uint64_t sum = 0;
    for (unsigned p = 0; p < cfg.ports; ++p) {
        const auto key = "port" + std::to_string(p) + ".granted";
        EXPECT_EQ(out.report.stats.counterValue(key),
                  out.ports[p].verified);
        sum += out.report.stats.counterValue(key);
    }
    EXPECT_EQ(sum, out.report.granted);
    // The dump contains the namespaced keys and the across-port
    // samplers.
    std::ostringstream os;
    out.report.stats.dump(os);
    EXPECT_NE(os.str().find("port2.granted"), std::string::npos);
    EXPECT_NE(os.str().find("across_ports.granted.mean"),
              std::string::npos);
}

TEST(SwitchFailure, FailingPortFailsTheSwitchAndNamesItsSeed)
{
    SwitchConfig cfg = baseConfig(3, TrafficPattern::Uniform, 1000);
    auto plans = planPorts(cfg);
    // Sabotage port 1 with an impossible configuration: b > B makes
    // the buffer construction fatal inside the leg.
    plans[1].scenario.gran = 64;
    const auto out = runPlans(plans, 2);
    EXPECT_FALSE(out.passed);
    EXPECT_EQ(out.report.failed, 1u);
    EXPECT_NE(out.failure.find("port1"), std::string::npos)
        << out.failure;
    EXPECT_NE(out.failure.find(
                  "seed=" + std::to_string(plans[1].scenario.seed)),
              std::string::npos)
        << out.failure;
    // The healthy ports still ran and aggregated.
    EXPECT_TRUE(out.ports[0].passed);
    EXPECT_TRUE(out.ports[2].passed);
    EXPECT_GT(out.report.granted, 0u);

    // The artifact's "failed" counts exactly its ok=false rows: the
    // failed port's and the aggregate's.
    const std::string path = testing::TempDir() + "/switch_failure.json";
    emitSwitchArtifacts(cfg, out, "test", {}, path, "");
    const auto rows = testutil::readArtifactRows(path);
    EXPECT_EQ(rows.failed, rows.okFalse);
    EXPECT_EQ(rows.failed, out.report.failed + 1);
    std::remove(path.c_str());
}

} // namespace
