/**
 * @file
 * Pinned checkpoint bytes.  The soak tests prove that a restore is
 * bit-identical to an unbroken run, but they compare a build with
 * itself; nothing else notices when a refactor of the save/restore
 * code changes the PKCK v2 byte stream that files written by an
 * older build hold.  This test pins the FNV-1a of mid-run checkpoint
 * bytes -- saved at slots/4, slots/2 + 1 and slots*3/4 + 5 -- for:
 *
 *  - every smoke-matrix leg (CFDS, RADS, CFDS+renaming; every buffer
 *    also saves its MDQF counters) and one timed-DRAM leg, each on
 *    both engines (the bytes are engine-agnostic, so both engines
 *    must hit the same digest);
 *  - one port of a mixed-variant hotspot switch;
 *  - an 8-port crossbar per scheduler, plus a 2-port renaming
 *    crossbar at full load that drops arrivals.
 *
 * Every checkpoint is also restored into a fresh run and saved
 * again, which must reproduce the bytes exactly.
 *
 * A deliberate format change regenerates the table: run the test
 * with PKTBUF_PRINT_DIGESTS=1 and paste the rows it prints.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "crossbar/crossbar_sim.hh"
#include "sim/scenario.hh"
#include "soak/checkpoint.hh"
#include "switch/switch_sim.hh"

using namespace pktbuf;

namespace
{

using Digests = std::vector<std::uint64_t>;

/** Digests generated before the one-field-list refactor of the
 *  checkpoint code; the bytes have not changed since. */
const std::map<std::string, Digests> kPinned = {
    {"crossbar islip 8 ports",
     {0x851fb0d4a8c442cdULL, 0xaa78baec22baa503ULL, 0xd27cd5df09ad50aeULL}},
    {"crossbar islip renaming drops",
     {0x7b831ea1c6dea3deULL, 0xf4595de5d0cb606aULL, 0x2096ea6da47ff2eeULL}},
    {"crossbar qps 8 ports",
     {0xeb1bdfc9cda39a13ULL, 0xd8d620f5f4a72039ULL, 0x410fb34e40316365ULL}},
    {"crossbar qps renaming drops",
     {0xfee5627ca6428dacULL, 0xad79d4ec50727306ULL, 0x74055000f0bf7363ULL}},
    {"crossbar random 8 ports",
     {0xf042b051819e2934ULL, 0xd6811565f3f3ae22ULL, 0x464bdc031bb1d86dULL}},
    {"crossbar random renaming drops",
     {0xfdb7e94b70f985b7ULL, 0x1eb9c398daaf5f28ULL, 0x1ffa60726d4e39a1ULL}},
    {"leg cfds_adversarial_q8_B8_b2",
     {0x57fb3b7b10214033ULL, 0x8b199007401d72faULL, 0x36ac7efd730febdcULL}},
    {"leg cfds_bernoulli_q8_B8_b2",
     {0xa627374bd743043aULL, 0x9dc05c121934e140ULL, 0x9aaf090a1e3283beULL}},
    {"leg cfds_bursty_q8_B8_b2",
     {0xe3e65bc8746169f3ULL, 0x2718348c493a5fb8ULL, 0xca516abb0caaa046ULL}},
    {"leg cfds_drainperm_q8_B8_b2",
     {0x3b4efa5fecbad295ULL, 0xa77791473b9c39d4ULL, 0x611b5462efa868e3ULL}},
    {"leg rads_adversarial_q8_B8_b8",
     {0xd08303ccc77c5ca3ULL, 0x6c151a131ccdba58ULL, 0xa742f0d62c1ab865ULL}},
    {"leg rads_bernoulli_q8_B8_b8",
     {0xb03bdd6a56402cfbULL, 0x5db1b61fa1960fbeULL, 0x519471a325e9e9fcULL}},
    {"leg rads_bursty_q8_B8_b8",
     {0x9a4fa47b611aac70ULL, 0x9b36cef4bcb759acULL, 0x63921211d2a1ad19ULL}},
    {"leg rads_drainperm_q8_B8_b8",
     {0xa5fdfe2b5fa52c03ULL, 0x861c11ff33b118a9ULL, 0xc5fc208df6387bbfULL}},
    {"leg renaming_adversarial_q4_B8_b2_p8",
     {0x5f889036eecaf310ULL, 0x9ea39c38173f0419ULL, 0x7f82aa1b28f9fd04ULL}},
    {"leg renaming_bernoulli_q4_B8_b2_p8",
     {0x40864bef6b3ae07bULL, 0x09e9a72984211797ULL, 0xef086d15c564b6cdULL}},
    {"leg renaming_bursty_q4_B8_b2_p8",
     {0x4f406444557732e9ULL, 0xe90eb22894fe3cfaULL, 0x68458cd2240c2dcdULL}},
    {"leg renaming_drainperm_q4_B8_b2_p8",
     {0x8c9d630e7f003576ULL, 0x444163a15844c08bULL, 0x2eb669bd7443ab14ULL}},
    {"switch port 0",
     {0x0a30c98f146395f7ULL, 0xca1e790b3d192284ULL, 0x6ae30d05ca073c12ULL}},
    {"timing cfds_bernoulli_q8_B8_b2_refresh",
     {0x2b379b5419a6992cULL, 0x1d743b62dcaf7ac3ULL, 0xca0dd79acc5cf304ULL}},
};

/** Slots the three checkpoints of a `slots`-slot run are taken at. */
std::vector<std::uint64_t>
savePoints(std::uint64_t slots)
{
    return {slots / 4, slots / 2 + 1, slots * 3 / 4 + 5};
}

/**
 * Run `run` to each save point, digest its checkpoint there, and
 * check that a fresh run restored from it saves the same bytes.
 */
template <typename Run, typename MakeRun>
Digests
digestsOf(Run &run, std::uint64_t slots, const MakeRun &make)
{
    Digests out;
    for (const auto at : savePoints(slots)) {
        run.runTo(at);
        const std::string bytes = run.checkpoint();
        auto fresh = make();
        fresh->restore(bytes);
        EXPECT_EQ(fresh->checkpoint(), bytes)
            << "restore + save changed the bytes at slot " << at;
        out.push_back(ser::fnv1a(bytes));
    }
    return out;
}

/** Each case's digests, keyed by a stable case name. */
std::map<std::string, Digests>
computeAll()
{
    std::map<std::string, Digests> got;

    const auto leg = [&got](const std::string &key, sim::Scenario s) {
        for (const bool event : {false, true}) {
            SCOPED_TRACE(key + (event ? " (event)" : " (reference)"));
            s.eventEngine = event;
            const auto make = [&s] {
                return std::make_unique<soak::ScenarioRun>(s);
            };
            auto run = make();
            const auto d = digestsOf(*run, s.slots, make);
            // Both engines write the same bytes; the reference
            // engine's run is what gets pinned.
            if (!event)
                got[key] = d;
            else
                EXPECT_EQ(d, got[key]) << "engines disagree";
        }
    };
    for (const auto &s : sim::smokeMatrix())
        leg("leg " + s.name(), s);
    const auto timing = sim::timingSmokeMatrix();
    leg("timing " + timing.front().name(), timing.front());

    {
        sw::SwitchConfig cfg;
        cfg.ports = 4;
        cfg.mixedVariants = true;
        cfg.pattern = sw::TrafficPattern::Hotspot;
        cfg.slots = 4000;
        cfg.masterSeed = 20261017;
        const auto plan = sw::planPorts(cfg).front();
        const auto make = [&plan] {
            return std::make_unique<soak::ScenarioRun>(
                plan.scenario,
                [&plan] { return sw::makePortWorkload(plan); });
        };
        auto run = make();
        got["switch port 0"] = digestsOf(*run, plan.scenario.slots, make);
    }

    for (const auto kind : {xbar::SchedulerKind::Islip,
                            xbar::SchedulerKind::Qps,
                            xbar::SchedulerKind::RandomMaximal}) {
        xbar::CrossbarConfig cfg;
        cfg.scheduler = kind;
        cfg.slots = 3000;
        cfg.masterSeed = 11;
        for (const bool drops : {false, true}) {
            cfg.ports = drops ? 2 : 8;
            if (drops) {
                cfg.variant = sim::BufferVariant::CfdsRenaming;
                cfg.load = 1.0;
            }
            const auto make = [&cfg] {
                return std::make_unique<xbar::CrossbarRun>(cfg);
            };
            auto run = make();
            got[std::string("crossbar ") + toString(kind) +
                (drops ? " renaming drops" : " 8 ports")] =
                digestsOf(*run, cfg.slots, make);
            if (drops) {
                EXPECT_GT(run->finish().report.drops, 0u);
            }
        }
    }
    return got;
}

TEST(CheckpointDigests, MatchThePinnedBytes)
{
    const auto got = computeAll();
    if (std::getenv("PKTBUF_PRINT_DIGESTS")) {
        for (const auto &[key, d] : got)
            std::printf("    {\"%s\",\n     {0x%016" PRIx64
                        "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                        "ULL}},\n",
                        key.c_str(), d[0], d[1], d[2]);
    }
    for (const auto &[key, d] : got) {
        const auto it = kPinned.find(key);
        ASSERT_NE(it, kPinned.end()) << "no pinned digests for " << key;
        EXPECT_EQ(d, it->second) << key;
    }
    EXPECT_EQ(got.size(), kPinned.size());
}

TEST(CheckpointDigests, FabricDescribeTextIsPinned)
{
    // The switch's and the crossbar's describe() texts fingerprint
    // their checkpoints; both print their shared knobs through one
    // helper, which must keep every byte of both texts.
    const std::vector<std::string> expect = {
        "switch_uniform_p8_cfds_q8_B8_b2 groups=4 load=0.55 "
        "slots=20000 master_seed=1",
        "xbar_islip_uniform_p8_cfds_B8_b2 groups=4 load=0.55 "
        "slots=20000 master_seed=1 islip_iters=4",
        "switch_hotspot_p8_cfds_q8_B8_b2 groups=4 load=0.55 "
        "slots=20000 master_seed=1 hot_ports=2 hot_fraction=0.5",
        "xbar_qps_hotspot_p8_cfds_B8_b2 groups=4 load=0.55 slots=20000 "
        "master_seed=1 qps_window=8 hot_outputs=2 hot_fraction=0.5",
        "switch_incast_p8_cfds_q8_B8_b2 groups=4 load=0.55 slots=20000 "
        "master_seed=1 victim=3 burst=64 hot_fraction=0.5",
        "xbar_random_incast_p8_cfds_B8_b2 groups=4 load=0.55 "
        "slots=20000 master_seed=1 victim=3 burst=64 hot_fraction=0.5",
        "switch_permutation_p8_cfds_q8_B8_b2 groups=4 load=0.55 "
        "slots=20000 master_seed=1 timing=[tRC=8 REFI=128/16x2]",
        "xbar_islip_permutation_p8_cfds_B8_b2 groups=4 load=0.55 "
        "slots=20000 master_seed=1 islip_iters=4",
    };
    std::vector<std::string> got;
    for (const auto pattern :
         {sw::TrafficPattern::Uniform, sw::TrafficPattern::Hotspot,
          sw::TrafficPattern::Incast, sw::TrafficPattern::Permutation}) {
        sw::SwitchConfig s;
        s.ports = 8;
        s.pattern = pattern;
        s.incastVictim = 3;
        s.load = 0.55;
        if (pattern == sw::TrafficPattern::Permutation)
            s.timing = sim::timingSmokeMatrix().front().timing;
        xbar::CrossbarConfig c;
        c.ports = 8;
        c.pattern = pattern;
        c.incastVictim = 3;
        c.load = 0.55;
        c.scheduler = pattern == sw::TrafficPattern::Hotspot
                          ? xbar::SchedulerKind::Qps
                      : pattern == sw::TrafficPattern::Incast
                          ? xbar::SchedulerKind::RandomMaximal
                          : xbar::SchedulerKind::Islip;
        got.push_back(s.describe());
        got.push_back(c.describe());
    }
    EXPECT_EQ(got, expect);
}

} // namespace
