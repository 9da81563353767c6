/**
 * @file
 * The scenario-matrix differential suite: every leg of the
 * variant x workload x granularity x queue-count sweep runs with the
 * golden FIFO checker enabled and must deliver every admitted cell
 * in order.  A failing leg prints its full scenario description,
 * including the seed, so it can be replayed from the log alone.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/scenario.hh"
#include "soak/checkpoint.hh"

using namespace pktbuf;
using namespace pktbuf::sim;

class ScenarioMatrix : public ::testing::TestWithParam<Scenario>
{};

TEST_P(ScenarioMatrix, EveryGrantMatchesGoldenModel)
{
    const Scenario &s = GetParam();
    const ScenarioOutcome out = soak::runScenario(s);
    EXPECT_TRUE(out.passed) << out.failure;
    EXPECT_EQ(out.undelivered, 0u) << s.describe();
    EXPECT_EQ(out.verified, out.run.grants + out.drained)
        << s.describe();
    EXPECT_EQ(out.verified, out.run.arrivals) << s.describe();
    EXPECT_GT(out.verified, 0u) << s.describe();
}

INSTANTIATE_TEST_SUITE_P(
    Full, ScenarioMatrix, ::testing::ValuesIn(defaultMatrix()),
    [](const ::testing::TestParamInfo<Scenario> &pinfo) {
        return pinfo.param.name();
    });

// The timed-DRAM legs (refresh storm, turnaround thrash, asymmetric
// bank groups, full DDR) run through the very same differential
// check: every admitted cell granted in order, zero misses, full
// drain -- the extended latency/RR slack must absorb whatever the
// timing policy refuses.
INSTANTIATE_TEST_SUITE_P(
    Timing, ScenarioMatrix, ::testing::ValuesIn(timingMatrix()),
    [](const ::testing::TestParamInfo<Scenario> &pinfo) {
        return pinfo.param.name();
    });

TEST(ScenarioMatrixShape, CoversRequiredVariantsAndWorkloads)
{
    const auto matrix = defaultMatrix();
    std::set<BufferVariant> variants;
    std::set<WorkloadKind> workloads;
    std::set<unsigned> grans;
    std::set<unsigned> queue_counts;
    std::set<std::string> names;
    for (const auto &s : matrix) {
        variants.insert(s.variant);
        workloads.insert(s.workload);
        grans.insert(s.variant == BufferVariant::Rads ? s.granRads
                                                      : s.gran);
        queue_counts.insert(s.queues);
        names.insert(s.name());
    }
    EXPECT_GE(variants.size(), 3u);
    EXPECT_GE(workloads.size(), 4u);
    EXPECT_GE(grans.size(), 3u);
    EXPECT_GE(queue_counts.size(), 2u);
    // Leg names double as gtest parameter names: must be unique.
    EXPECT_EQ(names.size(), matrix.size());
}

TEST(ScenarioMatrixShape, SmokeIsASmallerSweepOfAllCells)
{
    const auto smoke = smokeMatrix();
    const auto full = defaultMatrix();
    EXPECT_LT(smoke.size(), full.size());
    std::set<BufferVariant> variants;
    std::set<WorkloadKind> workloads;
    for (const auto &s : smoke) {
        variants.insert(s.variant);
        workloads.insert(s.workload);
        EXPECT_LT(s.slots, full.front().slots);
    }
    EXPECT_GE(variants.size(), 3u);
    EXPECT_GE(workloads.size(), 4u);
}

TEST(ScenarioMatrixShape, RenamingLegsActuallyExerciseRenaming)
{
    // The matrix must regress the Section 6 machinery, not merely
    // switch it on: with the legs' tight per-group DRAM share,
    // renaming chains form on several legs and the bounded-DRAM
    // admission (drop) path runs too.
    std::uint64_t renames = 0, drops = 0;
    unsigned legs_with_renames = 0;
    for (const auto &s : defaultMatrix()) {
        if (s.variant != BufferVariant::CfdsRenaming)
            continue;
        const auto out = soak::runScenario(s);
        ASSERT_TRUE(out.passed) << out.failure;
        renames += out.report.renames;
        drops += out.run.drops;
        legs_with_renames += out.report.renames > 0 ? 1 : 0;
    }
    EXPECT_GE(legs_with_renames, 2u);
    EXPECT_GT(renames, 0u);
    EXPECT_GT(drops, 0u);
}

TEST(ScenarioMatrixShape, TimingLegsProvokeTheirStallCauses)
{
    // Each timing family must actually exercise its constraint:
    // summed over a family's legs, the signature stall cause is
    // nonzero (otherwise the leg is a no-op rename of a uniform
    // leg), and the default matrix stays timing-free.
    std::uint64_t refresh = 0, turnaround = 0, bank_busy = 0;
    std::set<std::string> tags;
    for (const auto &s : timingMatrix()) {
        ASSERT_FALSE(s.timing.isUniform()) << s.describe();
        ASSERT_FALSE(s.timingTag.empty()) << s.describe();
        tags.insert(s.timingTag);
        const auto out = soak::runScenario(s);
        ASSERT_TRUE(out.passed) << out.failure;
        if (s.timingTag == "refresh" || s.timingTag == "ddr")
            refresh += out.report.dsaStallsRefresh;
        if (s.timingTag == "turnaround" || s.timingTag == "ddr")
            turnaround += out.report.dsaStallsTurnaround;
        if (s.timingTag == "asym" || s.timingTag == "ddr")
            bank_busy += out.report.dsaStallsBankBusy;
    }
    EXPECT_GE(tags.size(), 4u);
    EXPECT_GT(refresh, 0u);
    EXPECT_GT(turnaround, 0u);
    EXPECT_GT(bank_busy, 0u);
    for (const auto &s : defaultMatrix())
        EXPECT_TRUE(s.timing.isUniform()) << s.describe();
}

TEST(ScenarioMatrixShape, TimingLegNamesAreUniqueAndTagged)
{
    const auto legs = timingMatrix();
    std::set<std::string> names;
    for (const auto &s : legs) {
        names.insert(s.name());
        EXPECT_NE(s.name().find(s.timingTag), std::string::npos);
        // The seed and the timing knobs must both appear in the
        // replay line.
        EXPECT_NE(s.describe().find("timing=["), std::string::npos);
        EXPECT_NE(s.describe().find("seed="), std::string::npos);
    }
    EXPECT_EQ(names.size(), legs.size());
    const auto smoke = timingSmokeMatrix();
    EXPECT_LT(smoke.size(), legs.size());
    for (const auto &s : smoke)
        EXPECT_LT(s.slots, legs.front().slots);
}

TEST(ScenarioMatrixShape, LegsAreDeterministic)
{
    // Two runs of the same leg produce identical counters.
    Scenario s = smokeMatrix().front();
    const auto a = soak::runScenario(s);
    const auto b = soak::runScenario(s);
    EXPECT_EQ(a.run.arrivals, b.run.arrivals);
    EXPECT_EQ(a.run.grants, b.run.grants);
    EXPECT_EQ(a.drained, b.drained);
    EXPECT_EQ(a.verified, b.verified);
    // A different seed perturbs a randomized leg.
    Scenario other = s;
    other.workload = WorkloadKind::Bernoulli;
    other.load = 0.9;
    Scenario reseeded = other;
    reseeded.seed = other.seed + 1;
    EXPECT_NE(soak::runScenario(other).run.arrivals,
              soak::runScenario(reseeded).run.arrivals);
}

TEST(ScenarioMatrixShape, FailureReportNamesTheSeed)
{
    // An impossible configuration (b does not divide B) must fail
    // gracefully and the diagnosis must carry the seed for replay.
    Scenario s;
    s.variant = BufferVariant::Cfds;
    s.granRads = 8;
    s.gran = 3;
    s.groups = 2;
    s.seed = 424242;
    const auto out = soak::runScenario(s);
    EXPECT_FALSE(out.passed);
    EXPECT_NE(out.failure.find("seed=424242"), std::string::npos)
        << out.failure;
}
