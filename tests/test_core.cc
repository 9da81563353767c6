/**
 * @file
 * Tests of the public core API: SystemConfig derivation (paper
 * defaults) and a short end-to-end run of a buffer built from the
 * derived config with both architectures.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "buffer/hybrid_buffer.hh"
#include "common/logging.hh"
#include "core/system_config.hh"
#include "sim/runner.hh"
#include "sim/workload.hh"

using namespace pktbuf;
using namespace pktbuf::core;

TEST(Core, PaperDefaultGranularities)
{
    SystemConfig sys;
    sys.rate = LineRate::OC3072;
    EXPECT_EQ(sys.granRads(), 32u);
    sys.rate = LineRate::OC768;
    EXPECT_EQ(sys.granRads(), 8u);
    sys.rate = LineRate::OC192;
    EXPECT_EQ(sys.granRads(), 2u);
}

TEST(Core, NonDefaultDramTimingRoundsUp)
{
    SystemConfig sys;
    sys.rate = LineRate::OC3072; // 3.2 ns slot
    sys.dramRandomAccessNs = 20.0;
    EXPECT_EQ(sys.granRads(), 8u); // 20/3.2 = 6.25 -> 8
}

TEST(Core, RadsConfigShape)
{
    SystemConfig sys;
    sys.queues = 64;
    const auto cfg = makeBufferConfig(sys, BufferKind::Rads);
    EXPECT_TRUE(cfg.params.isRads());
    EXPECT_EQ(cfg.params.queues, 64u);
    EXPECT_EQ(cfg.params.banks, 1u);
}

TEST(Core, CfdsConfigShape)
{
    SystemConfig sys;
    sys.queues = 64;
    sys.gran = 4;
    sys.banks = 64;
    const auto cfg = makeBufferConfig(sys, BufferKind::Cfds);
    EXPECT_FALSE(cfg.params.isRads());
    EXPECT_EQ(cfg.params.gran, 4u);
    EXPECT_EQ(cfg.params.groups(), 8u);
}

TEST(Core, CfdsRenamingOversubscribes)
{
    SystemConfig sys;
    sys.queues = 64;
    sys.gran = 2;
    sys.banks = 64;
    sys.renaming = true;
    sys.oversubscribe = 1.25;
    sys.dramCells = 1 << 16;
    const auto cfg = makeBufferConfig(sys, BufferKind::Cfds);
    EXPECT_EQ(cfg.params.queues, 80u);
    EXPECT_EQ(cfg.logicalQueues, 64u);
    EXPECT_TRUE(cfg.renaming);
}

TEST(Core, InvalidGranularityRejected)
{
    SystemConfig sys;
    sys.gran = 5; // does not divide 32
    EXPECT_THROW(makeBufferConfig(sys, BufferKind::Cfds), FatalError);
}

TEST(Core, DerivedConfigsBuildWorkingBuffers)
{
    SystemConfig sys;
    sys.rate = LineRate::OC768; // B = 8: small structures
    sys.queues = 8;
    sys.gran = 2;
    sys.banks = 16;
    for (const auto kind : {BufferKind::Rads, BufferKind::Cfds}) {
        buffer::HybridBuffer buf(makeBufferConfig(sys, kind));
        sim::UniformRandom wl(8, 3, 0.9);
        sim::SimRunner runner(buf, wl);
        const auto r = runner.run(20000);
        EXPECT_GT(r.grants, 10000u) << toString(kind);
    }
}

TEST(Core, DimensioningReportMentionsKeyFields)
{
    SystemConfig sys;
    sys.queues = 64;
    sys.gran = 4;
    sys.banks = 64;
    std::ostringstream os;
    printDimensioningReport(os, sys, BufferKind::Cfds);
    const auto text = os.str();
    EXPECT_NE(text.find("CFDS"), std::string::npos);
    EXPECT_NE(text.find("requests register"), std::string::npos);
    EXPECT_NE(text.find("h-SRAM"), std::string::npos);
    EXPECT_NE(text.find("global CAM"), std::string::npos);
}

TEST(Core, KindNames)
{
    EXPECT_EQ(toString(BufferKind::Rads), "RADS");
    EXPECT_EQ(toString(BufferKind::Cfds), "CFDS");
}
