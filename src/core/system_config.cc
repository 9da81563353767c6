#include "system_config.hh"

#include <cmath>
#include <iomanip>

#include "common/logging.hh"
#include "model/issue_queue.hh"
#include "model/sram_designs.hh"

namespace pktbuf::core
{

std::string
toString(BufferKind k)
{
    switch (k) {
      case BufferKind::Rads:
        return "RADS";
      case BufferKind::Cfds:
        return "CFDS";
    }
    panic("unknown BufferKind");
}

unsigned
SystemConfig::granRads() const
{
    if (granRadsOverride)
        return granRadsOverride;
    // Paper defaults (Section 7): B = 8 at OC-768, B = 32 at
    // OC-3072 with 48 ns commodity DRAM.
    if (dramRandomAccessNs == 48.0) {
        switch (rate) {
          case LineRate::OC192:
            return 2;
          case LineRate::OC768:
            return 8;
          case LineRate::OC3072:
            return 32;
        }
    }
    // Otherwise: next power of two covering t_RC / slot.
    const double ratio = dramRandomAccessNs / slotNs();
    unsigned b = 1;
    while (b < ratio)
        b <<= 1;
    return b;
}

buffer::BufferConfig
makeBufferConfig(const SystemConfig &sys, BufferKind kind)
{
    buffer::BufferConfig cfg;
    const unsigned B = sys.granRads();
    if (kind == BufferKind::Rads) {
        cfg.params = model::BufferParams{sys.queues, B, B, 1};
        cfg.logicalQueues = sys.queues;
    } else {
        fatal_if(sys.gran == 0 || B % sys.gran != 0,
                 "CFDS granularity b=", sys.gran,
                 " must divide B=", B);
        unsigned phys = sys.queues;
        if (sys.renaming) {
            phys = static_cast<unsigned>(
                std::ceil(sys.queues * sys.oversubscribe));
        }
        cfg.params = model::BufferParams{phys, B, sys.gran, sys.banks};
        cfg.logicalQueues = sys.queues;
        cfg.renaming = sys.renaming;
    }
    cfg.dramCells = sys.dramCells;
    cfg.params.validate();
    return cfg;
}

void
printDimensioningReport(std::ostream &os, const SystemConfig &sys,
                        BufferKind kind)
{
    const auto cfg = makeBufferConfig(sys, kind);
    const auto &p = cfg.params;
    const double slot = sys.slotNs();
    const auto lookahead =
        model::ecqfLookaheadSlots(p.queues, std::max(p.gran, 2u));
    const auto spec = model::headSramSpec(p, lookahead);
    const auto cam = model::sizeSramBuffer(
        model::SramDesign::GlobalCam, spec.cells, spec.lists,
        p.queues);
    const auto ll = model::sizeSramBuffer(
        model::SramDesign::LinkedListTimeMux, spec.cells, spec.lists,
        p.queues);

    os << "=== " << toString(kind) << " dimensioning @ "
       << toString(sys.rate) << " (slot " << std::fixed
       << std::setprecision(2) << slot << " ns) ===\n";
    os << "queues (physical)        : " << p.queues << "\n";
    os << "B (t_RC in slots)        : " << p.granRads << "\n";
    os << "b (transfer granularity) : " << p.gran << "\n";
    if (kind == BufferKind::Cfds) {
        os << "banks M / groups G       : " << p.banks << " / "
           << p.groups() << "\n";
        os << "requests register R      : " << model::rrSize(p)
           << "\n";
        os << "max skips d_max          : " << model::dsaMaxSkips(p)
           << "\n";
        os << "latency register (slots) : " << model::latencySlots(p)
           << "\n";
        os << "RR sched time (ns)       : "
           << model::rrSchedTimeNs(model::rrSize(p)) << " (budget "
           << model::schedBudgetNs(p, sys.rate) << ", "
           << model::toString(model::classifySched(
                  model::rrSize(p),
                  model::schedBudgetNs(p, sys.rate)))
           << ")\n";
    }
    os << "lookahead (slots)        : " << lookahead << "\n";
    os << "h-SRAM size (cells)      : " << spec.cells << " ("
       << (spec.cells * kCellBytes) / 1024 << " KiB)\n";
    os << "  global CAM             : " << cam.effectiveNs
       << " ns/slot, " << cam.areaMm2 / 100.0 << " cm^2"
       << (cam.effectiveNs <= slot ? "  [meets slot]"
                                   : "  [TOO SLOW]")
       << "\n";
    os << "  linked list (time-mux) : " << ll.effectiveNs
       << " ns/slot, " << ll.areaMm2 / 100.0 << " cm^2"
       << (ll.effectiveNs <= slot ? "  [meets slot]" : "  [TOO SLOW]")
       << "\n";
}

} // namespace pktbuf::core
