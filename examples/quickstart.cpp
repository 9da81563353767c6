/**
 * @file
 * Quickstart: build an OC-3072 CFDS packet buffer through the public
 * core API, print its dimensioning report, push traffic through it
 * for a while and dump the runtime statistics.
 *
 *   $ ./quickstart
 */

#include <iostream>

#include "buffer/hybrid_buffer.hh"
#include "core/system_config.hh"
#include "sim/runner.hh"
#include "sim/workload.hh"

int
main()
{
    using namespace pktbuf;

    // 1. Describe the system: line rate, queue count, DRAM timing.
    core::SystemConfig sys;
    sys.rate = LineRate::OC768; // small structures: instant demo
    sys.queues = 32;
    sys.gran = 2;   // CFDS granularity b
    sys.banks = 64; // DRAM banks M

    // 2. Inspect the dimensioning the library derives (SRAM sizes,
    //    requests register, latency, technology feasibility).
    core::printDimensioningReport(std::cout, sys,
                                  core::BufferKind::Cfds);

    // 3. Build the buffer and drive it: one possible arrival and one
    //    arbiter request per time-slot.
    buffer::HybridBuffer buffer(
        core::makeBufferConfig(sys, core::BufferKind::Cfds));
    sim::UniformRandom traffic(sys.queues, /*seed=*/2026,
                               /*load=*/0.95);
    sim::SimRunner runner(buffer, traffic); // golden checker on

    const auto result = runner.run(200000);

    std::cout << "\nran " << result.slots << " slots: "
              << result.arrivals << " arrivals, " << result.grants
              << " grants (every grant verified in FIFO order)\n";
    std::cout << "mean delay " << result.meanDelaySlots
              << " slots, max " << result.maxDelaySlots << "\n";

    const auto rep = buffer.report();
    std::cout << "DRAM block reads " << rep.dramReads << ", writes "
              << rep.dramWrites << ", SRAM-to-SRAM bypass cells "
              << rep.bypasses << "\n";
    std::cout << "h-SRAM high water " << rep.headSramHighWater
              << " cells, t-SRAM " << rep.tailSramHighWater
              << " cells, RR high water " << rep.rrHighWater << "\n";
    std::cout << "zero misses, zero bank conflicts (either would"
                 " have aborted the run)\n";
    return 0;
}
