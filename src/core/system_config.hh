/**
 * @file
 * Top-level system description and factory: the public entry point
 * of the library.  A SystemConfig captures the link-level parameters
 * the paper's evaluation uses (line rate, queue count, DRAM timing,
 * bank count, CFDS granularity); makeBufferConfig() derives a fully
 * dimensioned BufferConfig, from which buffer::HybridBuffer builds
 * the simulator.
 */

#ifndef PKTBUF_CORE_SYSTEM_CONFIG_HH
#define PKTBUF_CORE_SYSTEM_CONFIG_HH

#include <ostream>
#include <string>

#include "buffer/packet_buffer.hh"
#include "common/types.hh"
#include "model/dimensioning.hh"

namespace pktbuf::core
{

/** Which buffer architecture to build. */
enum class BufferKind
{
    Rads,  //!< Section 3 baseline ([13])
    Cfds,  //!< Section 5, the paper's contribution
};

std::string toString(BufferKind k);

/** Link-level description of the target system (Section 2 / 7). */
struct SystemConfig
{
    LineRate rate = LineRate::OC3072;

    /** Virtual output queues (logical). */
    unsigned queues = 512;

    /** DRAM random access time in ns (commodity DRAM, ~48 ns). */
    double dramRandomAccessNs = 48.0;

    /** CFDS granularity b in cells (ignored for RADS). */
    unsigned gran = 4;

    /** DRAM banks M (ignored for RADS). */
    unsigned banks = 256;

    /**
     * Physical-queue oversubscription factor for renaming;
     * physical = ceil(queues * oversubscribe).  1.0 disables
     * renaming headroom (renaming still legal but tight).
     */
    double oversubscribe = 1.25;

    /** Total DRAM capacity in cells (0 = unbounded). */
    std::uint64_t dramCells = 0;

    /** Enable queue renaming for CFDS (needs dramCells > 0). */
    bool renaming = false;

    /**
     * RADS granularity B in slots; 0 = paper defaults per line rate
     * (8 at OC-768, 32 at OC-3072) or the next power of two covering
     * dramRandomAccessNs / slot otherwise.
     */
    unsigned granRadsOverride = 0;

    /** B: DRAM random access time in slots. */
    unsigned granRads() const;

    /** Transmission time of one cell, ns. */
    double slotNs() const { return slotTimeNs(rate); }
};

/** Derive a dimensioned BufferConfig from the system description. */
buffer::BufferConfig makeBufferConfig(const SystemConfig &sys,
                                      BufferKind kind);

/** Human-readable dimensioning report (sizes, delays, feasibility). */
void printDimensioningReport(std::ostream &os, const SystemConfig &sys,
                             BufferKind kind);

} // namespace pktbuf::core

#endif // PKTBUF_CORE_SYSTEM_CONFIG_HH
