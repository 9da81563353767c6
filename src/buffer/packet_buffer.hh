/**
 * @file
 * Value types of the VOQ packet buffer (Figure 2): its static
 * configuration, the grant it emits and its aggregated report.  The
 * buffer itself is buffer::HybridBuffer (buffer/hybrid_buffer.hh),
 * which models RADS and CFDS alike.
 */

#ifndef PKTBUF_BUFFER_PACKET_BUFFER_HH
#define PKTBUF_BUFFER_PACKET_BUFFER_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/timing.hh"
#include "model/dimensioning.hh"

namespace pktbuf::buffer
{

/** Which head MMA drives replenishment. */
enum class MmaKind
{
    Ecqf,  //!< earliest critical queue first (lookahead-driven)
    Mdqf,  //!< most deficited queue first (no lookahead; ablation)
};

/** Static configuration of a buffer instance. */
struct BufferConfig
{
    /** Q (physical), B, b, M.  b == B and banks == 1 gives RADS. */
    model::BufferParams params;

    /** Logical queues visible to the scheduler; 0 = physical count. */
    unsigned logicalQueues = 0;

    /** Enable queue renaming (Section 6); requires CFDS. */
    bool renaming = false;

    /** Head MMA algorithm. */
    MmaKind mma = MmaKind::Ecqf;

    /** Lookahead depth in slots; 0 = ECQF optimum Q(b-1)+1. */
    std::uint64_t lookahead = 0;

    /** Head SRAM capacity in cells; 0 = dimensioning formula. */
    std::uint64_t headSramCells = 0;

    /** Tail SRAM capacity in cells; 0 = dimensioning formula. */
    std::uint64_t tailSramCells = 0;

    /** Total DRAM capacity in cells; 0 = unbounded. */
    std::uint64_t dramCells = 0;

    /** Requests Register capacity; 0 = Eq. (1) formula. */
    std::uint64_t rrCapacity = 0;

    /**
     * Extra RR entries on top of the resolved capacity (formula or
     * override).  Eq. (1) sizes R for *randomized* request patterns;
     * a caller whose service process concentrates consecutive
     * requests on one queue -- the crossbar's work-conserving
     * matching draining a backlogged VOQ -- provisions the excess
     * here instead of silently weakening the overflow invariant for
     * everyone.  Ignored where the RR is unbounded (RADS,
     * measure-only).
     */
    std::uint64_t rrSlack = 0;

    /**
     * DDR timing model (dram/timing.hh).  The default (uniform)
     * config reproduces the legacy one-number model bit for bit;
     * non-uniform configs (refresh, turnaround, per-group t_RC)
     * require the banked CFDS organization and automatically extend
     * the latency register and SRAM/RR slack to keep the zero-miss
     * guarantee.
     */
    dram::TimingConfig timing;

    /**
     * Measurement mode: SRAM/RR capacities unbounded, high-water
     * marks recorded (used to validate the formulas empirically).
     */
    bool measureOnly = false;

    /**
     * Event-calendar execution engine: identical architectural
     * behavior (grants, drops, stats, checkpoints -- the
     * differential oracle in tests/test_event_core.cc enforces
     * bit-equality), computed via the MMA's event calendar and
     * leaps over inert slots instead of per-slot scans.  An
     * execution strategy, not a configuration: deliberately absent
     * from every describe()/fingerprint.
     */
    bool eventCore = false;

    unsigned effectiveLogicalQueues() const
    {
        return logicalQueues ? logicalQueues : params.queues;
    }
};

/** One granted cell and the logical queue it was requested for. */
struct GrantInfo
{
    Cell cell;
    QueueId logicalQueue = kInvalidQueue;
};

/** Aggregated observability for tests, benches and reports. */
struct BufferReport
{
    std::uint64_t slots = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t grants = 0;
    std::uint64_t bypasses = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::int64_t headSramHighWater = 0;
    std::int64_t tailSramHighWater = 0;
    std::int64_t rrHighWater = 0;
    std::int64_t rrMaxSkips = 0;
    std::int64_t orrHighWater = 0;
    std::uint64_t dsaStalls = 0;
    /** dsaStalls broken down by blocking cause (timed DRAM model). */
    std::uint64_t dsaStallsBankBusy = 0;
    std::uint64_t dsaStallsRefresh = 0;
    std::uint64_t dsaStallsTurnaround = 0;
    std::uint64_t renames = 0;
    std::uint64_t renameRecycles = 0;
    std::uint64_t dramResidentCells = 0;
};

} // namespace pktbuf::buffer

#endif // PKTBUF_BUFFER_PACKET_BUFFER_HH
