/**
 * @file
 * Fundamental types shared by every subsystem of the packet buffer:
 * slots, queue identifiers, cells, and the line-rate constants the
 * paper's evaluation uses (OC-192 / OC-768 / OC-3072).
 */

#ifndef PKTBUF_COMMON_TYPES_HH
#define PKTBUF_COMMON_TYPES_HH

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "serialize.hh"

namespace pktbuf
{

/** Discrete simulation time, measured in cell time-slots. */
using Slot = std::uint64_t;

/** Identifier of a (logical or physical) VOQ. */
using QueueId = std::uint32_t;

/** Per-queue monotonically increasing cell sequence number. */
using SeqNum = std::uint64_t;

/** Sentinel for "no queue". */
constexpr QueueId kInvalidQueue = std::numeric_limits<QueueId>::max();

/** Fixed cell size used throughout the paper (Section 2). */
constexpr unsigned kCellBytes = 64;

/**
 * A fixed-size cell: the unit packets are segmented into (Section 2).
 *
 * The functional simulator never needs the payload itself; a cell
 * carries its queue, its per-queue sequence number and the slot it
 * arrived on, which is everything the integrity checker and the delay
 * statistics require.  A payload "stamp" lets tests detect corruption
 * of identity (e.g. a cell delivered to the wrong queue).
 */
struct Cell
{
    QueueId queue = kInvalidQueue;
    SeqNum seq = 0;
    Slot arrival = 0;

    /** Bytes fields() writes (u32 queue, u64 seq, u64 arrival): lets a
     *  checkpoint load bound a cell count by the bytes left. */
    static constexpr std::size_t kSavedBytes = 4 + 8 + 8;

    /** Deterministic identity stamp used by integrity checks. */
    std::uint64_t
    stamp() const
    {
        // A 64-bit mix of (queue, seq); splitmix-like finalizer.
        std::uint64_t z = (static_cast<std::uint64_t>(queue) << 40) ^ seq;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    bool
    valid() const
    {
        return queue != kInvalidQueue;
    }

    void
    fields(ser::Io &io)
    {
        io.u32(queue);
        io.u64(seq);
        io.u64(arrival);
    }

    void save(ser::Writer &w) const { ser::save(w, *this); }
    void load(ser::Reader &r) { ser::load(r, *this); }
};

/**
 * Emptied block vectors kept for reuse.  A DRAM block's cells travel
 * t-SRAM -> DRAM -> h-SRAM in one vector; once the h-SRAM has handed
 * out its last cell, the vector (and its capacity) goes on the list
 * and the next t-SRAM extraction refills it, so blocks stop reaching
 * the heap once a buffer is warm.  Each HybridBuffer owns one list.
 */
using BlockSpares = std::vector<std::vector<Cell>>;

/** An empty block vector: one off `spares` when there is one (it
 *  keeps its capacity), else a fresh one. */
inline std::vector<Cell>
takeSpare(BlockSpares *spares)
{
    std::vector<Cell> v;
    if (spares && !spares->empty()) {
        v = std::move(spares->back());
        spares->pop_back();
        v.clear();
    }
    return v;
}

/** Put a spent block vector on `spares` (no list: it is freed). */
inline void
giveSpare(BlockSpares *spares, std::vector<Cell> &&v)
{
    if (spares)
        spares->push_back(std::move(v));
}

/** Line rates considered by the paper's evaluation (Section 7). */
enum class LineRate
{
    OC192,   //!< 10 Gb/s
    OC768,   //!< 40 Gb/s
    OC3072,  //!< 160 Gb/s
};

/** Transmission time of one 64-byte cell at the given line rate, ns. */
double slotTimeNs(LineRate rate);

/** Line rate in Gb/s. */
double lineRateGbps(LineRate rate);

/** Human-readable name ("OC-3072"). */
std::string toString(LineRate rate);

} // namespace pktbuf

#endif // PKTBUF_COMMON_TYPES_HH
