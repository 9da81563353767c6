/**
 * @file
 * A DRAM transfer request as it flows through the DRAM Scheduler
 * Subsystem (Section 5.3).
 */

#ifndef PKTBUF_DSS_REQUEST_HH
#define PKTBUF_DSS_REQUEST_HH

#include <cstdint>

#include "common/types.hh"

namespace pktbuf::dss
{

struct DramRequest
{
    enum class Kind
    {
        Read,   //!< DRAM -> h-SRAM replenish
        Write,  //!< t-SRAM -> DRAM drain
    };

    Kind kind = Kind::Read;
    QueueId physQueue = kInvalidQueue;
    /** Block ordinal within the queue; drives the bank mapping. */
    std::uint64_t blockOrdinal = 0;
    /** Target bank (precomputed from the address map). */
    unsigned bank = 0;
    /** Reads: per-queue replenish sequence for in-order consume. */
    std::uint64_t replenishSeq = 0;
    /** Slot the MMA issued the request (for delay statistics). */
    Slot issued = 0;
    /** Times this request has been skipped over by the DSA. */
    unsigned skips = 0;

    /** Bytes fields() writes. */
    static constexpr std::uint64_t kSavedBytes = 1 + 4 + 8 + 4 + 8 + 8 + 4;

    void
    fields(ser::Io &io)
    {
        std::uint8_t k = kind == Kind::Read ? 0 : 1;
        io.u8(k);
        kind = k == 0 ? Kind::Read : Kind::Write;
        io.u32(physQueue);
        io.u64(blockOrdinal);
        io.u32(bank);
        io.u64(replenishSeq);
        io.u64(issued);
        io.u32(skips);
    }
};

} // namespace pktbuf::dss

#endif // PKTBUF_DSS_REQUEST_HH
