/**
 * @file
 * Bank timing state: which banks are currently within their random
 * access time.  This is the ground truth the Ongoing Requests
 * Register (ORR) summarizes in hardware; the simulator checks the
 * DSA's decisions against it and *panics on any bank conflict*,
 * turning the paper's worst-case guarantee into a testable invariant.
 */

#ifndef PKTBUF_DRAM_BANK_STATE_HH
#define PKTBUF_DRAM_BANK_STATE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace pktbuf::dram
{

class BankState
{
  public:
    BankState(unsigned banks, Slot access_slots)
        : busy_until_(banks, 0), access_slots_(access_slots)
    {
        panic_if(banks == 0, "no banks");
        panic_if(access_slots == 0, "zero access time");
    }

    /**
     * Heterogeneous variant: bank `i` is busy for `per_bank[i]`
     * slots per access (per-bank-group t_RC, dram/timing.hh).
     */
    BankState(unsigned banks, Slot access_slots,
              std::vector<Slot> per_bank)
        : BankState(banks, access_slots)
    {
        if (per_bank.empty())
            return;
        panic_if(per_bank.size() != banks,
                 "per-bank access times for ", per_bank.size(),
                 " of ", banks, " banks");
        for (const Slot t : per_bank)
            panic_if(t == 0, "zero per-bank access time");
        per_bank_slots_ = std::move(per_bank);
    }

    unsigned banks() const { return static_cast<unsigned>(busy_until_.size()); }
    Slot accessSlots() const { return access_slots_; }

    /** Access time of one bank (uniform unless per-bank given). */
    Slot
    accessSlotsOf(unsigned bank) const
    {
        panic_if(bank >= busy_until_.size(), "bank ", bank,
                 " out of range in accessSlotsOf");
        return per_bank_slots_.empty() ? access_slots_
                                       : per_bank_slots_[bank];
    }

    /** Is the bank inside its random access time at `now`? */
    bool
    busy(unsigned bank, Slot now) const
    {
        panic_if(bank >= busy_until_.size(), "bank ", bank,
                 " out of range in busy()");
        return busy_until_[bank] > now;
    }

    /**
     * Begin an access at `now`; the bank is then busy for the random
     * access time.  Panics on a bank conflict -- the DSA must never
     * allow one.  Returns the completion slot.
     */
    Slot
    startAccess(unsigned bank, Slot now)
    {
        panic_if(busy(bank, now), "bank conflict: bank ", bank,
                 " accessed at slot ", now, " while busy until ",
                 busy_until_[bank]);
        busy_until_[bank] = now + accessSlotsOf(bank);
        accesses_.inc();
        return busy_until_[bank];
    }

    /** Number of banks busy at `now` (accesses in flight). */
    unsigned
    inFlight(Slot now) const
    {
        unsigned n = 0;
        for (const auto bu : busy_until_)
            if (bu > now)
                ++n;
        return n;
    }

    std::uint64_t accesses() const { return accesses_.value(); }

    /** Checkpoint: busy horizons + access counter (timings are
     *  configuration and are rebuilt, not serialized). */
    void
    fields(ser::Io &io)
    {
        io.tag("BANK");
        io.fixedCount(busy_until_.size(), "banks");
        for (auto &bu : busy_until_)
            io.u64(bu);
        accesses_.fields(io);
    }

  private:
    std::vector<Slot> busy_until_;
    Slot access_slots_;  // ser: config
    /** Non-empty = heterogeneous per-bank access times. */
    std::vector<Slot> per_bank_slots_;  // ser: config
    Counter accesses_;
};

} // namespace pktbuf::dram

#endif // PKTBUF_DRAM_BANK_STATE_HH
