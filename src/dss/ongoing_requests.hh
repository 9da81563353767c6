/**
 * @file
 * The Ongoing Requests Register (ORR, Section 5.3): the identifiers
 * of the banks whose accesses are still within the DRAM random
 * access time.  A bank listed here is *locked*; the DSA never
 * launches a request to a locked bank.
 *
 * In hardware this is a short shift register of bank ids; here it is
 * the shared lock table for the read and write schedulers, pruned by
 * completion time, plus occupancy statistics so tests can check the
 * paper's ORR sizing (B/b - 1 per request stream).  The DSA probes
 * the lock of every RR entry on every launch opportunity, so the
 * table prunes once per slot and answers each probe from a per-bank
 * busy-until array rather than a scan of the entries.
 *
 * Timing is delegated to a `dram::DramTiming` policy object rather
 * than a scalar access time: besides the per-bank t_RC lock window,
 * the policy can impose refresh blackouts and a read<->write
 * turnaround penalty, each reported as a distinct `StallCause` so
 * the scheduler can account stalls by cause.  The default (uniform)
 * policy reproduces the legacy scalar behavior bit for bit.
 */

#ifndef PKTBUF_DSS_ONGOING_REQUESTS_HH
#define PKTBUF_DSS_ONGOING_REQUESTS_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/timing.hh"

namespace pktbuf::dss
{

class OngoingRequests
{
  public:
    /** Legacy uniform model: every bank locks for `access_slots`. */
    explicit OngoingRequests(Slot access_slots)
        : OngoingRequests(std::make_shared<const dram::DramTiming>(
              dram::TimingConfig{}, /*banks=*/0,
              /*banks_per_group=*/0, access_slots))
    {}

    /** Full DDR model: lock windows, refresh and turnaround come
     *  from the shared timing policy. */
    explicit OngoingRequests(
        std::shared_ptr<const dram::DramTiming> timing)
        : timing_(std::move(timing))
    {
        panic_if(!timing_, "null timing policy");
        busy_until_.resize(timing_->banks(), 0);
    }

    /**
     * Record a launched access: bank locked until now + t_RC(bank),
     * and -- with a turnaround penalty configured -- the opposite
     * direction blocked until now + turnaround.
     */
    void
    add(unsigned bank, Slot now,
        dram::AccessKind kind = dram::AccessKind::Read)
    {
        prune(now);
        panic_if(lockedNoPrune(bank),
                 "ORR already holds bank ", bank,
                 ": the DSA launched a conflicting access");
        panic_if(timing_->inRefresh(bank, now),
                 "DSA launched into refreshing bank ", bank,
                 " at slot ", now);
        panic_if(now < directionOk(kind),
                 "DSA launched a ",
                 kind == dram::AccessKind::Read ? "read" : "write",
                 " at slot ", now, " inside the turnaround window");
        const Slot unlock = now + timing_->accessSlots(bank);
        entries_.push_back({bank, unlock});
        if (bank >= busy_until_.size())
            busy_until_.resize(bank + 1, 0);
        busy_until_[bank] = unlock;
        if (timing_->turnaround() > 0) {
            Slot &other = kind == dram::AccessKind::Read ? write_ok_
                                                         : read_ok_;
            const Slot until = now + timing_->turnaround();
            other = until > other ? until : other;
        }
        high_water_.observe(static_cast<std::int64_t>(entries_.size()));
    }

    /** Is the bank inside its t_RC lock window at `now`?  (Bank-busy
     *  only; refresh and turnaround are visible via blockedCause.) */
    bool
    locked(unsigned bank, Slot now)
    {
        prune(now);
        return lockedNoPrune(bank);
    }

    /**
     * Would a launch of `kind` to `bank` be refused at `now`, and
     * why?  Causes are checked in priority order: bank-busy (the
     * legacy constraint), then refresh, then turnaround.
     * @return the blocking cause, or nullopt if the launch is legal
     */
    std::optional<dram::StallCause>
    blockedCause(unsigned bank, dram::AccessKind kind, Slot now)
    {
        prune(now);
        if (lockedNoPrune(bank))
            return dram::StallCause::BankBusy;
        if (timing_->inRefresh(bank, now))
            return dram::StallCause::Refresh;
        if (now < directionOk(kind))
            return dram::StallCause::Turnaround;
        return std::nullopt;
    }

    /** Entries currently held (after pruning at `now`). */
    std::size_t
    size(Slot now)
    {
        prune(now);
        return entries_.size();
    }

    std::int64_t highWater() const { return high_water_.max(); }
    /** Uniform/base t_RC (the buffer's B). */
    Slot accessSlots() const { return timing_->baseTRc(); }
    const dram::DramTiming &timing() const { return *timing_; }

    /** Checkpoint: lock entries and the turnaround horizons.  The
     *  timing policy is configuration (rebuilt, not serialized); a
     *  restore rebuilds the busy table from the entries and forgets
     *  the prune memo. */
    void
    fields(ser::Io &io)
    {
        io.tag("ORRG");
        if (io.reading()) {
            std::fill(busy_until_.begin(), busy_until_.end(), 0);
            pruned_at_.reset();
        }
        constexpr std::uint64_t entry_bytes = 4 + 8;  // bank, until
        const auto n =
            io.count(entries_.size(), entry_bytes, "ORR entries");
        entries_.resize(n);
        for (auto &e : entries_) {
            io.u32(e.bank);
            io.u64(e.until);
            if (io.reading())
                lockRestored(e);
        }
        io.u64(read_ok_);
        io.u64(write_ok_);
        high_water_.fields(io);
    }

    void save(ser::Writer &w) const { ser::save(w, *this); }
    void load(ser::Reader &r) { ser::load(r, *this); }

  private:
    struct Entry
    {
        unsigned bank;
        Slot until;
    };

    /** Earliest slot a launch of `kind` may go out (turnaround). */
    Slot
    directionOk(dram::AccessKind kind) const
    {
        return kind == dram::AccessKind::Read ? read_ok_ : write_ok_;
    }

    /** Does the bank hold an entry?  An entry's expiry slot is never
     *  0 (t_RC >= 1), so 0 marks a free bank. */
    bool
    lockedNoPrune(unsigned bank) const
    {
        return bank < busy_until_.size() && busy_until_[bank] != 0;
    }

    /** Check one restored entry and enter it in the busy table. */
    void
    lockRestored(const Entry &e)
    {
        fatal_if(e.bank >= kMaxBanks, "checkpoint: ORR bank ", e.bank,
                 " is out of range");
        fatal_if(e.until == 0 || lockedNoPrune(e.bank),
                 "checkpoint: ORR entry for bank ", e.bank,
                 " is repeated or expires at slot 0");
        if (e.bank >= busy_until_.size())
            busy_until_.resize(e.bank + 1, 0);
        busy_until_[e.bank] = e.until;
    }

    void
    prune(Slot now)
    {
        // add() only inserts entries expiring after its `now`, so a
        // second prune at the same slot would remove nothing.
        if (pruned_at_ == now)
            return;
        pruned_at_ = now;
        // Under uniform t_RC expirations are FIFO, but heterogeneous
        // bank groups can expire a fast bank behind a slow one, so
        // the whole table is compacted in place, keeping launch
        // order (it holds at most a handful of in-flight accesses).
        std::size_t kept = 0;
        for (const auto &e : entries_) {
            if (e.until <= now)
                busy_until_[e.bank] = 0;
            else
                entries_[kept++] = e;
        }
        entries_.resize(kept);
    }

    /** Bank ids a checkpoint may name: far above any configuration,
     *  low enough that the busy table cannot be sized from junk. */
    static constexpr unsigned kMaxBanks = 1u << 20;

    std::shared_ptr<const dram::DramTiming> timing_;  // ser: config
    /** Live lock entries in launch order (the checkpoint order). */
    std::vector<Entry> entries_;
    /** Per bank: expiry slot of its live entry, 0 if none. */
    std::vector<Slot> busy_until_;  // ser: derived
    /** Slot of the last prune, if any. */
    std::optional<Slot> pruned_at_;  // ser: derived
    Slot read_ok_ = 0;   //!< earliest legal read launch (turnaround)
    Slot write_ok_ = 0;  //!< earliest legal write launch
    HighWater high_water_;
};

} // namespace pktbuf::dss

#endif // PKTBUF_DSS_ONGOING_REQUESTS_HH
