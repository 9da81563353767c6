/**
 * @file
 * The DRAM Scheduler Algorithm (DSA) tying one Requests Register to
 * the shared Ongoing Requests Register: every granularity interval
 * it launches the oldest request whose bank is free (Section 5.3).
 * HybridBuffer owns one scheduler whose Requests Register holds
 * reads and writes together (the combined RR of Figure 5); the ORR
 * is a separate object because a bank is locked no matter which
 * direction locked it.
 *
 * With a timed DRAM policy (dram/timing.hh) a launch can be refused
 * for three distinct reasons -- bank busy, refresh blackout, or
 * read<->write turnaround -- and the scheduler accounts every failed
 * scheduling opportunity by the cause blocking its oldest pending
 * request, both in its own counters and (when provided) in a shared
 * StatRegistry under "dsa.stall.<cause>".
 */

#ifndef PKTBUF_DSS_DRAM_SCHEDULER_HH
#define PKTBUF_DSS_DRAM_SCHEDULER_HH

#include <array>
#include <optional>

#include "common/stats.hh"
#include "dss/ongoing_requests.hh"
#include "dss/request_register.hh"

namespace pktbuf::dss
{

class DramScheduler
{
  public:
    /**
     * @param rr_capacity        Requests Register capacity (0 = off)
     * @param orr                the shared bank-lock table
     * @param in_order_per_queue block younger same-queue writes
     * @param stats              optional registry receiving the
     *                           per-cause stall counters
     */
    DramScheduler(std::size_t rr_capacity, OngoingRequests &orr,
                  bool in_order_per_queue = false,
                  StatRegistry *stats = nullptr)
        : rr_(rr_capacity, in_order_per_queue), orr_(orr)
    {
        if (stats) {
            // Registry counters are stable references: resolve the
            // names once instead of paying a string build + map
            // lookup on every stalled scheduling opportunity.
            for (std::size_t c = 0; c < registry_stalls_.size(); ++c) {
                registry_stalls_[c] = &stats->counter(
                    std::string("dsa.stall.") +
                    dram::toString(static_cast<dram::StallCause>(c)));
            }
        }
    }

    /** MMA issues a new request. */
    void
    push(const DramRequest &req)
    {
        rr_.push(req);
    }

    /**
     * One scheduling opportunity: pick the oldest non-blocked
     * request and launch it (locking its bank).  Returns the
     * launched request, or nullopt if the register is empty or the
     * timing policy blocks every pending request -- in which case
     * the stall is accounted to the cause blocking the oldest one.
     */
    std::optional<DramRequest>
    tryLaunch(Slot now)
    {
        if (rr_.empty())
            return std::nullopt;
        std::optional<dram::StallCause> oldest_blocked;
        auto req = rr_.selectOldestReady(
            [&](const DramRequest &r) {
                return orr_.blockedCause(r.bank, accessKind(r), now);
            },
            &oldest_blocked);
        if (!req) {
            stalls_.inc();
            if (oldest_blocked)
                recordStall(*oldest_blocked);
            return std::nullopt;
        }
        orr_.add(req->bank, now, accessKind(*req));
        launches_.inc();
        queue_delay_.sample(static_cast<double>(now - req->issued));
        return req;
    }

    RequestRegister &rr() { return rr_; }
    const RequestRegister &rr() const { return rr_; }

    std::uint64_t launches() const { return launches_.value(); }
    std::uint64_t stalls() const { return stalls_.value(); }
    /** Stalled opportunities attributed to `cause` (the cause that
     *  blocked the oldest pending request at stall time). */
    std::uint64_t
    stallsFor(dram::StallCause cause) const
    {
        return stall_cause_[static_cast<std::size_t>(cause)].value();
    }
    /** Delay from MMA issue to DSA launch, in slots. */
    const Sampler &queueDelay() const { return queue_delay_; }

    /** Checkpoint.  The ORR reference and the pre-resolved registry
     *  counter pointers are wiring, rebuilt by the constructor; the
     *  registry counters themselves restore with the registry. */
    void
    fields(ser::Io &io)
    {
        io.tag("DSAS");
        rr_.fields(io);
        launches_.fields(io);
        stalls_.fields(io);
        for (auto &c : stall_cause_)
            c.fields(io);
        queue_delay_.fields(io);
    }

  private:
    static dram::AccessKind
    accessKind(const DramRequest &r)
    {
        return r.kind == DramRequest::Kind::Read
                   ? dram::AccessKind::Read
                   : dram::AccessKind::Write;
    }

    void
    recordStall(dram::StallCause cause)
    {
        const auto c = static_cast<std::size_t>(cause);
        stall_cause_[c].inc();
        if (registry_stalls_[c])
            registry_stalls_[c]->inc();
    }

    RequestRegister rr_;
    OngoingRequests &orr_;  // ser: config
    Counter launches_;
    Counter stalls_;
    /** Indexed by StallCause. */
    std::array<Counter, 3> stall_cause_;
    /** Pre-resolved "dsa.stall.<cause>" registry counters (null
     *  when no registry was given). */
    std::array<Counter *, 3> registry_stalls_{};  // ser: config
    Sampler queue_delay_;
};

} // namespace pktbuf::dss

#endif // PKTBUF_DSS_DRAM_SCHEDULER_HH
