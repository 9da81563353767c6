#include "runner.hh"

namespace pktbuf::sim
{

SimRunner::SimRunner(buffer::HybridBuffer &buf, Workload &wl,
                     bool check)
    : buf_(buf), wl_(wl), check_(check), checker_(wl.queues())
{}

void
SimRunner::onGrant(const buffer::GrantInfo &grant)
{
    if (check_)
        checker_.onGrant(grant.logicalQueue, grant.cell);
    ++grants_;
    delay_.sample(
        static_cast<double>(buf_.now() - 1 - grant.cell.arrival));
}

RunResult
SimRunner::run(std::uint64_t slots)
{
    buffer::HybridBuffer &buf = buf_;
    const auto admit = [&buf](QueueId q) { return buf.wouldAdmit(q); };
    const auto stepSlot = [&]() {
        const Stimulus s = wl_.step(buf.now(), admit);
        if (s.arrival)
            ++arrivals_;
        if (const auto grant = buf.step(s.arrival, s.request))
            onGrant(*grant);
        ++slots_;
    };
    if (!wl_.leaps()) {
        for (std::uint64_t i = 0; i < slots; ++i)
            stepSlot();
    } else {
        // The workload pre-rolls the slots without stimulus; the
        // buffer leaps over their inert stretches and steps the rest,
        // whose grants are checked as usual.  Then the slot with
        // stimulus, unless `slots` ran out first.
        std::uint64_t left = slots;
        while (left > 0) {
            const std::uint64_t idle = wl_.idleRun(left);
            const Slot to = buf.now() + idle;
            while (const auto grant = buf.runIdle(to))
                onGrant(*grant);
            slots_ += idle;
            left -= idle;
            if (left > 0) {
                stepSlot();
                --left;
            }
        }
    }
    RunResult r;
    r.slots = slots_;
    r.arrivals = arrivals_;
    r.grants = grants_;
    r.drops = wl_.drops();
    r.meanDelaySlots = delay_.mean();
    r.maxDelaySlots = delay_.max();
    return r;
}

void
SimRunner::fields(ser::Io &io)
{
    io.tag("SRUN");
    checker_.fields(io);
    delay_.fields(io);
    io.u64(arrivals_);
    io.u64(grants_);
    io.u64(slots_);
}

std::uint64_t
SimRunner::drain(std::uint64_t max_slots)
{
    std::uint64_t drained = 0;
    std::uint64_t idle = 0;
    const std::uint64_t idle_limit = buf_.pipelineDepth() + 4 *
        static_cast<std::uint64_t>(buf_.config().params.granRads) + 8;
    QueueId next = 0;
    for (std::uint64_t i = 0; i < max_slots; ++i) {
        // The credit total skips the O(Q) probe on the pipeline-deep
        // tail of empty slots, so a drain costs O(Q), not O(Q^2).
        QueueId req = kInvalidQueue;
        if (wl_.totalCredit() > 0) {
            req = wl_.nextRequestable(next);
            next = (req + 1) % wl_.queues();
            wl_.consumeCredit(req);
        }
        const auto grant = buf_.step(std::nullopt, req);
        if (grant) {
            if (check_)
                checker_.onGrant(grant->logicalQueue, grant->cell);
            ++grants_;
            ++drained;
            idle = 0;
        } else if (req == kInvalidQueue) {
            if (++idle > idle_limit)
                break;
        }
        ++slots_;
    }
    return drained;
}

} // namespace pktbuf::sim
