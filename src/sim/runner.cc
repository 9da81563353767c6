#include "runner.hh"

namespace pktbuf::sim
{

SimRunner::SimRunner(buffer::HybridBuffer &buf, Workload &wl,
                     bool check)
    : buf_(buf), wl_(wl), check_(check), checker_(wl.queues())
{}

RunResult
SimRunner::run(std::uint64_t slots)
{
    buffer::HybridBuffer &buf = buf_;
    const auto admit = [&buf](QueueId q) { return buf.wouldAdmit(q); };
    for (std::uint64_t i = 0; i < slots; ++i) {
        const Stimulus s = wl_.step(buf.now(), admit);
        if (s.arrival)
            ++arrivals_;
        const auto grant = buf.step(s.arrival, s.request);
        if (grant) {
            if (check_)
                checker_.onGrant(grant->logicalQueue, grant->cell);
            ++grants_;
            delay_.sample(static_cast<double>(buf.now() - 1 -
                                              grant->cell.arrival));
        }
        ++slots_;
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
        QueueId req = kInvalidQueue;
        for (unsigned k = 0; k < wl_.queues(); ++k) {
            const QueueId q = (next + k) % wl_.queues();
            if (wl_.credit(q) > 0) {
                req = q;
                next = (q + 1) % wl_.queues();
                break;
            }
        }
        if (req != kInvalidQueue)
            wl_.consumeCredit(req);
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
