/**
 * @file
 * SimRunner: drives a HybridBuffer with a Workload for a number of
 * slots, applying ingress admission control and verifying every
 * grant against the golden FIFO model.
 */

#ifndef PKTBUF_SIM_RUNNER_HH
#define PKTBUF_SIM_RUNNER_HH

#include <cstdint>

#include "buffer/hybrid_buffer.hh"
#include "common/stats.hh"
#include "sim/golden.hh"
#include "sim/workload.hh"

namespace pktbuf::sim
{

/** Aggregate outcome of a run. */
struct RunResult
{
    std::uint64_t slots = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t grants = 0;
    std::uint64_t drops = 0;
    double meanDelaySlots = 0.0;
    double maxDelaySlots = 0.0;
};

class SimRunner
{
  public:
    /**
     * @param check verify grants against the golden model (leave on
     *        except in throughput micro-benchmarks).
     */
    SimRunner(buffer::HybridBuffer &buf, Workload &wl,
              bool check = true);

    /** Advance `slots` slots (cumulative across calls). */
    RunResult run(std::uint64_t slots);

    const GoldenChecker &checker() const { return checker_; }

    /** Drain: stop feeding arrivals, request every remaining cell
     *  round-robin until all credited cells are granted (or the slot
     *  budget runs out).  Returns grants delivered while draining. */
    std::uint64_t drain(std::uint64_t max_slots);

    /**
     * Checkpoint the runner's own accumulators (golden checker,
     * delay sampler, counters).  The buffer and workload are saved
     * separately by the soak layer; restoring pairs this state with
     * a runner constructed over the restored buffer/workload.
     */
    void fields(ser::Io &io);

  private:
    /** Check and account a grant of the slot just stepped. */
    void onGrant(const buffer::GrantInfo &grant);

    buffer::HybridBuffer &buf_;  // ser: config
    Workload &wl_;  // ser: config
    bool check_;  // ser: config
    GoldenChecker checker_;
    Sampler delay_;
    std::uint64_t arrivals_ = 0;
    std::uint64_t grants_ = 0;
    std::uint64_t slots_ = 0;
};

} // namespace pktbuf::sim

#endif // PKTBUF_SIM_RUNNER_HH
