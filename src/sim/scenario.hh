/**
 * @file
 * Scenario-matrix differential harness: a table-driven sweep of
 * buffer variant (RADS / CFDS / CFDS+renaming) x workload
 * (adversarial, bernoulli, bursty, drain-order permutations) x
 * granularity b x queue count.  Every leg runs with the golden FIFO
 * checker enabled, is drained to completion, and reports a
 * self-describing pass/fail outcome that always names the seed, so
 * any failure is reproducible from the log alone.  The legs run
 * through soak::runScenario (soak/checkpoint.hh), the one driver of
 * every leg.
 *
 * The matrix is the regression backbone for later scaling and
 * performance PRs: a change to any layer (MMA, DSS, DRAM, renaming)
 * must keep every leg green.  It is exposed both as a parameterized
 * gtest (tests/test_scenario_matrix.cc) and as a CLI
 * (examples/scenario_matrix.cpp) with a --smoke mode for CI.
 */

#ifndef PKTBUF_SIM_SCENARIO_HH
#define PKTBUF_SIM_SCENARIO_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "buffer/packet_buffer.hh"
#include "dram/timing.hh"
#include "sim/runner.hh"
#include "sim/workload.hh"

namespace pktbuf::sim
{

/** Which architecture of the paper a leg exercises. */
enum class BufferVariant
{
    Rads,          //!< Section 3: b == B, one serialized DRAM
    Cfds,          //!< Section 5: b < B, banked, DSS-scheduled
    CfdsRenaming,  //!< Section 6: CFDS plus queue renaming
};

/** Which traffic/drain pattern a leg exercises. */
enum class WorkloadKind
{
    Adversarial,       //!< round-robin worst case at full load
    Bernoulli,         //!< uniform random arrivals and requests
    Bursty,            //!< on/off bursts on hot queues
    DrainPermutation,  //!< whole-queue drains in seeded random order
};

/** @return the lower-case leg-name token ("rads", "cfds", ...). */
std::string toString(BufferVariant v);
/** @return the lower-case leg-name token ("adversarial", ...). */
std::string toString(WorkloadKind k);

/** One leg of the matrix. */
struct Scenario
{
    BufferVariant variant = BufferVariant::Rads;
    WorkloadKind workload = WorkloadKind::Adversarial;

    /** Logical queues the workload drives. */
    unsigned queues = 8;
    /** Physical queues; 0 = same as `queues` (renaming uses more). */
    unsigned physQueues = 0;
    unsigned granRads = 8;  //!< B (slots per random access)
    unsigned gran = 8;      //!< b; forced to B for RADS
    /** Bank groups G; total banks M = G * (B/b).  1 for RADS. */
    unsigned groups = 1;
    /** DRAM capacity in cells; 0 = unbounded.  Renaming legs bound
     *  it so chains actually form. */
    std::uint64_t dramCells = 0;
    /**
     * Extra Requests Register entries above the Eq. (1) formula
     * (buffer::BufferConfig::rrSlack).  The formula assumes
     * randomized request patterns; legs whose requests are driven by
     * a work-conserving arbiter (the crossbar layer's VOQs, drained
     * in consecutive same-queue runs) declare the service
     * concentration here.  0 -- every legacy leg -- is bit-identical
     * to before the knob existed.
     */
    std::uint64_t rrSlack = 0;
    double load = 1.0;
    std::uint64_t seed = 1;
    std::uint64_t slots = 20000;

    /** DDR timing model; the uniform default keeps every legacy leg
     *  bit-identical.  Non-uniform configs are CFDS-only. */
    dram::TimingConfig timing;
    /** Name token for a non-uniform timing family ("refresh", ...);
     *  appended to name() so timing legs stay uniquely addressable. */
    std::string timingTag;
    /**
     * Override token for name()/describe() when the leg runs a
     * caller-supplied workload (soak::WorkloadFactory) that no
     * WorkloadKind names -- e.g. the switch layer's permutation
     * stripes ("subsetrr_o3_w4").  Empty (the default) keeps
     * toString(workload), so every legacy leg name is unchanged.
     * Purely cosmetic: failure logs and --list must describe the
     * workload that actually ran, or the repo's replay-from-log
     * convention breaks.
     */
    std::string workloadTag;
    /** Drive request selection through the genuinely uniform picker
     *  (Workload::uniformRequestable) instead of the legacy biased
     *  scan; only the timing legs opt in, so legacy outputs are
     *  unchanged. */
    bool unbiasedRequests = false;
    /**
     * Execution engine (buffer::BufferConfig::eventCore): true runs
     * the event-calendar core, false the reference per-slot loop.
     * An execution strategy, not part of the experiment, so it is
     * deliberately absent from name() and describe(): sweep records
     * and checkpoint fingerprints must stay engine-agnostic -- the
     * differential oracle (tests/test_event_core.cc) and the
     * byte-identity of the committed sweep baselines depend on it.
     */
    bool eventEngine = false;

    /**
     * Unique, gtest-name-safe identifier of the leg
     * (e.g. "cfds_bursty_q8_B8_b2").
     * @return the identifier; stable across runs and platforms.
     */
    std::string name() const;
    /**
     * Human-readable one-liner for logs and failure messages.
     * @return name() plus groups/DRAM/load/slots and -- always --
     *         the seed, so the leg can be replayed from a log line.
     */
    std::string describe() const;
    /** @return the resolved buffer configuration for this leg. */
    buffer::BufferConfig bufferConfig() const;
};

/** Outcome of one leg. */
struct ScenarioOutcome
{
    RunResult run{};
    std::uint64_t drained = 0;      //!< grants during the drain phase
    std::uint64_t verified = 0;     //!< grants golden-checked
    std::uint64_t undelivered = 0;  //!< credits left after drain
    /** The buffer's own counters (renames, DRAM traffic, ...). */
    buffer::BufferReport report{};
    bool passed = false;
    /** Diagnosis on failure; includes Scenario::describe() (seed). */
    std::string failure;
};

/**
 * Instantiate the workload a scenario asks for.
 * @param s the leg; its kind, queue count, seed and load are used
 * @return a freshly seeded generator (all randomness derives from
 *         `s.seed`, so identical scenarios replay bit-for-bit)
 */
std::unique_ptr<Workload> makeWorkload(const Scenario &s);

/**
 * Full sweep: 3 variants x 4 workloads x several (Q, B, b) grids.
 * @return the legs in canonical order (the order of the committed
 *         BENCH_scenario_matrix.json baseline)
 */
std::vector<Scenario> defaultMatrix();

/**
 * Reduced sweep (fewer slots, one grid per cell) for CI smoke.
 * @return one leg per (variant, workload) cell
 */
std::vector<Scenario> smokeMatrix();

/**
 * The timed-DRAM adversarial sweep: refresh-storm, turnaround-thrash
 * and asymmetric-bank-group legs (plus a uniform control), each
 * golden-checked and drained like every other leg.  Kept separate
 * from defaultMatrix() so the legacy matrix output stays
 * byte-identical; run via `scenario_matrix --timing` or
 * `bench_timing_sweep`.
 * @return the legs in canonical order (the order of the committed
 *         BENCH_timing.json baseline)
 */
std::vector<Scenario> timingMatrix();

/** Reduced timing sweep (fewer slots, one leg per family) for CI. */
std::vector<Scenario> timingSmokeMatrix();

} // namespace pktbuf::sim

#endif // PKTBUF_SIM_SCENARIO_HH
