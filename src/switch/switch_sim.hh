/**
 * @file
 * Switch-scale simulation: N independent hybrid SRAM/DRAM packet
 * buffers ("ports", one per line card) driven by a cross-port
 * traffic pattern and aggregated into one switch-level report.
 *
 * Each port is a full scenario leg: its own HybridBuffer (mixed
 * RADS / CFDS / CFDS+renaming and per-port DDR timing allowed), its
 * own workload, its own RNG seeded with deriveSeed(masterSeed, port)
 * -- so no port's stream depends on any other port, on the port
 * count, or on the execution schedule.  Ports are driven
 * slot-lockstep: every port advances the same logical slot clock
 * over the same `slots` budget, and because ports share no mutable
 * state, executing them concurrently on the sweep engine's thread
 * pool (sweep::forEachItem) is *exactly* equivalent to interleaving
 * them slot by slot.  Results aggregate in port order, so stdout and
 * the JSON/CSV artifacts are byte-identical for any --jobs value.
 *
 * The load-bearing invariant: a 1-port switch under the uniform
 * pattern builds the very Scenario a single-buffer matrix leg would
 * build and runs it through the same soak::runScenario() driver, so
 * its per-port outcome reproduces that leg bit-for-bit.  The switch
 * layer adds traffic *shape*, never a second simulation code path.
 */

#ifndef PKTBUF_SWITCH_SWITCH_SIM_HH
#define PKTBUF_SWITCH_SWITCH_SIM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "fabric/fabric.hh"
#include "sim/scenario.hh"
#include "sweep/record.hh"
#include "fabric/traffic.hh"

namespace pktbuf::sw
{

/** The pattern vocabulary under the switch layer's names. */
using fabric::TrafficPattern;
using fabric::toString;
using fabric::parseTrafficPattern;

/** Static configuration of a whole switch run. */
struct SwitchConfig
{
    /** Number of ports (independent buffer instances). */
    unsigned ports = 4;

    TrafficPattern pattern = TrafficPattern::Uniform;

    /** Buffer architecture of every port... */
    sim::BufferVariant variant = sim::BufferVariant::Cfds;
    /** ...unless mixed: port p cycles CFDS / RADS / CFDS+renaming. */
    bool mixedVariants = false;

    /** Per-port leg shape (same meaning as sim::Scenario). */
    unsigned queues = 8;
    unsigned granRads = 8;  //!< B
    unsigned gran = 2;      //!< b (forced to B on RADS ports)
    unsigned groups = 4;    //!< G (forced to 1 on RADS ports)

    /**
     * Mean offered load per port; the switch's aggregate offered
     * load is ports * load, which the pattern redistributes (hot
     * ports above `load`, cold ports below).  Resolved per-port
     * loads are clamped to kMaxPortLoad.
     */
    double load = 0.45;

    std::uint64_t slots = 20000;

    /** Every port's seed is deriveSeed(masterSeed, port). */
    std::uint64_t masterSeed = 1;

    /** Hotspot: hot port count; 0 = max(1, ports/4). */
    unsigned hotPorts = 0;
    /** Hotspot/incast: fraction of total arrivals on the hot side. */
    double hotFraction = 0.5;

    /** Incast: the victim port index (must be < ports). */
    unsigned incastVictim = 0;
    /** Incast: mean burst length on the victim port. */
    std::uint64_t incastBurst = 64;

    /**
     * DDR timing applied to CFDS ports (non-uniform timing requires
     * the banked organization; RADS and renaming ports keep the
     * uniform model).  Remember timed-DRAM configs steal launch
     * opportunities: pick `load` the line can still sustain.
     */
    dram::TimingConfig timing;

    /**
     * Run every port on the event-calendar engine instead of the
     * per-slot reference loop.  Pure execution strategy: plumbed
     * into each port's sim::Scenario::eventEngine and, like it,
     * excluded from name()/describe() so artifacts and checkpoint
     * fingerprints stay byte-identical across engines.
     */
    bool eventEngine = false;

    /** Hard cap on any resolved per-port load. */
    static constexpr double kMaxPortLoad = 0.9;

    /**
     * Hard cap on a *bursty* port's load (the incast victim).  A
     * burst concentrates the port's whole arrival rate on one VOQ,
     * whose bank group sustains only 1 access per b slots shared
     * between reads and writes -- concentrated loads above ~0.5
     * violate the Eq. (1) RR sizing assumptions (DESIGN.md's
     * concentration argument; the renaming property tests run their
     * bursts at the same 0.45 for the same reason).
     */
    static constexpr double kMaxBurstyLoad = 0.45;

    /** Unique, file/test-name-safe identifier of the run. */
    std::string name() const;
    /** name() plus loads, slots and the master seed (replayable). */
    std::string describe() const;
};

/**
 * Fully resolved plan of one port: the scenario leg it runs (buffer
 * config, resolved load, derived seed, slot budget) plus the
 * cross-port traffic role the pattern assigned to it.  A plan is
 * self-contained -- soak::runScenario over the plan's scenario and
 * makePortWorkload(plan) rebuilds the port bit-for-bit with no
 * access to the SwitchConfig or to any other port.
 */
struct PortPlan
{
    unsigned port = 0;
    TrafficPattern pattern = TrafficPattern::Uniform;

    /** The leg: variant, queues, granularity, load, seed, slots. */
    sim::Scenario scenario;

    /** Incast: this port is the burst-convergence victim. */
    bool victim = false;
    /** Incast victim's mean burst length. */
    std::uint64_t burstLen = 64;

    /** Permutation: the VOQ affinity stripe arrivals cycle over
     *  (empty for every other pattern). */
    std::vector<QueueId> affinity;

    /** "port<p>": the port's row and failure label. */
    std::string legName() const { return "port" + std::to_string(port); }
};

/**
 * Resolve a switch configuration into one plan per port: derive the
 * per-port seed, redistribute the aggregate load according to the
 * pattern, assign variants (fixed or cycled) and, for the
 * permutation pattern, build the seeded port -> queue-stripe map.
 *
 * @param cfg the switch configuration; fatal() on impossible knobs
 *            (zero ports, incast victim out of range)
 * @return plans in port order
 */
std::vector<PortPlan> planPorts(const SwitchConfig &cfg);

/**
 * Instantiate the workload a plan calls for.  Uniform/hotspot ports
 * and incast non-victims delegate to sim::makeWorkload (identical
 * streams to the matrix legs); incast victims run BurstyOnOff with
 * the plan's burst length; permutation ports run SubsetRoundRobin
 * over their affinity stripe.
 */
std::unique_ptr<sim::Workload> makePortWorkload(const PortPlan &plan);

/** Switch-level aggregation of the per-port reports. */
struct SwitchReport : fabric::Report
{
    /**
     * Every port's counters and high-water marks, namespaced
     * "port<i>.<stat>" ("port3.granted", "port0.head_sram.max"),
     * plus "across_ports.<stat>" samplers -- dump()able like any
     * component registry.
     */
    StatRegistry stats;
};

/** Outcome of a whole switch run. */
struct SwitchOutcome
{
    /** The plans that ran, in port order. */
    std::vector<PortPlan> plans;
    /** Per-port outcomes, in port order. */
    std::vector<sim::ScenarioOutcome> ports;
    SwitchReport report;
    bool passed = false;
    /** Every failed port's diagnosis (each names its seed). */
    std::string failure;
};

/**
 * Run a list of port plans: shard the ports onto the sweep engine's
 * thread pool (`jobs` caps the threads as in sweep::SweepOptions),
 * run each through soak::runScenario (golden checker on, full
 * drain) with its makePortWorkload, and aggregate the outcomes in
 * port order.  Because every plan is
 * self-contained, the result -- including every byte of the derived
 * artifacts -- is independent of `jobs` and of the plans' positions
 * in the list.
 */
SwitchOutcome runPlans(const std::vector<PortPlan> &plans,
                       unsigned jobs);

/**
 * The switch simulator: resolves the configuration into port plans
 * once, then runs them on demand.
 */
class SwitchSim
{
  public:
    explicit SwitchSim(const SwitchConfig &cfg)
        : cfg_(cfg), plans_(planPorts(cfg))
    {}

    const SwitchConfig &config() const { return cfg_; }
    const std::vector<PortPlan> &plans() const { return plans_; }

    /** Run all ports (golden-checked, drained); see runPlans(). */
    SwitchOutcome
    run(unsigned jobs = 1) const
    {
        return runPlans(plans_, jobs);
    }

  private:
    SwitchConfig cfg_;
    std::vector<PortPlan> plans_;
};

/**
 * One result row per port: the scenario record of the port's leg
 * plus the port index, pattern and (for permutation) the affinity
 * stripe.  Field order is stable; the 1-port equivalence tests
 * byte-compare the scenario-record prefix against the matching
 * single-buffer leg.
 */
sweep::Record portRecord(const PortPlan &plan,
                         const sim::ScenarioOutcome &out);

/** The aggregate row: switch configuration echo, sums, and
 *  min/max/mean/p50/p99 for the headline stats. */
sweep::Record switchRecord(const SwitchConfig &cfg,
                           const SwitchOutcome &out);

/**
 * Emit the sweep-schema JSON/CSV artifacts of a finished run: one
 * row per port (in port order) plus one final "aggregate" row.
 * Purely a function of the outcome, hence byte-identical for any
 * --jobs value.  Paths: empty = skip, "-" = stdout.
 */
void emitSwitchArtifacts(const SwitchConfig &cfg,
                         const SwitchOutcome &out,
                         const std::string &tool,
                         sweep::Record extra_meta,
                         const std::string &json_path,
                         const std::string &csv_path);

} // namespace pktbuf::sw

#endif // PKTBUF_SWITCH_SWITCH_SIM_HH
