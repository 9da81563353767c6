/**
 * @file
 * The fabric layer: what the switch (src/switch) and the crossbar
 * (src/crossbar) share around their legs.
 *
 * Both model the paper's Figure 1 router -- N line cards, each a
 * VOQ packet buffer -- as N sim::Scenario legs.  The switch runs them
 * independently on the sweep pool; the crossbar steps them in
 * lockstep behind a matching scheduler.  Everything else is one
 * decision made once, here:
 *
 *  - the pattern knobs every fabric rejects and the default hot
 *    count (checkKnobs, hotCount);
 *  - the knobs both describe() texts print alike (describeKnobs);
 *  - the buffer every leg runs: RADS forces b = B and G = 1,
 *    renaming bounds DRAM at physical queues x B, leg i's seed is
 *    deriveSeed(master, i) (shapeLeg);
 *  - the sums and the across-leg spread of the per-leg stats
 *    (Report, aggregate) and their fields on the aggregate row
 *    (addSums, addSpread);
 *  - the failure text of a run (failureText);
 *  - the artifact rows: one per leg, then the aggregate row, with
 *    "failed" counting every ok=false row (emitArtifacts).
 *
 * What stays per layer is the traffic arithmetic, the legs'
 * workloads and the run loop.
 */

#ifndef PKTBUF_FABRIC_FABRIC_HH
#define PKTBUF_FABRIC_FABRIC_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "sim/scenario.hh"
#include "sweep/emit.hh"
#include "sweep/record.hh"
#include "sweep/sweep.hh"
#include "fabric/traffic.hh"

namespace pktbuf::fabric
{

/** Hot ports (or outputs) of a skewed pattern: `requested`, or
 *  max(1, ports / 4) when 0; never more than `ports`. */
unsigned hotCount(unsigned requested, unsigned ports);

/**
 * Largest radix either fabric accepts.  The crossbar binds: each of
 * its N inputs is a whole buffer with one VOQ per output, so its
 * state grows as N^2 VOQs at about 1 KB of per-queue buffer state
 * each (the RSS step from a constructed 128- to a 256-port
 * crossbar) -- about 1 GB at 1024 ports, 16 GB at 4096.  A switch
 * port is one fixed-size buffer, far below that.  Without the bound
 * a huge radix dies in the allocator instead of failing with this
 * message.
 */
constexpr unsigned kMaxPorts = 1024;

/**
 * Largest queue count per switch port.  A port keeps about 430 bytes
 * of state per queue (per-queue SRAM, DRAM, MMA and DSS bookkeeping,
 * the lookahead and latency stages, about 8 per queue at b = 2, the
 * workload's credits and the golden checker), and about 770 with
 * renaming -- the peak-RSS step from building and stepping a
 * one-port 1024-queue switch to a 65536-queue one.  2^20 queues is
 * thus at most about 800 MB per port; without the bound a huge count
 * dies in the allocator (4e9 queues would need terabytes).
 */
constexpr unsigned kMaxQueues = 1u << 20;

/**
 * fatal() on pattern knobs no fabric can run: zero ports or more
 * than kMaxPorts, a load that is not positive, an incast victim out
 * of range, or a hotspot or incast fraction outside (0, 1), which
 * would starve one side of the split.  `layer` ("switch",
 * "crossbar") prefixes the message.
 */
void checkKnobs(const char *layer, unsigned ports, double load,
                TrafficPattern pattern, unsigned victim,
                double hot_fraction);

/**
 * Print what a switch and a crossbar config describe alike: name,
 * groups, load, slots and master seed, then `between` (the crossbar's
 * scheduler knob), then the hotspot or incast shape, with the hot
 * count named `hot_name` ("hot_ports", "hot_outputs").  Both
 * describe() texts are checkpoint fingerprints, so what this prints
 * must not change.
 */
template <typename Config>
void
describeKnobs(std::ostream &os, const Config &cfg, const char *hot_name,
              unsigned hot, const std::string &between = "")
{
    os << cfg.name() << " groups=" << cfg.groups << " load=" << cfg.load
       << " slots=" << cfg.slots << " master_seed=" << cfg.masterSeed
       << between;
    if (cfg.pattern == TrafficPattern::Hotspot) {
        os << " " << hot_name << "=" << hotCount(hot, cfg.ports)
           << " hot_fraction=" << cfg.hotFraction;
    }
    if (cfg.pattern == TrafficPattern::Incast) {
        os << " victim=" << cfg.incastVictim << " burst="
           << cfg.incastBurst << " hot_fraction=" << cfg.hotFraction;
    }
}

/** The buffer one leg runs, before its layer sets load and traffic. */
struct LegShape
{
    sim::BufferVariant variant = sim::BufferVariant::Cfds;
    unsigned queues = 8;      //!< logical VOQs
    unsigned physQueues = 0;  //!< renaming legs: physical queues
    unsigned granRads = 8;    //!< B
    unsigned gran = 2;        //!< b (forced to B on RADS)
    unsigned groups = 4;      //!< G (forced to 1 on RADS)
    std::uint64_t slots = 20000;
    std::uint64_t masterSeed = 1;
    bool eventEngine = false;
};

/**
 * The scenario of leg `index`: Bernoulli traffic, the shape's buffer
 * and slots, seed deriveSeed(masterSeed, index).  Renaming legs get
 * a DRAM of physQueues x B cells, tight enough that renaming chains
 * form (the matrix's renaming legs use the same shape).  Inline:
 * planning calls it once per leg, and as an out-of-line call it cost
 * a 64-port switch about a tenth of its setup time.
 */
inline sim::Scenario
shapeLeg(const LegShape &shape, unsigned index)
{
    sim::Scenario s;
    s.variant = shape.variant;
    s.workload = sim::WorkloadKind::Bernoulli;
    s.queues = shape.queues;
    s.granRads = shape.granRads;
    if (s.variant == sim::BufferVariant::Rads) {
        s.gran = shape.granRads;
        s.groups = 1;
    } else {
        s.gran = shape.gran;
        s.groups = shape.groups;
    }
    if (s.variant == sim::BufferVariant::CfdsRenaming) {
        s.physQueues = shape.physQueues;
        s.dramCells = 1ull * shape.physQueues * shape.granRads;
    }
    s.slots = shape.slots;
    s.seed = sweep::deriveSeed(shape.masterSeed, index);
    s.eventEngine = shape.eventEngine;
    return s;
}

/** sum / min / max / mean / p50 / p99 of one stat across legs. */
struct StatAgg
{
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;  //!< via P2QuantileSet({0.5, 0.99})
    double p99 = 0.0;  //!< same estimator; >= p50 by construction
};

/**
 * Aggregate one per-leg stat vector.  Percentiles come from one
 * joint streaming P^2 estimator (P2QuantileSet, common/stats.hh):
 * exact linear interpolation at rank p*(n-1) for up to seven legs,
 * the shared 7-marker approximation beyond, always within [min, max]
 * and with p99 >= p50 guaranteed by the shared sorted marker array.
 * Deterministic for a given input order, O(1) memory in the leg
 * count.
 */
StatAgg aggregateStat(const std::vector<double> &per_leg);

/** A fabric run's totals over its legs. */
struct Report
{
    unsigned ports = 0;
    /** Legs that failed. */
    std::size_t failed = 0;

    /** Straight sums over legs. */
    std::uint64_t arrivals = 0;
    std::uint64_t granted = 0;  //!< golden-verified grants
    std::uint64_t drained = 0;
    std::uint64_t drops = 0;
    std::uint64_t undelivered = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t renames = 0;
    std::uint64_t dsaStalls = 0;

    /**
     * Per-stat aggregates across legs, in a fixed canonical order.
     * Keys are the scenarioRecord field names ("granted", "drops",
     * "mean_delay_slots", ...).
     */
    std::vector<std::pair<std::string, StatAgg>> aggregates;

    /** The named aggregate, or nullptr when absent. */
    const StatAgg *agg(const std::string &name) const;
};

/**
 * Fill `r` with the sums and the aggregates of `legs`.  With
 * `spread`, every stat's values are also sampled into its
 * "across_ports.<stat>" sampler there.
 */
void aggregate(const std::vector<sim::ScenarioOutcome> &legs,
               Report &r, StatRegistry *spread = nullptr);

/** Set the sums "arrivals" .. "renames" of `r` on an aggregate row. */
void addSums(sweep::Record &rec, const Report &r);

/**
 * Set "<stat>_min/_max/_mean/_p50/_p99" on an aggregate row for each
 * named stat; panics when `r` has no such aggregate.
 */
void addSpread(sweep::Record &rec, const Report &r,
               std::initializer_list<const char *> stats);

/**
 * `head` (a run-level diagnosis, or empty) followed by
 * "<leg>: <failure>" for every failed leg, " | "-separated.  Leg i
 * is named plans[i].legName().
 */
template <typename Plan>
std::string
failureText(std::string head, const std::vector<Plan> &plans,
            const std::vector<sim::ScenarioOutcome> &legs)
{
    for (std::size_t i = 0; i < legs.size(); ++i) {
        if (legs[i].passed)
            continue;
        if (!head.empty())
            head += " | ";
        head += plans[i].legName() + ": " + legs[i].failure;
    }
    return head;
}

/**
 * Emit a finished run as sweep-schema artifacts: one row per leg, in
 * order -- task out.plans[i].legName(), record row(out.plans[i],
 * legs[i]) -- then the "aggregate" row.  A leg's row carries ok=false
 * when the leg failed, the aggregate row when the run did, and
 * "failed" counts every such row, the aggregate included.  Purely a
 * function of its arguments.  Paths: empty = skip, "-" = stdout.
 *
 * @param out the run's outcome: its plans, passed and failure
 * @param legs the legs' outcomes, in plan order
 */
template <typename Outcome, typename RowFn>
void
emitArtifacts(const Outcome &out,
              const std::vector<sim::ScenarioOutcome> &legs, RowFn row,
              sweep::Record aggregate, const sweep::EmitMeta &meta,
              const std::string &json_path, const std::string &csv_path)
{
    if (json_path.empty() && csv_path.empty())
        return;
    // The (tasks, report) pair the sweep emitters expect; the task
    // callables are never run -- only the names label the rows.
    std::vector<sweep::Task> tasks;
    sweep::SweepReport rep;
    const auto add = [&](std::string task, sweep::Record rec, bool ok,
                         const std::string &error) {
        tasks.push_back(sweep::Task{std::move(task), {}});
        sweep::TaskResult tr;
        tr.records.push_back(std::move(rec));
        tr.ok = ok;
        if (!ok) {
            tr.error = error;
            ++rep.failed;
        }
        rep.results.push_back(std::move(tr));
    };
    for (std::size_t i = 0; i < legs.size(); ++i) {
        add(out.plans[i].legName(), row(out.plans[i], legs[i]),
            legs[i].passed, legs[i].failure);
    }
    add("aggregate", std::move(aggregate), out.passed, out.failure);
    sweep::emitArtifacts(rep, tasks, meta, json_path, csv_path);
}

} // namespace pktbuf::fabric

#endif // PKTBUF_FABRIC_FABRIC_HH
