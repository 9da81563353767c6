#include "fabric.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pktbuf::fabric
{

unsigned
hotCount(unsigned requested, unsigned ports)
{
    const unsigned hot = requested ? requested : std::max(1u, ports / 4);
    return std::min(hot, ports);
}

void
checkKnobs(const char *layer, unsigned ports, double load,
           TrafficPattern pattern, unsigned victim,
           double hot_fraction)
{
    fatal_if(ports == 0, layer, " needs at least one port");
    fatal_if(ports > kMaxPorts, layer, " has ", ports,
             " ports, more than the limit of ", kMaxPorts);
    fatal_if(load <= 0.0, layer, " load must be positive");
    fatal_if(pattern == TrafficPattern::Incast && victim >= ports,
             layer, " incast victim ", victim, " out of range (", ports,
             " ports)");
    // A fraction at (or beyond) either extreme starves one side of
    // the split outright -- the starved legs would then fail the
    // "delivered no cells" invariant with a misleading diagnosis, so
    // reject the impossible knob up front.
    fatal_if((pattern == TrafficPattern::Hotspot ||
              pattern == TrafficPattern::Incast) &&
                 (hot_fraction <= 0.0 || hot_fraction >= 1.0),
             layer, " hot fraction ", hot_fraction,
             " outside (0, 1) starves one side of the ",
             toString(pattern), " split");
}

StatAgg
aggregateStat(const std::vector<double> &per_leg)
{
    StatAgg a;
    if (per_leg.empty())
        return a;
    Sampler s;
    for (const double v : per_leg) {
        a.sum += v;
        s.sample(v);
    }
    a.min = s.min();
    a.max = s.max();
    a.mean = s.mean();
    // One joint estimator for both targets: its shared sorted marker
    // array keeps p99 >= p50 (two independent one-quantile P²
    // estimators cross on adversarial inputs).
    P2QuantileSet pq({0.50, 0.99});
    for (const double v : per_leg)
        pq.sample(v);
    a.p50 = pq.quantile(0.50);
    a.p99 = pq.quantile(0.99);
    return a;
}

const StatAgg *
Report::agg(const std::string &name) const
{
    for (const auto &[k, v] : aggregates)
        if (k == name)
            return &v;
    return nullptr;
}

namespace
{

/** One aggregated stat: its record name and per-leg extractor. */
struct StatDef
{
    const char *name;
    double (*get)(const sim::ScenarioOutcome &);
};

constexpr StatDef kStatDefs[] = {
    {"arrivals",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.run.arrivals);
     }},
    {"granted",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.verified);
     }},
    {"drained",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.drained);
     }},
    {"drops",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.run.drops);
     }},
    {"undelivered",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.undelivered);
     }},
    {"mean_delay_slots",
     [](const sim::ScenarioOutcome &o) { return o.run.meanDelaySlots; }},
    {"max_delay_slots",
     [](const sim::ScenarioOutcome &o) { return o.run.maxDelaySlots; }},
    {"dram_reads",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.report.dramReads);
     }},
    {"dram_writes",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.report.dramWrites);
     }},
    {"renames",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.report.renames);
     }},
    {"head_sram_hw",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.report.headSramHighWater);
     }},
    {"tail_sram_hw",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.report.tailSramHighWater);
     }},
    {"rr_hw",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.report.rrHighWater);
     }},
    {"dsa_stalls",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.report.dsaStalls);
     }},
};

} // namespace

void
aggregate(const std::vector<sim::ScenarioOutcome> &legs, Report &r,
          StatRegistry *spread)
{
    r.ports = static_cast<unsigned>(legs.size());
    for (const auto &o : legs) {
        if (!o.passed)
            ++r.failed;
        r.arrivals += o.run.arrivals;
        r.granted += o.verified;
        r.drained += o.drained;
        r.drops += o.run.drops;
        r.undelivered += o.undelivered;
        r.dramReads += o.report.dramReads;
        r.dramWrites += o.report.dramWrites;
        r.renames += o.report.renames;
        r.dsaStalls += o.report.dsaStalls;
    }
    std::vector<double> values;
    for (const auto &def : kStatDefs) {
        values.clear();
        for (const auto &o : legs)
            values.push_back(def.get(o));
        if (spread) {
            auto &sampler =
                spread->sampler(std::string("across_ports.") + def.name);
            for (const double v : values)
                sampler.sample(v);
        }
        r.aggregates.emplace_back(def.name, aggregateStat(values));
    }
}

void
addSums(sweep::Record &rec, const Report &r)
{
    rec.set("arrivals", r.arrivals)
        .set("granted", r.granted)
        .set("drained", r.drained)
        .set("drops", r.drops)
        .set("undelivered", r.undelivered)
        .set("dram_reads", r.dramReads)
        .set("dram_writes", r.dramWrites)
        .set("renames", r.renames);
}

void
addSpread(sweep::Record &rec, const Report &r,
          std::initializer_list<const char *> stats)
{
    for (const char *name : stats) {
        const StatAgg *a = r.agg(name);
        panic_if(!a, "fabric report: missing aggregate for ", name);
        const std::string n = name;
        rec.set(n + "_min", a->min)
            .set(n + "_max", a->max)
            .set(n + "_mean", a->mean)
            .set(n + "_p50", a->p50)
            .set(n + "_p99", a->p99);
    }
}

} // namespace pktbuf::fabric
