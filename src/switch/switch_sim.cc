#include "switch_sim.hh"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/logging.hh"
#include "common/random.hh"
#include "sim/workload.hh"
#include "soak/checkpoint.hh"
#include "sweep/emit.hh"
#include "sweep/scenario_sweep.hh"
#include "sweep/sweep.hh"

namespace pktbuf::sw
{

namespace
{

/** Salt index for the permutation pattern's port -> queue map: far
 *  outside any realistic port index, so the map's RNG stream never
 *  collides with a port's deriveSeed(master, port) stream. */
constexpr std::uint64_t kPermSalt = 0x7065726dull;  // "perm"

double
clampLoad(double v)
{
    return std::min(std::max(v, 0.0), SwitchConfig::kMaxPortLoad);
}

sim::BufferVariant
portVariant(const SwitchConfig &cfg, unsigned p)
{
    if (!cfg.mixedVariants)
        return cfg.variant;
    switch (p % 3) {
      case 0:
        return sim::BufferVariant::Cfds;
      case 1:
        return sim::BufferVariant::Rads;
      default:
        return sim::BufferVariant::CfdsRenaming;
    }
}

} // namespace

std::string
SwitchConfig::name() const
{
    std::ostringstream os;
    os << "switch_" << sw::toString(pattern) << "_p" << ports << "_"
       << (mixedVariants ? std::string("mixed")
                         : sim::toString(variant))
       << "_q" << queues << "_B" << granRads << "_b" << gran;
    return os.str();
}

std::string
SwitchConfig::describe() const
{
    std::ostringstream os;
    fabric::describeKnobs(os, *this, "hot_ports", hotPorts);
    if (!timing.isUniform())
        os << " timing=[" << timing.describe(granRads) << "]";
    return os.str();
}

std::vector<PortPlan>
planPorts(const SwitchConfig &cfg)
{
    fabric::checkKnobs("switch", cfg.ports, cfg.load, cfg.pattern,
                       cfg.incastVictim, cfg.hotFraction);
    fatal_if(cfg.queues == 0, "switch needs at least one queue");
    fatal_if(cfg.queues > fabric::kMaxQueues, "switch has ", cfg.queues,
             " queues per port, more than the limit of ",
             fabric::kMaxQueues);

    const double total = cfg.ports * cfg.load;
    const unsigned hot = fabric::hotCount(cfg.hotPorts, cfg.ports);

    // The permutation pattern's fixed port -> queue map: a seeded
    // Fisher-Yates permutation of the queue ids, drawn once for the
    // whole switch so the map -- like everything else -- is a pure
    // function of the master seed.
    std::vector<unsigned> perm(cfg.queues);
    std::iota(perm.begin(), perm.end(), 0u);
    if (cfg.pattern == TrafficPattern::Permutation) {
        Rng rng(sweep::deriveSeed(cfg.masterSeed, kPermSalt));
        for (unsigned i = cfg.queues - 1; i > 0; --i) {
            const auto j = static_cast<unsigned>(rng.below(i + 1));
            std::swap(perm[i], perm[j]);
        }
    }

    std::vector<PortPlan> plans;
    plans.reserve(cfg.ports);
    for (unsigned p = 0; p < cfg.ports; ++p) {
        PortPlan plan;
        plan.port = p;
        plan.pattern = cfg.pattern;

        // Renaming ports keep the physical queue count and run half
        // as many logical queues.
        const sim::BufferVariant variant = portVariant(cfg, p);
        sim::Scenario s = fabric::shapeLeg(
            {.variant = variant,
             .queues = variant == sim::BufferVariant::CfdsRenaming
                           ? std::max(1u, cfg.queues / 2)
                           : cfg.queues,
             .physQueues = cfg.queues,
             .granRads = cfg.granRads,
             .gran = cfg.gran,
             .groups = cfg.groups,
             .slots = cfg.slots,
             .masterSeed = cfg.masterSeed,
             .eventEngine = cfg.eventEngine},
            p);
        // Non-uniform DDR timing requires the banked CFDS
        // organization; RADS and renaming ports keep the uniform
        // model.
        if (s.variant == sim::BufferVariant::Cfds)
            s.timing = cfg.timing;

        double L = cfg.load;
        switch (cfg.pattern) {
          case TrafficPattern::Uniform:
          case TrafficPattern::Permutation:
            break;
          case TrafficPattern::Hotspot:
            // k hot ports absorb hotFraction of the switch's total
            // arrivals; with every port hot the split degenerates to
            // uniform.
            if (hot < cfg.ports) {
                L = p < hot
                        ? total * cfg.hotFraction / hot
                        : total * (1.0 - cfg.hotFraction) /
                              (cfg.ports - hot);
            }
            break;
          case TrafficPattern::Incast: {
            // The victim absorbs the convergent bursts, capped at
            // the bursty concentration bound; the remaining ports
            // stay at no more than half the victim's load, so the
            // victim is unambiguously the hot port.
            const double victim = std::min(
                std::max(cfg.load, total * cfg.hotFraction),
                SwitchConfig::kMaxBurstyLoad);
            if (p == cfg.incastVictim) {
                L = victim;
                plan.victim = true;
                plan.burstLen = cfg.incastBurst;
                s.workload = sim::WorkloadKind::Bursty;
            } else {
                L = std::min((total - victim) / (cfg.ports - 1),
                             victim / 2.0);
            }
            break;
          }
        }
        s.load = clampLoad(L);

        if (cfg.pattern == TrafficPattern::Permutation) {
            // Affinity stripe: half the port's (logical) VOQs,
            // starting at the seeded offset.  Consecutive queue ids
            // span the bank groups (block-cyclic interleaving), so a
            // stripe never concentrates on one group.
            const unsigned lq = s.queues;
            const unsigned stripe = std::max(1u, lq / 2);
            const unsigned offset = perm[p % perm.size()] % lq;
            for (unsigned j = 0; j < stripe; ++j)
                plan.affinity.push_back((offset + j) % lq);
            // Name the workload that actually runs: the stripe is
            // fully determined by (offset, width), so a failure log
            // or --list line reconstructs it exactly.
            s.workloadTag = "subsetrr_o" + std::to_string(offset) +
                            "_w" + std::to_string(stripe);
        }

        plan.scenario = s;
        plans.push_back(std::move(plan));
    }
    return plans;
}

std::unique_ptr<sim::Workload>
makePortWorkload(const PortPlan &plan)
{
    const auto &s = plan.scenario;
    switch (plan.pattern) {
      case TrafficPattern::Uniform:
      case TrafficPattern::Hotspot:
        // Exactly the matrix legs' factory: a 1-port uniform switch
        // replays the matching single-buffer leg bit-for-bit.
        return sim::makeWorkload(s);
      case TrafficPattern::Incast:
        if (plan.victim) {
            return std::make_unique<sim::BurstyOnOff>(
                s.queues, s.seed, plan.burstLen, s.load,
                s.unbiasedRequests);
        }
        return sim::makeWorkload(s);
      case TrafficPattern::Permutation:
        return std::make_unique<sim::SubsetRoundRobin>(
            s.queues, s.seed, plan.affinity,
            /*request_load=*/s.load, /*arrival_load=*/s.load);
    }
    panic("unknown traffic pattern");
}

SwitchOutcome
runPlans(const std::vector<PortPlan> &plans, unsigned jobs)
{
    SwitchOutcome out;
    out.plans = plans;
    out.ports.resize(plans.size());

    // Each port writes only its own slot of out.ports.
    sweep::forEachItem(plans.size(), jobs, [&](std::size_t i) {
        const PortPlan &plan = plans[i];
        out.ports[i] = soak::runScenario(
            plan.scenario, [&plan] { return makePortWorkload(plan); });
    });

    auto &r = out.report;
    fabric::aggregate(out.ports, r, &r.stats);
    for (std::size_t i = 0; i < plans.size(); ++i) {
        const auto &o = out.ports[i];
        const std::string pre = plans[i].legName() + ".";
        r.stats.counter(pre + "arrivals").inc(o.run.arrivals);
        r.stats.counter(pre + "granted").inc(o.verified);
        r.stats.counter(pre + "drained").inc(o.drained);
        r.stats.counter(pre + "drops").inc(o.run.drops);
        r.stats.counter(pre + "dram_reads").inc(o.report.dramReads);
        r.stats.counter(pre + "dram_writes").inc(o.report.dramWrites);
        r.stats.counter(pre + "renames").inc(o.report.renames);
        r.stats.counter(pre + "dsa_stalls").inc(o.report.dsaStalls);
        r.stats.highWater(pre + "head_sram")
            .observe(o.report.headSramHighWater);
        r.stats.highWater(pre + "tail_sram")
            .observe(o.report.tailSramHighWater);
        r.stats.highWater(pre + "rr").observe(o.report.rrHighWater);
    }
    out.passed = r.failed == 0;
    out.failure = fabric::failureText("", plans, out.ports);
    return out;
}

sweep::Record
portRecord(const PortPlan &plan, const sim::ScenarioOutcome &out)
{
    auto rec = sweep::scenarioRecord(plan.scenario, out);
    rec.set("port", plan.port)
        .set("pattern", sw::toString(plan.pattern));
    if (plan.pattern == TrafficPattern::Permutation) {
        std::string aff;
        for (const auto q : plan.affinity)
            aff += (aff.empty() ? "q" : "+q") + std::to_string(q);
        // Overwrite in place: Record::set keeps the field position,
        // so the emission order stays that of scenarioRecord.
        rec.set("workload", "subset-rr").set("affinity", aff);
    }
    if (plan.victim)
        rec.set("victim", true).set("burst_len", plan.burstLen);
    return rec;
}

sweep::Record
switchRecord(const SwitchConfig &cfg, const SwitchOutcome &out)
{
    const auto &r = out.report;
    sweep::Record rec;
    rec.set("name", cfg.name())
        .set("pattern", sw::toString(cfg.pattern))
        .set("ports", cfg.ports)
        .set("variant", cfg.mixedVariants
                            ? std::string("mixed")
                            : sim::toString(cfg.variant))
        .set("queues", cfg.queues)
        .set("B", cfg.granRads)
        .set("b", cfg.gran)
        .set("groups", cfg.groups)
        .set("load", cfg.load)
        .set("slots", cfg.slots)
        .set("master_seed", cfg.masterSeed)
        .set("passed", out.passed)
        .set("failed_ports", r.failed);
    fabric::addSums(rec, r);
    rec.set("dsa_stalls", r.dsaStalls);
    // Full across-port spread for the headline stats.
    fabric::addSpread(rec, r,
                      {"granted", "drops", "mean_delay_slots",
                       "max_delay_slots", "head_sram_hw", "rr_hw",
                       "dsa_stalls"});
    return rec;
}

void
emitSwitchArtifacts(const SwitchConfig &cfg, const SwitchOutcome &out,
                    const std::string &tool, sweep::Record extra_meta,
                    const std::string &json_path,
                    const std::string &csv_path)
{
    extra_meta.set("switch", cfg.name())
        .set("pattern", sw::toString(cfg.pattern))
        .set("ports", cfg.ports)
        .set("master_seed", cfg.masterSeed);
    fabric::emitArtifacts(out, out.ports, portRecord,
                          switchRecord(cfg, out),
                          sweep::EmitMeta{tool, std::move(extra_meta)},
                          json_path, csv_path);
}

} // namespace pktbuf::sw
