#include "scenario.hh"

#include <sstream>

#include "common/logging.hh"

namespace pktbuf::sim
{

std::string
toString(BufferVariant v)
{
    switch (v) {
      case BufferVariant::Rads:
        return "rads";
      case BufferVariant::Cfds:
        return "cfds";
      case BufferVariant::CfdsRenaming:
        return "renaming";
    }
    return "?";
}

std::string
toString(WorkloadKind k)
{
    switch (k) {
      case WorkloadKind::Adversarial:
        return "adversarial";
      case WorkloadKind::Bernoulli:
        return "bernoulli";
      case WorkloadKind::Bursty:
        return "bursty";
      case WorkloadKind::DrainPermutation:
        return "drainperm";
    }
    return "?";
}

std::string
Scenario::name() const
{
    std::ostringstream os;
    os << toString(variant) << "_"
       << (workloadTag.empty() ? toString(workload) : workloadTag)
       << "_q" << queues << "_B" << granRads << "_b"
       << (variant == BufferVariant::Rads ? granRads : gran);
    if (physQueues && physQueues != queues)
        os << "_p" << physQueues;
    if (!timingTag.empty())
        os << "_" << timingTag;
    return os.str();
}

std::string
Scenario::describe() const
{
    std::ostringstream os;
    os << name() << " groups=" << groups << " dram="
       << (dramCells ? std::to_string(dramCells) : "unbounded")
       << " load=" << load << " slots=" << slots << " seed=" << seed;
    if (rrSlack)
        os << " rr_slack=" << rrSlack;
    if (!timing.isUniform())
        os << " timing=[" << timing.describe(granRads) << "]";
    return os.str();
}

buffer::BufferConfig
Scenario::bufferConfig() const
{
    buffer::BufferConfig cfg;
    const unsigned phys = physQueues ? physQueues : queues;
    const unsigned b = variant == BufferVariant::Rads ? granRads : gran;
    const unsigned banks_per_group = granRads / (b ? b : 1);
    cfg.params = model::BufferParams{phys, granRads, b,
                                     groups * banks_per_group};
    cfg.dramCells = dramCells;
    cfg.rrSlack = rrSlack;
    cfg.timing = timing;
    cfg.eventCore = eventEngine;
    if (variant == BufferVariant::CfdsRenaming) {
        cfg.logicalQueues = queues;
        cfg.renaming = true;
    }
    return cfg;
}

std::unique_ptr<Workload>
makeWorkload(const Scenario &s)
{
    // Requests start only after the buffer has had a chance to fill:
    // long enough for any grid in the matrix, short enough that every
    // leg spends nearly all its slots in steady state.
    constexpr std::uint64_t kWarmup = 64;
    switch (s.workload) {
      case WorkloadKind::Adversarial:
        return std::make_unique<RoundRobinWorstCase>(
            s.queues, s.seed, s.load, kWarmup);
      case WorkloadKind::Bernoulli:
        return std::make_unique<UniformRandom>(s.queues, s.seed,
                                               s.load,
                                               s.unbiasedRequests);
      case WorkloadKind::Bursty:
        return std::make_unique<BurstyOnOff>(s.queues, s.seed,
                                             /*burst_len=*/64, s.load,
                                             s.unbiasedRequests);
      case WorkloadKind::DrainPermutation:
        return std::make_unique<PermutedDrain>(s.queues, s.seed,
                                               kWarmup, s.load);
    }
    panic("unknown workload kind");
}

namespace
{

/** One (Q, B, b, G) point of a variant's grid. */
struct Grid
{
    unsigned queues;
    unsigned granRads;
    unsigned gran;
    unsigned groups;
};

constexpr WorkloadKind kAllWorkloads[] = {
    WorkloadKind::Adversarial,
    WorkloadKind::Bernoulli,
    WorkloadKind::Bursty,
    WorkloadKind::DrainPermutation,
};

Scenario
makeLeg(BufferVariant v, WorkloadKind w, const Grid &g,
        std::uint64_t slots)
{
    Scenario s;
    s.variant = v;
    s.workload = w;
    s.queues = g.queues;
    s.granRads = g.granRads;
    s.gran = g.gran;
    s.groups = g.groups;
    s.slots = slots;
    // Bernoulli and bursty legs back off from full load so random
    // request droughts cannot starve the drain budget.
    if (w == WorkloadKind::Bernoulli)
        s.load = 0.9;
    // Distinct deterministic seed per leg: identical runs replay
    // bit-for-bit, different legs decorrelate.
    s.seed = 1000 + 101 * static_cast<std::uint64_t>(v) +
             11 * static_cast<std::uint64_t>(w) + g.queues +
             8191ull * g.gran + 131071ull * g.granRads;
    if (v == BufferVariant::CfdsRenaming) {
        // Fewer logical than physical queues and a DRAM tight enough
        // that a group's share (dram/G) is smaller than one queue's
        // achievable backlog: renaming chains must actually form,
        // not merely be enabled (the whole point of Section 6).
        s.physQueues = g.queues;
        s.queues = g.queues / 2;
        s.dramCells = 1ull * g.queues * g.granRads;
    }
    return s;
}

std::vector<Scenario>
buildMatrix(std::uint64_t slots, bool full)
{
    // Per-variant grids: the granularity axis sweeps b (and, for
    // RADS, B itself); the queue axis sweeps Q.
    const std::vector<Grid> rads_full = {
        {4, 8, 8, 1}, {8, 8, 8, 1}, {8, 16, 16, 1}};
    const std::vector<Grid> cfds_full = {
        {4, 8, 1, 4}, {8, 8, 2, 4}, {8, 8, 4, 2}, {16, 8, 2, 8}};
    const std::vector<Grid> ren_full = {
        {8, 8, 2, 4}, {8, 8, 4, 2}, {16, 8, 2, 8}};

    const std::vector<Grid> rads_smoke = {{8, 8, 8, 1}};
    const std::vector<Grid> cfds_smoke = {{8, 8, 2, 4}};
    const std::vector<Grid> ren_smoke = {{8, 8, 2, 4}};

    std::vector<Scenario> m;
    const auto add = [&](BufferVariant v, const std::vector<Grid> &gs) {
        for (const auto w : kAllWorkloads)
            for (const auto &g : gs)
                m.push_back(makeLeg(v, w, g, slots));
    };
    add(BufferVariant::Rads, full ? rads_full : rads_smoke);
    add(BufferVariant::Cfds, full ? cfds_full : cfds_smoke);
    add(BufferVariant::CfdsRenaming, full ? ren_full : ren_smoke);
    return m;
}

/**
 * One timed-DRAM adversary family: a timing config crafted to
 * provoke one stall cause, plus the load the line can sustain once
 * that cause steals DRAM bandwidth (refresh blackouts and
 * turnaround bubbles are *lost* launch opportunities, so these legs
 * must run below full load -- full load would grow the backlog
 * without bound, exactly the capacity argument of Section 5).
 */
struct TimingFamily
{
    const char *tag;
    dram::TimingConfig timing;
    double load;
    unsigned queues;
    unsigned gran;    //!< b
    unsigned groups;  //!< G
};

std::vector<TimingFamily>
timingFamilies()
{
    std::vector<TimingFamily> fams;
    {
        // Refresh storm: every 128 slots a 16-slot blackout locks a
        // rotating 2-bank window -- 1/8 of the time, 1/8 of the
        // banks.
        dram::TimingConfig t;
        t.tRefi = 128;
        t.tRfc = 16;
        t.refreshBanks = 2;
        fams.push_back({"refresh", t, 0.8, 8, 2, 4});
    }
    {
        // Turnaround thrash: a 2-slot read<->write switch penalty on
        // a 2-group system; the combined RR alternates directions
        // every interval, so roughly half the launch opportunities
        // evaporate -- the legs run at under half load.
        dram::TimingConfig t;
        t.turnaround = 2;
        fams.push_back({"turnaround", t, 0.45, 8, 4, 2});
    }
    {
        // Asymmetric bank groups: groups 1-3 are slower than B
        // (t_RC 12/16/12 vs 8), so queues living there replenish at
        // a fraction of line rate and the DSA sees bank-busy stalls
        // the uniform model never produces.
        dram::TimingConfig t;
        t.groupTRc = {8, 12, 16, 12};
        fams.push_back({"asym", t, 0.5, 8, 2, 4});
    }
    {
        // Full DDR: all three constraints at once, the worst case
        // the latency/RR slack budget must cover.
        dram::TimingConfig t;
        t.tRefi = 128;
        t.tRfc = 16;
        t.refreshBanks = 2;
        t.turnaround = 1;
        t.groupTRc = {8, 12, 16, 12};
        fams.push_back({"ddr", t, 0.35, 8, 2, 4});
    }
    return fams;
}

std::vector<Scenario>
buildTimingMatrix(std::uint64_t slots, bool full)
{
    // Each family runs an adversarial and a randomized leg; the
    // randomized legs use the unbiased uniform request picker (the
    // legacy biased scan stays confined to the legacy legs).
    const std::vector<WorkloadKind> wls =
        full ? std::vector<WorkloadKind>{WorkloadKind::Adversarial,
                                         WorkloadKind::Bernoulli}
             : std::vector<WorkloadKind>{WorkloadKind::Bernoulli};
    std::vector<Scenario> m;
    unsigned fam_idx = 0;
    for (const auto &fam : timingFamilies()) {
        for (const auto w : wls) {
            Scenario s;
            s.variant = BufferVariant::Cfds;
            s.workload = w;
            s.queues = fam.queues;
            s.granRads = 8;
            s.gran = fam.gran;
            s.groups = fam.groups;
            s.load = fam.load;
            s.slots = slots;
            s.timing = fam.timing;
            s.timingTag = fam.tag;
            s.unbiasedRequests = true;
            s.seed = 7000 + 101 * fam_idx +
                     11 * static_cast<std::uint64_t>(w) +
                     8191ull * fam.gran;
            m.push_back(s);
        }
        ++fam_idx;
    }
    return m;
}

} // namespace

std::vector<Scenario>
defaultMatrix()
{
    return buildMatrix(/*slots=*/20000, /*full=*/true);
}

std::vector<Scenario>
smokeMatrix()
{
    return buildMatrix(/*slots=*/4000, /*full=*/false);
}

std::vector<Scenario>
timingMatrix()
{
    return buildTimingMatrix(/*slots=*/20000, /*full=*/true);
}

std::vector<Scenario>
timingSmokeMatrix()
{
    return buildTimingMatrix(/*slots=*/4000, /*full=*/false);
}

} // namespace pktbuf::sim
