#include "crossbar_sim.hh"

#include <algorithm>
#include <exception>
#include <sstream>

#include "common/logging.hh"
#include "sweep/emit.hh"
#include "sweep/scenario_sweep.hh"
#include "sweep/sweep.hh"

namespace pktbuf::xbar
{

namespace
{

/** Salt index for the scheduler's RNG stream: far outside any
 *  realistic input index, so the scheduler's deriveSeed(master,
 *  kSchedSalt) stream never collides with an input's
 *  deriveSeed(master, input) stream. */
constexpr std::uint64_t kSchedSalt = 0x78736368ull;  // "xsch"

/** Longest window the control plane plans ahead (slots). */
constexpr std::uint64_t kMaxWindow = 256;

/** Shorter windows step the inputs on the calling thread: waking the
 *  pool would cost more than the window's work. */
constexpr std::uint64_t kMinFanOut = 32;

/**
 * Incast burst-length cap.  A burst's cells pile into one VOQ, and a
 * work-conserving matching then drains that backlog in *consecutive*
 * grants -- a same-queue service run the Eq. (1) Requests Register
 * sizing (derived for randomized request patterns) does not cover.
 * Capping the burst at 2B keeps the induced run within the register's
 * measured headroom; the fuzz soak is the evidence.
 */
std::uint64_t
burstCap(const CrossbarConfig &cfg)
{
    return std::min<std::uint64_t>(
        std::max<std::uint64_t>(1, cfg.incastBurst),
        2 * std::max(1u, cfg.granRads));
}

} // namespace

std::string
CrossbarConfig::name() const
{
    std::ostringstream os;
    os << "xbar_" << xbar::toString(scheduler) << "_"
       << fabric::toString(pattern) << "_p" << ports << "_"
       << sim::toString(variant) << "_B" << granRads << "_b"
       << (variant == sim::BufferVariant::Rads ? granRads : gran);
    return os.str();
}

std::string
CrossbarConfig::describe() const
{
    std::ostringstream knob;
    if (scheduler == SchedulerKind::Islip)
        knob << " islip_iters=" << islipIterations;
    if (scheduler == SchedulerKind::Qps)
        knob << " qps_window=" << qpsWindow;
    std::ostringstream os;
    fabric::describeKnobs(os, *this, "hot_outputs", hotOutputs,
                          knob.str());
    return os.str();
}

std::vector<InputPlan>
planCrossbar(const CrossbarConfig &cfg)
{
    fabric::checkKnobs("crossbar", cfg.ports, cfg.load, cfg.pattern,
                       cfg.incastVictim, cfg.hotFraction);

    const unsigned n = cfg.ports;
    double rho = std::min(cfg.load, CrossbarConfig::kMaxInputLoad);
    // A permutation input concentrates its whole rate on one VOQ; a
    // 1x1 crossbar does so under *every* pattern.
    if (cfg.pattern == fabric::TrafficPattern::Permutation || n == 1)
        rho = std::min(rho, CrossbarConfig::kMaxVoqLoad);

    // Resolve the skewed patterns' probabilities against the output
    // and per-VOQ load caps (pure arithmetic -- every input can be
    // rebuilt from its plan alone).
    const unsigned hot = fabric::hotCount(cfg.hotOutputs, n);
    double hot_fraction = 0.0;
    if (cfg.pattern == fabric::TrafficPattern::Hotspot) {
        if (hot >= n) {
            hot_fraction = 1.0;  // degenerate: every output is hot
        } else {
            // Aggregate rate on the hot side is n*rho*f spread over
            // `hot` outputs; each input's hot VOQs carry rho*f/hot.
            const double out_cap =
                CrossbarConfig::kMaxSkewedOutputLoad * hot /
                (n * rho);
            const double voq_cap =
                CrossbarConfig::kMaxVoqLoad * hot / rho;
            hot_fraction =
                std::min({cfg.hotFraction, out_cap, voq_cap});
        }
    }
    double burst_start = 0.0;
    if (cfg.pattern == fabric::TrafficPattern::Incast && n > 1) {
        // Victim-directed fraction phi.  The victim output takes
        // the *bursty* aggregate cap (kMaxVoqLoad, the switch
        // layer's kMaxBurstyLoad argument), not the milder skewed
        // cap: a burst both concentrates arrivals on one VOQ and --
        // because a work-conserving matching then drains that
        // backlog at one cell per slot -- concentrates the service
        // runs on the same bank group, and the two together must
        // stay inside the Eq. (1) Requests Register sizing.
        const double phi = std::min(
            {cfg.hotFraction,
             CrossbarConfig::kMaxVoqLoad / (n * rho),
             CrossbarConfig::kMaxVoqLoad / rho});
        // Arrivals alternate renewal cycles: a victim burst of mean
        // length E = (1 + burstLen) / 2 with probability p, one
        // non-victim cell otherwise.  phi = pE / (pE + 1 - p) gives
        // p = phi / (E (1 - phi) + phi).
        const double mean_burst = (1.0 + burstCap(cfg)) / 2.0;
        burst_start = phi / (mean_burst * (1.0 - phi) + phi);
    }

    std::vector<InputPlan> plans;
    plans.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        InputPlan plan;
        plan.input = i;

        DestPlan dest;
        dest.pattern = cfg.pattern;
        dest.outputs = n;
        dest.hotOutputs = hot;
        dest.hotFraction = hot_fraction;
        dest.victim = cfg.incastVictim;
        dest.burstLen = burstCap(cfg);
        dest.burstStart = burst_start;
        // Fixed crossbar permutation: input i -> output (i + 1) % n,
        // a derangement for n > 1 so no input talks to "itself".
        dest.permTarget = static_cast<QueueId>((i + 1) % n);
        plan.dest = dest;

        // One VOQ per output; renaming inputs get twice as many
        // physical queues.
        sim::Scenario s = fabric::shapeLeg(
            {.variant = cfg.variant,
             .queues = n,
             .physQueues = 2 * n,
             .granRads = cfg.granRads,
             .gran = cfg.gran,
             .groups = cfg.groups,
             .slots = cfg.slots,
             .masterSeed = cfg.masterSeed,
             .eventEngine = cfg.eventEngine},
            i);
        s.load = rho;
        // A work-conserving matching drains a backlogged VOQ in
        // consecutive same-queue grants -- a service concentration
        // the Eq. (1) RR sizing (randomized requests) does not
        // model.  Provision the register for the worst run the plan
        // admits: a full burst-cap backlog, one DRAM access per b
        // cells on both the read and the write side.
        s.rrSlack = 2 * (burstCap(cfg) / std::max(1u, s.gran) + 1);
        // Name the workload that actually runs, so failure logs and
        // --list lines describe the destination process exactly.
        switch (cfg.pattern) {
          case fabric::TrafficPattern::Uniform:
            s.workloadTag = "voq_uniform";
            break;
          case fabric::TrafficPattern::Hotspot:
            s.workloadTag = "voq_hot" + std::to_string(hot);
            break;
          case fabric::TrafficPattern::Incast:
            s.workloadTag =
                "voq_incast" + std::to_string(cfg.incastVictim);
            break;
          case fabric::TrafficPattern::Permutation:
            s.workloadTag =
                "voq_to" + std::to_string(dest.permTarget);
            break;
        }
        plan.scenario = s;
        plans.push_back(std::move(plan));
    }
    return plans;
}

CrossbarPortWorkload::CrossbarPortWorkload(const DestPlan &dest,
                                           std::uint64_t seed,
                                           double load,
                                           bool self_greedy)
    : sim::Workload(dest.outputs, seed), dest_(dest), load_(load),
      self_greedy_(self_greedy)
{
    fatal_if(self_greedy && dest.outputs != 1,
             "self-greedy crossbar workload requires exactly one "
             "output, got ", dest.outputs);
}

void
CrossbarPortWorkload::play(Script &script)
{
    panic_if(!script_.empty(), "crossbar workload handed a window with ",
             script_.size() - next_, " planned slots unplayed");
    script_.swap(script);
    next_ = 0;
}

QueueId
CrossbarPortWorkload::arrivalQueue(Slot)
{
    if (self_greedy_) {
        // arrivalQueue runs before step() lands the arrival, so this
        // is the same start-of-slot VOQ depth the matching engine
        // hands its scheduler.
        start_credit_ = credit(0);
        return drawArrival(dest_, load_, rng_, burst_remaining_);
    }
    if (next_ == script_.size())
        return drawArrival(dest_, load_, rng_, burst_remaining_);
    return Planned::unpack(script_[next_].arrival);
}

QueueId
CrossbarPortWorkload::drawArrival(const DestPlan &dest, double load,
                                  Rng &rng, std::uint64_t &burst)
{
    if (!rng.chance(load))
        return kInvalidQueue;
    const unsigned n = dest.outputs;
    switch (dest.pattern) {
      case fabric::TrafficPattern::Uniform:
        return static_cast<QueueId>(rng.below(n));
      case fabric::TrafficPattern::Hotspot:
        if (dest.hotOutputs >= n)
            return static_cast<QueueId>(rng.below(n));
        if (rng.chance(dest.hotFraction))
            return static_cast<QueueId>(rng.below(dest.hotOutputs));
        return static_cast<QueueId>(
            dest.hotOutputs + rng.below(n - dest.hotOutputs));
      case fabric::TrafficPattern::Incast: {
        if (n == 1)
            return static_cast<QueueId>(dest.victim);
        if (burst == 0 && rng.chance(dest.burstStart))
            burst = 1 + rng.below(dest.burstLen);
        if (burst > 0) {
            --burst;
            return static_cast<QueueId>(dest.victim);
        }
        // Uniform over the non-victim outputs.
        auto q = static_cast<QueueId>(rng.below(n - 1));
        return q >= dest.victim ? q + 1 : q;
      }
      case fabric::TrafficPattern::Permutation:
        return dest.permTarget;
    }
    panic("unknown destination pattern");
}

QueueId
CrossbarPortWorkload::requestQueue(Slot)
{
    if (self_greedy_)
        return start_credit_ > 0 ? 0 : kInvalidQueue;
    if (next_ == script_.size())
        return kInvalidQueue;
    const QueueId g = Planned::unpack(script_[next_].grant);
    if (++next_ == script_.size()) {
        script_.clear();
        next_ = 0;
    }
    return g;
}

void
CrossbarPortWorkload::extraFields(ser::Io &io)
{
    // Checkpoints happen between windows, after the data plane played
    // every planned slot -- a leftover plan here means the engine and
    // the inputs disagree about the slot boundary.
    panic_if(!io.reading() && !script_.empty(),
             "crossbar workload checkpointed with ",
             script_.size() - next_, " planned slots unplayed");
    io.u64(burst_remaining_);
    // A restore drops whatever plan an aborted window left behind.
    if (io.reading()) {
        script_.clear();
        next_ = 0;
    }
}

std::unique_ptr<CrossbarPortWorkload>
makeInputWorkload(const InputPlan &plan, bool self_greedy)
{
    return std::make_unique<CrossbarPortWorkload>(
        plan.dest, plan.scenario.seed, plan.scenario.load,
        self_greedy);
}

CrossbarRun::CrossbarRun(const CrossbarConfig &cfg)
    : cfg_(cfg), plans_(planCrossbar(cfg)),
      fingerprint_(ser::fnv1a(cfg.describe())),
      sched_(makeScheduler(
          cfg.scheduler, cfg.ports, cfg.islipIterations,
          cfg.qpsWindow, sweep::deriveSeed(cfg.masterSeed, kSchedSalt))),
      wl_(cfg.ports, nullptr), planners_(cfg.ports), occ_(cfg.ports),
      match_(cfg.ports, kInvalidQueue), taken_(occ_.words(), 0),
      drops_(cfg.ports, 0)
{
    // Fresh workloads hold no credit: the all-zero occ_ is exact.
    inputs_.reserve(cfg.ports);
    for (unsigned i = 0; i < cfg.ports; ++i) {
        // The factory runs synchronously inside the ScenarioRun
        // constructor and hands back the owning pointer; wl_ keeps
        // the derived view for planning.
        inputs_.push_back(std::make_unique<soak::ScenarioRun>(
            plans_[i].scenario, [this, i] {
                auto w = makeInputWorkload(plans_[i]);
                wl_[i] = w.get();
                return w;
            }));
        Planner &p = planners_[i];
        p.dest = plans_[i].dest;
        p.load = plans_[i].scenario.load;
        // Both scripts of the input hold a whole window from the
        // start, so no window grows them.
        CrossbarPortWorkload::Script script;
        script.reserve(kMaxWindow);
        wl_[i]->play(script);
        p.ahead.reserve(kMaxWindow);
    }
}

unsigned
CrossbarRun::validate(Slot t, const Matching &m)
{
    const unsigned n = cfg_.ports;
    panic_if(m.size() != n, "scheduler ", sched_->name(),
             " returned ", m.size(), " entries for ", n,
             " inputs at slot ", t);
    std::fill(taken_.begin(), taken_.end(), 0);
    unsigned edges = 0;
    for (unsigned i = 0; i < n; ++i) {
        const QueueId j = m[i];
        if (j == kInvalidQueue)
            continue;
        panic_if(j >= n, "scheduler ", sched_->name(),
                 " matched input ", i, " to invalid output ", j,
                 " at slot ", t);
        const std::uint64_t bit = std::uint64_t{1} << (j % 64);
        panic_if(taken_[j / 64] & bit, "scheduler ", sched_->name(),
                 " granted output ", j, " twice at slot ", t);
        panic_if(occ_.at(i, j) == 0, "scheduler ", sched_->name(),
                 " granted empty VOQ (", i, " -> ", j, ") at slot ",
                 t);
        taken_[j / 64] |= bit;
        ++edges;
    }
    return edges;
}

void
CrossbarRun::runTo(std::uint64_t slot)
{
    fatal_if(slot < executed_,
             "crossbar run cannot run backwards to slot ", slot,
             " (already at ", executed_, ")");
    fatal_if(slot > cfg_.slots, "slot ", slot,
             " beyond the main phase (", cfg_.slots, " slots)");
    if (failed_)
        std::rethrow_exception(failed_);
    // The planners hold the arrival streams for the call; the
    // workloads get them back however it ends.
    for (unsigned i = 0; i < cfg_.ports; ++i)
        wl_[i]->takeStream(planners_[i].rng, planners_[i].burst);
    try {
        advance(slot);
    } catch (...) {
        failed_ = std::current_exception();
    }
    for (unsigned i = 0; i < cfg_.ports; ++i)
        wl_[i]->returnStream(planners_[i].rng, planners_[i].burst);
    if (failed_)
        std::rethrow_exception(failed_);
}

void
CrossbarRun::advance(std::uint64_t slot)
{
    const unsigned n = cfg_.ports;
    std::uint64_t end = 0;
    // Two references: std::function holds them inline, unallocated.
    const sweep::Body step = [this, &end](std::size_t i) {
        inputs_[i]->runTo(end);
    };
    // Slots planned during the last window, not yet handed over.
    std::uint64_t ahead = 0;
    while (executed_ < slot) {
        // An input takes at most one arrival per slot, so for the
        // horizon's `h` slots from here every arrival is admitted and
        // the projected credits are exact.  A horizon of 0 (renaming)
        // leaves one lockstep slot.  The look-ahead planned during
        // the last window fits: that window's horizon covered both,
        // and it admitted at most one arrival per slot.
        const std::uint64_t h = horizon();
        std::uint64_t w = ahead;
        if (w == 0) {
            w = std::max<std::uint64_t>(
                1, std::min({slot - executed_, kMaxWindow, h}));
            planWindow(executed_, w);
        }
        panic_if(w > std::max<std::uint64_t>(h, 1), "crossbar planned ",
                 w, " slots ahead of a ", h, "-slot admission horizon");
        end = executed_ + w;
        for (unsigned i = 0; i < n; ++i) {
            drops_[i] = wl_[i]->drops();
            wl_[i]->play(planners_[i].ahead);
        }
        data_end_ = end;
        ahead = 0;
        if (w < kMinFanOut || !sweep::startHomeRound(n, step)) {
            sweep::forEachItem(n, 1, step);
            endWindow(w);
            continue;
        }
        // Plan the next window while the pool steps this one; the
        // two together stay within the horizon read above, and the
        // look-ahead never crosses the target, so checkpoints still
        // fall between windows.
        const std::uint64_t next =
            h > w ? std::min({slot - end, kMaxWindow, h - w}) : 0;
        std::exception_ptr plan_error;
        try {
            if (next > 0) {
                planWindow(end, next);
                ahead = next;
            }
        } catch (...) {
            plan_error = std::current_exception();
        }
        try {
            sweep::finishHomeRound();
        } catch (...) {
            if (ahead > 0)
                rollback();
            throw;
        }
        endWindow(w);
        if (plan_error)
            std::rethrow_exception(plan_error);
    }
}

std::uint64_t
CrossbarRun::horizon() const
{
    std::uint64_t h = UINT64_MAX;
    for (const auto &in : inputs_)
        h = std::min(h, in->buffer().admitHorizon());
    return h;
}

void
CrossbarRun::planWindow(std::uint64_t first, std::uint64_t w)
{
    const unsigned n = cfg_.ports;
    for (auto &p : planners_) {
        p.markRng = p.rng;
        p.markBurst = p.burst;
    }
    mark_ = counters_;
    try {
        for (std::uint64_t t = first; t < first + w; ++t) {
            // occ_ holds the start-of-slot credits: cells arrived but
            // not yet requested, exactly what the fabric may move.
            // An all-empty fabric slot never consults the scheduler,
            // so its RNG/pointer state stays a pure function of the
            // traffic it actually arbitrated.
            if (occ_.total() > 0) {
                sched_->schedule(occ_, match_);
                const unsigned edges = validate(t, match_);
                const unsigned iters = sched_->lastIterations();
                ++counters_.activeSlots;
                counters_.iterSum += iters;
                counters_.matchEdges += edges;
                if (onMatch)
                    onMatch(t, occ_, match_, iters);
            } else {
                std::fill(match_.begin(), match_.end(), kInvalidQueue);
            }
            for (unsigned i = 0; i < n; ++i) {
                Planner &p = planners_[i];
                const QueueId g = match_[i];
                if (g != kInvalidQueue)
                    occ_.set(i, g, occ_.at(i, g) - 1);
                const QueueId a = CrossbarPortWorkload::drawArrival(
                    p.dest, p.load, p.rng, p.burst);
                if (a != kInvalidQueue)
                    occ_.set(i, a, occ_.at(i, a) + 1);
                p.ahead.emplace_back(a, g);
            }
        }
    } catch (...) {
        rollback();
        throw;
    }
}

void
CrossbarRun::rollback()
{
    for (auto &p : planners_) {
        p.rng = p.markRng;
        p.burst = p.markBurst;
        p.ahead.clear();
    }
    counters_ = mark_;
}

void
CrossbarRun::endWindow(std::uint64_t w)
{
    const unsigned n = cfg_.ports;
    for (unsigned i = 0; i < n; ++i) {
        if (wl_[i]->drops() == drops_[i])
            continue;
        panic_if(w > 1, "input ", i, " dropped an arrival inside a ",
                 w, "-slot window its admission horizon covered");
        // The slot's arrival never landed: re-read the row.
        for (unsigned j = 0; j < n; ++j)
            occ_.set(i, j, wl_[i]->credit(j));
    }
    executed_ += w;
}

std::string
CrossbarRun::checkpoint() const
{
    if (failed_)
        std::rethrow_exception(failed_);
    ser::Writer w;
    ser::save(w, *this);
    return soak::sealCheckpoint(w.bytes(), fingerprint_);
}

void
CrossbarRun::restore(const std::string &bytes)
{
    const std::string payload =
        soak::openCheckpoint(bytes, fingerprint_);
    ser::Reader r(payload);
    ser::load(r, *this);
    r.done();
}

void
CrossbarRun::fields(ser::Io &io)
{
    io.tag("XBAR");
    io.u64(executed_);
    fatal_if(io.reading() && executed_ > cfg_.slots,
             "checkpoint: executed slot ", executed_,
             " beyond the main phase (", cfg_.slots, ")");
    io.u64(counters_.matchEdges);
    io.u64(counters_.activeSlots);
    io.u64(counters_.iterSum);
    sched_->fields(io);
    io.fixedCount(inputs_.size(), "crossbar inputs");
    for (auto &in : inputs_) {
        std::string sealed = io.reading() ? "" : in->checkpoint();
        io.str(sealed);
        if (!io.reading())
            continue;
        in->restore(sealed);
        fatal_if(in->executed() != executed_,
                 "checkpoint: input slot cursor ", in->executed(),
                 " diverges from the fabric's ", executed_);
    }
    if (!io.reading())
        return;
    failed_ = nullptr;
    data_end_ = executed_;
    const unsigned ports = cfg_.ports;
    for (unsigned i = 0; i < ports; ++i)
        for (unsigned j = 0; j < ports; ++j)
            occ_.set(i, j, wl_[i]->credit(j));
}

CrossbarOutcome
CrossbarRun::finish()
{
    CrossbarOutcome out;
    out.plans = plans_;
    std::string why;
    try {
        runTo(cfg_.slots);
    } catch (const std::exception &e) {
        why = std::string("exception: ") + e.what() + "; ";
    }
    out.inputs.reserve(inputs_.size());
    for (auto &in : inputs_)
        out.inputs.push_back(in->finish());
    auto &r = out.report;
    fabric::aggregate(out.inputs, r);
    r.matchEdges = counters_.matchEdges;
    r.activeSlots = counters_.activeSlots;
    r.iterSum = counters_.iterSum;
    const auto ratio = [](std::uint64_t num, std::uint64_t den) {
        return den ? static_cast<double>(num) / den : 0.0;
    };
    r.throughput = ratio(r.matchEdges, r.arrivals);
    r.meanMatchSize = ratio(r.matchEdges, r.activeSlots);
    r.meanIterations = ratio(r.iterSum, r.activeSlots);
    out.passed = why.empty() && r.failed == 0;
    if (!out.passed) {
        out.failure = fabric::failureText(why, plans_, out.inputs) +
                      " [" + cfg_.describe() + "]";
    }
    return out;
}

CrossbarOutcome
runCrossbar(const CrossbarConfig &cfg)
{
    return soak::runCheckpointed<CrossbarRun>(cfg, 0);
}

sweep::Record
inputRecord(const InputPlan &plan, const sim::ScenarioOutcome &out)
{
    auto rec = sweep::scenarioRecord(plan.scenario, out);
    rec.set("input", plan.input)
        .set("pattern", fabric::toString(plan.dest.pattern));
    if (plan.dest.pattern == fabric::TrafficPattern::Incast)
        rec.set("victim_output", plan.dest.victim);
    if (plan.dest.pattern == fabric::TrafficPattern::Permutation)
        rec.set("target_output", plan.dest.permTarget);
    return rec;
}

sweep::Record
crossbarRecord(const CrossbarConfig &cfg, const CrossbarOutcome &out)
{
    const auto &r = out.report;
    sweep::Record rec;
    rec.set("name", cfg.name())
        .set("pattern", fabric::toString(cfg.pattern))
        .set("scheduler", xbar::toString(cfg.scheduler))
        .set("islip_iters", cfg.islipIterations)
        .set("qps_window", cfg.qpsWindow)
        .set("ports", cfg.ports)
        .set("variant", sim::toString(cfg.variant))
        .set("B", cfg.granRads)
        .set("b", cfg.gran)
        .set("groups", cfg.groups)
        .set("load", cfg.load)
        .set("slots", cfg.slots)
        .set("master_seed", cfg.masterSeed)
        .set("passed", out.passed)
        .set("failed_inputs", r.failed);
    fabric::addSums(rec, r);
    rec.set("match_edges", r.matchEdges)
        .set("active_slots", r.activeSlots)
        .set("iter_sum", r.iterSum)
        .set("throughput", r.throughput)
        .set("mean_match_size", r.meanMatchSize)
        .set("mean_iterations", r.meanIterations);
    // Full across-input spread for the headline stats.
    fabric::addSpread(rec, r,
                      {"granted", "drops", "mean_delay_slots",
                       "max_delay_slots", "head_sram_hw", "rr_hw"});
    return rec;
}

void
emitCrossbarArtifacts(const CrossbarConfig &cfg,
                      const CrossbarOutcome &out,
                      const std::string &tool,
                      sweep::Record extra_meta,
                      const std::string &json_path,
                      const std::string &csv_path)
{
    extra_meta.set("crossbar", cfg.name())
        .set("pattern", fabric::toString(cfg.pattern))
        .set("scheduler", xbar::toString(cfg.scheduler))
        .set("ports", cfg.ports)
        .set("master_seed", cfg.masterSeed);
    fabric::emitArtifacts(out, out.inputs, inputRecord,
                          crossbarRecord(cfg, out),
                          sweep::EmitMeta{tool, std::move(extra_meta)},
                          json_path, csv_path);
}

} // namespace pktbuf::xbar
