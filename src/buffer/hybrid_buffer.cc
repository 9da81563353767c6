#include "hybrid_buffer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pktbuf::buffer
{

namespace
{

using model::BufferParams;

unsigned
resolveBanks(const BufferConfig &cfg)
{
    // RADS is not banked: two serialized channels (read, write).
    return cfg.params.isRads() ? 1 : cfg.params.banks;
}

unsigned
resolveBanksPerGroup(const BufferConfig &cfg)
{
    return cfg.params.isRads() ? 1 : cfg.params.banksPerGroup();
}

/**
 * Resolve the DDR timing policy.  Non-uniform configs are CFDS-only:
 * RADS has no DSS to honor refresh windows or turnaround rules.
 */
std::shared_ptr<const dram::DramTiming>
resolveTiming(const BufferConfig &cfg)
{
    fatal_if(!cfg.timing.isUniform() && cfg.params.isRads(),
             "the timed DRAM model (refresh/turnaround/per-group"
             " t_RC) requires the banked CFDS organization");
    return std::make_shared<const dram::DramTiming>(
        cfg.timing, resolveBanks(cfg), resolveBanksPerGroup(cfg),
        cfg.params.granRads);
}

/** Per-bank access times for the BankState oracle; empty = uniform
 *  legacy model (exactly the old behavior). */
std::vector<Slot>
resolveBankSlots(const BufferConfig &cfg,
                 const dram::DramTiming &timing)
{
    if (cfg.params.isRads() ||
        (cfg.timing.groupTRc.empty() && cfg.timing.tRc == 0)) {
        return {};
    }
    std::vector<Slot> v(timing.banks());
    for (unsigned bank = 0; bank < timing.banks(); ++bank)
        v[bank] = timing.accessSlots(bank);
    return v;
}

/**
 * Extra grant-pipeline depth hiding the timed DRAM model's stalls.
 *
 * Eq. (3) budgets the DSS reordering delay of the *uniform* model;
 * each timed constraint can hold a read back further: a slow group's
 * bank stays busy (t_RC - B) longer per access across the B/b banks
 * a queue cycles over, a refresh blackout refuses launches for t_RFC
 * slots (and the deferred access may collide with the *next*
 * blackout before draining), and every direction switch can push a
 * launch out by the turnaround penalty.  Stall cascades amplify the
 * sum -- a deferred access keeps its bank busy later, deferring its
 * successors -- so the budget doubles it and adds one access time of
 * headroom.  Validated empirically by the timing scenario legs
 * (zero misses, golden-checked); the uniform default adds nothing.
 */
std::uint64_t
timingLatencySlack(const BufferConfig &cfg)
{
    const auto &t = cfg.timing;
    if (t.isUniform())
        return 0;
    const Slot B = cfg.params.granRads;
    const unsigned bpg = cfg.params.banksPerGroup();
    // A tRc *below* B (faster-than-B banks) needs no extra budget;
    // guard the subtraction rather than underflow it.
    const Slot max_trc = t.maxTRc(B);
    std::uint64_t slack = (max_trc > B ? max_trc - B : 0) * bpg;
    if (t.tRefi)
        slack += 2 * t.tRfc + B;
    slack += t.turnaround * bpg;
    return 2 * slack + B;
}

/**
 * Extra lookahead hiding grant concentration on few logical queues:
 * model::concentrationSlackSlots (see its header comment for the
 * bandwidth argument) applied to renaming configs.  The ECQF
 * lookahead deepens by this many slots, and the enforced h-SRAM
 * capacity grows by the same count, since each added slot can park
 * at most one replenished-not-yet-consumed cell.
 */
std::uint64_t
concentrationLookaheadSlack(const BufferConfig &cfg)
{
    if (!cfg.renaming)
        return 0;
    return model::concentrationSlackSlots(
        cfg.params, cfg.effectiveLogicalQueues());
}

std::uint64_t
resolveLookahead(const BufferConfig &cfg)
{
    if (cfg.lookahead)
        return cfg.lookahead;
    if (cfg.mma == MmaKind::Mdqf)
        return 1; // no useful lookahead: pass-through stage
    return model::ecqfLookaheadSlots(cfg.params.queues,
                                     std::max(cfg.params.gran, 1u)) +
           concentrationLookaheadSlack(cfg);
}

std::uint64_t
resolveLatency(const BufferConfig &cfg)
{
    // The grant pipeline must hide the DRAM access itself: a
    // replenish issued by the MMA at decision time delivers its
    // cells B slots later, so grants trail the lookahead exit by a
    // delivery stage.  For RADS that stage is exactly B; for CFDS,
    // Eq. (3) extends it by the worst-case DSS reordering delay.
    if (cfg.params.isRads())
        return cfg.params.granRads;
    return model::latencySlots(cfg.params) + timingLatencySlack(cfg);
}

std::uint64_t
resolveHeadCells(const BufferConfig &cfg, std::uint64_t lookahead)
{
    if (cfg.measureOnly)
        return 0;
    if (cfg.headSramCells)
        return cfg.headSramCells;
    const auto &p = cfg.params;
    std::uint64_t base;
    if (cfg.mma == MmaKind::Mdqf)
        base = model::mdqfSramCells(p.queues, p.gran);
    else
        base = model::radsSramCells(lookahead, p.queues, p.gran);
    // The paper's bound assumes every request targets DRAM-resident
    // backlog.  The functional simulator additionally supports
    // cut-through (cells requested while still in the tail SRAM),
    // served by the bypass path; measured worst-case occupancy stays
    // under twice the analytical bound (see test_properties), so the
    // *enforced* capacity doubles the base term.  The analytical
    // figures (Figs. 8/10/11) use the paper's formulas unchanged.
    return 2 * base + resolveLatency(cfg) + p.gran + 1 +
           concentrationLookaheadSlack(cfg);
}

std::uint64_t
resolveTailCells(const BufferConfig &cfg)
{
    if (cfg.measureOnly)
        return 0;
    if (cfg.tailSramCells)
        return cfg.tailSramCells;
    const auto &p = cfg.params;
    // Concentration mirrors into the write path: while a hot chain's
    // group is saturated the arriving cells park in the t-SRAM, so
    // the same slack that deepens the lookahead pads the staging
    // space (zero outside renaming L < 4).
    return model::tailSramCells(p.queues, p.gran) +
           resolveLatency(cfg) + concentrationLookaheadSlack(cfg);
}

std::uint64_t
resolveRrCapacity(const BufferConfig &cfg)
{
    if (cfg.measureOnly || cfg.params.isRads())
        return 0;
    if (cfg.rrCapacity)
        return cfg.rrCapacity + cfg.rrSlack;
    // +4: the combined register also holds the current interval's
    // incoming read and write until their launch opportunities come
    // around, and same-queue write ordering can briefly extend the
    // window (the paper's R counts steady-state residents; measured
    // worst-case excess over R across the validation sweep is 3 --
    // see DESIGN.md on the Eq. (1) reconstruction).  With a timed
    // DRAM model, requests deferred by refresh/turnaround/slow banks
    // pile up: one read and one write can arrive per granularity
    // interval of deferral, so the slack scales with the latency
    // extension.
    std::uint64_t timing_slack = 0;
    if (!cfg.timing.isUniform()) {
        const unsigned b = std::max(cfg.params.gran, 1u);
        timing_slack = 2 * (timingLatencySlack(cfg) / b + 2);
    }
    // Concentrated renaming traffic (L < 4) defers writes behind the
    // hot group's reads; each b deferred cells hold one RR entry, so
    // the concentration slack pads the register too.
    const std::uint64_t concentration_slack =
        concentrationLookaheadSlack(cfg) /
        std::max(cfg.params.gran, 1u);
    return model::rrSize(cfg.params) + 4 + timing_slack +
           concentration_slack + cfg.rrSlack;
}

std::uint64_t
resolveGroupCapacity(const BufferConfig &cfg, unsigned groups)
{
    if (cfg.dramCells == 0)
        return 0;
    std::uint64_t per_group = cfg.dramCells / groups;
    per_group -= per_group % cfg.params.gran;
    fatal_if(per_group == 0, "DRAM capacity of ", cfg.dramCells,
             " cells is too small for ", groups,
             " groups at granularity ", cfg.params.gran);
    return per_group;
}

} // namespace

HybridBuffer::HybridBuffer(const BufferConfig &cfg)
    : cfg_(cfg),
      rads_(cfg.params.isRads()),
      event_core_(cfg.eventCore),
      event_skip_(cfg.eventCore && cfg.mma == MmaKind::Ecqf),
      phys_queues_(cfg.params.queues),
      gran_(cfg.params.gran),
      gran_rads_(cfg.params.granRads),
      map_(resolveBanks(cfg), resolveBanksPerGroup(cfg)),
      timing_(resolveTiming(cfg)),
      banks_(rads_ ? 2 : cfg.params.banks, cfg.params.granRads,
             resolveBankSlots(cfg, *timing_)),
      dram_(phys_queues_, gran_, map_.groups(),
            resolveGroupCapacity(cfg, map_.groups())),
      tail_(phys_queues_, resolveTailCells(cfg)),
      head_(phys_queues_, gran_,
            resolveHeadCells(cfg, resolveLookahead(cfg))),
      hmma_(phys_queues_),
      mdqf_(phys_queues_),
      tmma_(phys_queues_),
      look_(resolveLookahead(cfg), PipeEntry{}),
      orr_(timing_),
      rt_(nullptr),
      next_read_issue_(phys_queues_, 0),
      next_write_issue_(phys_queues_, 0),
      replenish_seq_(phys_queues_, 0),
      pending_unlaunched_writes_(phys_queues_, 0),
      committed_(map_.groups(), 0),
      group_capacity_(resolveGroupCapacity(cfg, map_.groups()))
{
    cfg_.params.validate();
    group_of_.resize(phys_queues_);
    for (QueueId p = 0; p < phys_queues_; ++p)
        group_of_[p] = map_.groupOf(p);
    fatal_if(cfg_.renaming && rads_,
             "queue renaming requires the banked CFDS organization");
    const unsigned logical = cfg_.effectiveLogicalQueues();
    fatal_if(logical > phys_queues_,
             "more logical queues (", logical,
             ") than physical queues (", phys_queues_, ")");
    fatal_if(cfg_.renaming && cfg_.dramCells == 0,
             "renaming is pointless with unbounded DRAM; set dramCells");

    const auto lat = resolveLatency(cfg_);
    if (lat > 0) {
        latency_ = std::make_unique<ShiftRegister<PipeEntry>>(
            lat, PipeEntry{});
    }

    const auto rr_cap = resolveRrCapacity(cfg_);
    sched_ = std::make_unique<dss::DramScheduler>(rr_cap, orr_, true,
                                                  &stats_);

    // Arm the t-SRAM eligibility bitmap at the tail-MMA threshold in
    // *both* engines: maintenance is O(1) per mutation and keeping
    // the derived state engine-agnostic means checkpoints restore
    // across engines without special cases.
    tail_.setThreshold(gran_);

    if (cfg_.renaming) {
        rt_ = std::make_unique<rename::RenamingTable>(
            logical, phys_queues_, map_.groups());
    }
}

std::uint64_t
HybridBuffer::groupFree(unsigned g) const
{
    if (group_capacity_ == 0)
        return UINT64_MAX;
    panic_if(committed_[g] > group_capacity_,
             "committed cells exceed group capacity");
    return group_capacity_ - committed_[g];
}

std::uint64_t
HybridBuffer::admitHorizon() const
{
    if (rt_)
        return 0;
    std::uint64_t h = UINT64_MAX;
    for (unsigned g = 0; g < committed_.size(); ++g)
        h = std::min(h, groupFree(g));
    return h;
}

bool
HybridBuffer::hasRoom(unsigned g) const
{
    return groupFree(g) >= 1;
}

bool
HybridBuffer::wouldAdmit(QueueId lq) const
{
    if (rt_) {
        return rt_->canAssign(
            lq, [this](unsigned g) { return groupFree(g); });
    }
    return lq < phys_queues_ && hasRoom(groupOf(lq));
}

void
HybridBuffer::admitArrival(const Cell &cell)
{
    arrivals_.inc();
    QueueId p;
    if (rt_) {
        panic_if(!wouldAdmit(cell.queue),
                 "renamed arrival not admissible; callers must",
                 " check wouldAdmit first");
        p = rt_->assignArrival(
            cell.queue, [this](unsigned g) { return groupFree(g); });
    } else {
        p = cell.queue;
        panic_if(p >= phys_queues_, "arrival for unknown queue ", p);
        panic_if(!hasRoom(groupOf(p)),
                 "static arrival not admissible; callers must",
                 " check wouldAdmit first");
    }
    ++committed_[groupOf(p)];
    tail_.push(p, cell);
}

void
HybridBuffer::processCompletions(Slot now)
{
    if (now < next_due_)
        return;
    // Uniform timing completes in launch (FIFO) order; heterogeneous
    // bank groups can finish a fast bank's read behind a slow one,
    // so the whole (small) window is scanned, and a read taken out
    // of order leaves a hole.  The head SRAM consumes blocks in
    // replenish-sequence order per queue either way.
    Slot next = kNoRead;
    for (std::uint64_t k = completions_.base();
         k < completions_.base() + completions_.span(); ++k) {
        const Completion *c = completions_.find(k);
        if (!c)
            continue;
        if (c->at > now) {
            next = std::min(next, c->at);
            continue;
        }
        if (trace)
            *trace << "t" << now << " complete read q" << c->phys
                   << " seq " << c->replenishSeq << "\n";
        Completion done = completions_.take(k);
        head_.insertBlock(done.phys, done.replenishSeq,
                          std::move(done.cells));
    }
    next_due_ = next;
}

void
HybridBuffer::headMmaDecide(Slot now)
{
    // One *DRAM* replenish per granularity interval -- that is the
    // bandwidth the paper's analysis budgets.  Queues whose next
    // cells are still in the tail SRAM are served by the bypass
    // path, which is an SRAM-to-SRAM transfer and free of the DRAM
    // constraint; serving every such critical queue in the same
    // interval keeps each DRAM replenish worth a full b cells, the
    // premise of the ECQF sizing theorem.
    bool dram_issued = false;
    if (cfg_.mma == MmaKind::Ecqf) {
        const auto on_critical = [&](QueueId p) -> unsigned {
            if (trace)
                *trace << "t" << now << " hmma select q" << p
                       << "\n";
            if (dram_.hasBlock(p, next_read_issue_[p])) {
                if (dram_issued)
                    return 0;
                issueReplenish(p, now);
                dram_issued = true;
                return gran_;
            }
            return bypassReplenish(p);
        };
        if (event_core_) {
            // Event engine: the calendar already knows which queues
            // are critical and replays them in entry-stamp order,
            // which equals the scan's register-position order
            // (entries are stamped monotonically as they enter) --
            // no O(depth) walk.
            hmma_.calendarDecide(on_critical);
            return;
        }
        // Single pass: every critical queue of the interval is
        // replenished during one walk of the lookahead (the scan
        // credits each replenish into its scratch state), instead of
        // restarting an O(depth) select after every decision.
        hmma_.scan(look_, [](const PipeEntry &e) { return e.phys; },
                   on_critical);
        return;
    }
    const unsigned iter_bound = 4 * phys_queues_ + 4;
    for (unsigned iter = 0; iter < iter_bound; ++iter) {
        const QueueId p = mdqf_.select(
            gran_, [this](QueueId q) { return replenishable(q); });
        if (p == kInvalidQueue)
            break;
        if (trace)
            *trace << "t" << now << " hmma select q" << p << "\n";
        if (dram_.hasBlock(p, next_read_issue_[p])) {
            if (dram_issued)
                break;
            issueReplenish(p, now);
            dram_issued = true;
        } else {
            bypassReplenish(p);
        }
    }
}

void
HybridBuffer::issueReplenish(QueueId p, Slot now)
{
    const std::uint64_t ord = next_read_issue_[p];
    panic_if(!dram_.hasBlock(p, ord), "issueReplenish without block");
    ++next_read_issue_[p];
    if (trace)
        *trace << "t" << now << " issue read q" << p << " ord " << ord
               << " seq " << replenish_seq_[p] << "\n";
    dss::DramRequest req;
    req.kind = dss::DramRequest::Kind::Read;
    req.physQueue = p;
    req.blockOrdinal = ord;
    req.bank = rads_ ? 0 : map_.bankIn(groupOf(p), ord);
    req.replenishSeq = replenish_seq_[p]++;
    req.issued = now;
    hmma_.onReplenishIssued(p, gran_);
    mdqf_.onReplenishIssued(p, gran_);
    if (rads_)
        launchRead(req, now);
    else
        sched_->push(req);
}

unsigned
HybridBuffer::bypassReplenish(QueueId p)
{
    // Squash any not-yet-launched writes of this queue: their cells
    // are the oldest of the queue and are about to be needed at the
    // head.  (Launched writes are already readable, so this loop
    // only runs when the whole DRAM tail of the queue is pending.)
    while (pending_unlaunched_writes_[p] > 0) {
        auto squashed = sched_->rr().cancel(
            [&](const dss::DramRequest &r) {
                return r.kind == dss::DramRequest::Kind::Write &&
                       r.physQueue == p;
            });
        panic_if(!squashed, "pending write of queue ", p,
                 " not found in the write RR");
        --pending_unlaunched_writes_[p];
        panic_if(next_write_issue_[p] == 0, "ordinal underflow");
        --next_write_issue_[p];
        tail_.unclaim(p, gran_);
    }
    const auto n = std::min<std::uint64_t>(gran_, tail_.unclaimed(p));
    panic_if(n == 0, "MMA selected queue ", p,
             " with nothing to replenish");
    auto cells = tail_.extractBypass(p, gran_, &spare_blocks_);
    const unsigned g = groupOf(p);
    panic_if(committed_[g] < n,
             "bypass replenish: committed accounting underflow");
    committed_[g] -= n;
    const std::uint64_t seq = replenish_seq_[p]++;
    if (trace)
        *trace << " bypass q" << p << " n " << n << " seq " << seq
               << "\n";
    head_.insertBlock(p, seq, std::move(cells));
    hmma_.onReplenishIssued(p, static_cast<unsigned>(n));
    mdqf_.onReplenishIssued(p, static_cast<unsigned>(n));
    bypass_cells_.inc(n);
    return static_cast<unsigned>(n);
}

void
HybridBuffer::tailMmaDecide(Slot now)
{
    // Event engine: the t-SRAM's eligibility bitmap knows which
    // queues meet the threshold, so the round-robin pick is a word
    // scan instead of a probe of every queue.  Same threshold, same
    // cursor update -- the oracle test holds the two paths equal.
    const QueueId p =
        event_core_
            ? tmma_.selectVia([this](QueueId from) {
                  return tail_.nextEligible(from);
              })
            : tmma_.select(
                  gran_,
                  [this](QueueId q) { return tail_.unclaimed(q); },
                  [](QueueId) { return true; });
    if (p == kInvalidQueue)
        return;
    tail_.claim(p, gran_);
    dss::DramRequest req;
    req.kind = dss::DramRequest::Kind::Write;
    req.physQueue = p;
    req.blockOrdinal = next_write_issue_[p]++;
    req.bank = rads_ ? 1 : map_.bankIn(groupOf(p), req.blockOrdinal);
    req.issued = now;
    if (trace)
        *trace << "t" << now << " tmma claim q" << p << " ord "
               << req.blockOrdinal << "\n";
    if (rads_) {
        launchWrite(req, now);
    } else {
        sched_->push(req);
        ++pending_unlaunched_writes_[p];
    }
}

void
HybridBuffer::dssTick(Slot now)
{
    // The DRAM sustains twice the line rate: two block transfers
    // begin per granularity interval (one interval's worth of reads
    // plus writes), drawn oldest-ready-first from the combined RR.
    for (int opportunity = 0; opportunity < 2; ++opportunity) {
        const auto req = sched_->tryLaunch(now);
        if (!req)
            break;
        if (req->kind == dss::DramRequest::Kind::Read)
            launchRead(*req, now);
        else
            launchWrite(*req, now);
    }
}

void
HybridBuffer::launchRead(const dss::DramRequest &req, Slot now)
{
    banks_.startAccess(req.bank, now);
    const unsigned g = groupOf(req.physQueue);
    auto cells = dram_.readBlock(req.physQueue, req.blockOrdinal, g);
    panic_if(committed_[g] < gran_,
             "DRAM read launch: committed accounting underflow");
    committed_[g] -= gran_;
    // The data arrives when the bank's row cycle ends: B slots for
    // the uniform model, the group's t_RC for slow bank groups.
    const Slot done =
        now + (rads_ ? gran_rads_ : timing_->accessSlots(req.bank));
    if (trace)
        *trace << "t" << now << " launch read q" << req.physQueue
               << " ord " << req.blockOrdinal << " bank " << req.bank
               << " done@" << done << "\n";
    completions_.pushBack(Completion{done, req.physQueue,
                                     req.replenishSeq,
                                     std::move(cells)});
    next_due_ = std::min(next_due_, done);
    dram_reads_.inc();
}

void
HybridBuffer::launchWrite(const dss::DramRequest &req, Slot now)
{
    banks_.startAccess(req.bank, now);
    auto cells =
        tail_.extractClaimed(req.physQueue, gran_, &spare_blocks_);
    if (trace)
        *trace << "t" << now << " launch write q" << req.physQueue
               << " ord " << req.blockOrdinal << " bank " << req.bank
               << "\n";
    dram_.writeBlock(req.physQueue, req.blockOrdinal, std::move(cells),
                     groupOf(req.physQueue));
    if (!rads_) {
        panic_if(pending_unlaunched_writes_[req.physQueue] == 0,
                 "write launch accounting bug");
        --pending_unlaunched_writes_[req.physQueue];
    }
    dram_writes_.inc();
}

void
HybridBuffer::recyclePhys(QueueId p)
{
    dram_.recycle(p);
    head_.recycle(p);
    tail_.recycle(p);
    panic_if(pending_unlaunched_writes_[p] != 0,
             "recycling queue ", p, " with pending writes");
    completions_.forEach([p](std::uint64_t, const Completion &c) {
        panic_if(c.phys == p,
                 "recycling queue ", p, " with in-flight reads");
    });
    panic_if(hmma_.occupancy(p) != 0,
             "recycling queue ", p, " with MMA credit ",
             hmma_.occupancy(p));
    next_read_issue_[p] = 0;
    next_write_issue_[p] = 0;
    replenish_seq_[p] = 0;
}

bool
HybridBuffer::advanceIdle(Slot to)
{
    if (!event_skip_ || to <= now_)
        return now_ >= to;
    // The slots ahead carry no stimulus, and an inert slot changes
    // nothing the next slot could see, so the conditions below hold
    // for the whole run; the run ends at the first slot where one of
    // them is due to fail.
    Slot span = std::min(to, next_due_) - now_;
    span = std::min(span, look_.idleShifts());
    if (latency_)
        span = std::min(span, latency_->idleShifts());
    // An interval edge with work: a request to launch, an ECQF
    // replenish to decide, or a t-SRAM block to claim.
    if (!sched_->rr().empty() || hmma_.criticalCount() != 0 ||
        tail_.eligibleCount() != 0)
        span = std::min(span, next_interval_ - now_);
    if (span == 0)
        return false;
    look_.advance(span);
    if (latency_)
        latency_->advance(span);
    now_ += span;
    if (next_interval_ < now_) {
        // The first edge at or after now_: one or two steps of b
        // after the usual short run, a division only after a long one.
        const Slot behind = now_ - next_interval_;
        next_interval_ += behind <= 2 * gran_
                              ? (behind <= gran_ ? gran_ : 2 * gran_)
                              : (behind + gran_ - 1) / gran_ * gran_;
    }
    return now_ == to;
}

std::optional<GrantInfo>
HybridBuffer::runIdle(Slot to)
{
    while (!advanceIdle(to)) {
        if (auto grant = stepSlot(std::nullopt, kInvalidQueue))
            return grant;
    }
    return std::nullopt;
}

std::optional<GrantInfo>
HybridBuffer::step(const std::optional<Cell> &arrival, QueueId request)
{
    if (!arrival && request == kInvalidQueue && advanceIdle(now_ + 1))
        return std::nullopt;
    return stepSlot(arrival, request);
}

std::optional<GrantInfo>
HybridBuffer::stepSlot(const std::optional<Cell> &arrival,
                       QueueId request)
{
    const Slot now = now_;

    processCompletions(now);
    if (arrival)
        admitArrival(*arrival);

    PipeEntry in{};
    if (request != kInvalidQueue) {
        in.logical = request;
        in.phys = rt_ ? rt_->translateRequest(request) : request;
        panic_if(in.phys >= phys_queues_,
                 "request for unknown queue ", request);
    }
    const PipeEntry after_look = look_.shift(in);
    // Calendar bookkeeping runs in both engines (it is cheap and
    // keeps every derived structure engine-agnostic, so checkpoints
    // restore across engines unchanged).
    if (in.phys != kInvalidQueue)
        hmma_.onRequestEntering(in.phys);
    if (after_look.phys != kInvalidQueue) {
        hmma_.onRequestLeaving(after_look.phys);
        mdqf_.onRequestLeaving(after_look.phys);
    }
    const PipeEntry ready =
        latency_ ? latency_->shift(after_look) : after_look;

    if (now == next_interval_) {
        next_interval_ += gran_;
        // Launch before issue: "once a request has been chosen it is
        // removed from the RR ... making room for the new request
        // that will be issued by the MMA" (Section 5.3).  This keeps
        // the RR occupancy within Eq. (1).
        if (!rads_)
            dssTick(now);
        headMmaDecide(now);
        tailMmaDecide(now);
    }

    // Each exit builds its result in the caller's slot: a local
    // optional copied out costs a store-forwarding stall per slot.
    if (ready.phys == kInvalidQueue) {
        ++now_;
        return std::nullopt;
    }
    if (trace)
        *trace << "t" << now << " grant due q" << ready.phys << "\n";
    const Cell cell = head_.pop(ready.phys, &spare_blocks_);
    grants_.inc();
    if (rt_)
        rt_->onGrant(ready.logical, [this](QueueId p) { recyclePhys(p); });
    ++now_;
    return GrantInfo{cell, ready.logical};
}

void
HybridBuffer::fields(ser::Io &io)
{
    io.tag("HBUF");
    io.u64(now_);
    banks_.fields(io);
    // A restore reuses the block vectors it replaces (see
    // BlockSpares), so a restored buffer stays as warm as it was.
    dram_.fields(io, &spare_blocks_);
    tail_.fields(io);
    head_.fields(io, &spare_blocks_);
    hmma_.fields(io);
    mdqf_.fields(io);
    tmma_.fields(io);
    look_.fields(io);
    if (io.reading()) {
        // Rebuild the ECQF event calendar from the restored lookahead
        // contents: stamps restart from zero, but only their relative
        // order matters and head-to-tail replay reproduces it exactly.
        hmma_.resetCalendar();
        look_.forEachFromHead([this](const PipeEntry &e) {
            if (e.phys != kInvalidQueue)
                hmma_.onRequestEntering(e.phys);
        });
    }
    bool has_latency = latency_ != nullptr;
    io.b(has_latency);
    fatal_if(has_latency != (latency_ != nullptr),
             "checkpoint: latency register presence mismatch");
    if (latency_)
        latency_->fields(io);
    orr_.fields(io);
    sched_->fields(io);
    bool has_rt = rt_ != nullptr;
    io.b(has_rt);
    fatal_if(has_rt != (rt_ != nullptr),
             "checkpoint: renaming table presence mismatch");
    if (rt_)
        rt_->fields(io);
    for (auto *v : {&next_read_issue_, &next_write_issue_, &replenish_seq_,
                    &pending_unlaunched_writes_, &committed_}) {
        io.fixedCount(v->size(), "per-queue buffer counters");
        for (auto &x : *v)
            io.u64(x);
    }
    // An in-flight read is a header (slot, queue, seq, cell count)
    // and exactly one DRAM block of b cells: the bytes left bound
    // the count before any allocation.
    if (io.reading())
        completions_.drain([this](Completion &&c) {
            giveSpare(&spare_blocks_, std::move(c.cells));
        });
    const auto nc =
        io.count(completions_.size(),
                 8 + 4 + 8 + 8 + gran_ * Cell::kSavedBytes,
                 "in-flight reads");
    completions_.fields(
        io, nc, "in-flight read", [&](std::uint64_t &, Completion &c) {
            io.u64(c.at);
            io.u32(c.phys);
            io.u64(c.replenishSeq);
            io.fixedCount(gran_, "cells in an in-flight read");
            if (io.reading()) {
                fatal_if(c.phys >= phys_queues_, "checkpoint: in-flight"
                         " read for queue ", c.phys, " of ", phys_queues_);
                // Every read due by now_ was ingested before the
                // snapshot; advanceIdle() relies on it.
                fatal_if(c.at < now_, "checkpoint: in-flight read due"
                         " at slot ", c.at, ", before the clock ", now_);
                c.cells = takeSpare(&spare_blocks_);
                c.cells.resize(gran_);
            }
            for (auto &cell : c.cells)
                cell.fields(io);
        });
    if (io.reading()) {
        next_due_ = kNoRead;
        completions_.forEach([this](std::uint64_t, const Completion &c) {
            next_due_ = std::min(next_due_, c.at);
        });
        next_interval_ = (now_ + gran_ - 1) / gran_ * gran_;
    }
    stats_.fields(io);
    arrivals_.fields(io);
    grants_.fields(io);
    bypass_cells_.fields(io);
    dram_reads_.fields(io);
    dram_writes_.fields(io);
}

BufferReport
HybridBuffer::report() const
{
    BufferReport r;
    r.slots = now_;
    r.arrivals = arrivals_.value();
    r.grants = grants_.value();
    r.bypasses = bypass_cells_.value();
    r.dramReads = dram_reads_.value();
    r.dramWrites = dram_writes_.value();
    r.headSramHighWater = head_.highWater();
    r.tailSramHighWater = tail_.highWater();
    r.rrHighWater = sched_->rr().highWater();
    r.rrMaxSkips = sched_->rr().maxSkips();
    r.orrHighWater = orr_.highWater();
    r.dsaStalls = sched_->stalls();
    r.dsaStallsBankBusy = sched_->stallsFor(dram::StallCause::BankBusy);
    r.dsaStallsRefresh = sched_->stallsFor(dram::StallCause::Refresh);
    r.dsaStallsTurnaround =
        sched_->stallsFor(dram::StallCause::Turnaround);
    if (rt_) {
        r.renames = rt_->renames();
        r.renameRecycles = rt_->recycles();
    }
    r.dramResidentCells = dram_.totalCells();
    return r;
}

} // namespace pktbuf::buffer
