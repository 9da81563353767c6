/**
 * @file
 * Driver of the end-to-end benchmark (bench/e2e/README.md).  One
 * process runs one workload as a whole job -- construct, main phase,
 * drain plus golden verification, artifact emission -- through the
 * repository's public API only, and prints one JSON document: raw
 * per-rep phase times, the simulated design's results, the artifact
 * digest, peak RSS and the outcome of every output check.  run.py
 * turns the document into metrics.
 *
 *   pktbuf_bench --workload NAME --seed N --out DIR
 *                [--reps R | --seconds S] [--smoke] [--trace]
 *                [--oracle]
 *
 * --trace times the layers from outside, around calls into their
 * public functions: every kStride-th slot of a leg, every fabric slot
 * of the crossbar, every port of the switch.  Each trace iteration
 * pairs one untraced rep with one traced rep of the same job, so the
 * tracing overhead is measured, not assumed.  Spans stay in memory
 * and are written to DIR/spans-NAME.json at exit.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "buffer/hybrid_buffer.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "crossbar/crossbar_sim.hh"
#include "crossbar/scheduler.hh"
#include "sim/golden.hh"
#include "sim/scenario.hh"
#include "sim/workload.hh"
#include "soak/checkpoint.hh"
#include "sweep/emit.hh"
#include "sweep/record.hh"
#include "sweep/scenario_sweep.hh"
#include "switch/switch_sim.hh"

using namespace pktbuf;

namespace
{

using Clock = std::chrono::steady_clock;

constexpr const char *kTool = "pktbuf_bench";

/**
 * Legs are traced on every kStride-th slot only, so the timer's own
 * cost does not swamp slots of a few tens of ns.  7 divides neither
 * B = 8 nor b = 2.  A stride that did would sample the same phase of
 * the buffer's access period every time: at stride 8 the saturated
 * leg's busy step read 510-530 ns against 300-330 ns at stride 7.
 */
constexpr std::uint64_t kStride = 7;

double
lap(Clock::time_point &t)
{
    const auto now = Clock::now();
    const double s = std::chrono::duration<double>(now - t).count();
    t = now;
    return s;
}

std::uint64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

// ------------------------------------------------------------- JSON

/** A JSON object from (key, already-serialized value) members. */
std::string
jsonObject(const std::vector<std::pair<std::string, std::string>> &ms)
{
    std::string s = "{";
    for (const auto &[k, v] : ms) {
        if (s.size() > 1)
            s += ", ";
        s += sweep::Value(k).json() + ": " + v;
    }
    return s + "}";
}

std::string
toJson(const sweep::Record &r)
{
    std::vector<std::pair<std::string, std::string>> ms;
    for (const auto &[k, v] : r.fields())
        ms.emplace_back(k, v.json());
    return jsonObject(ms);
}

std::string
toJson(const std::vector<sweep::Record> &rs)
{
    std::string s = "[";
    for (const auto &r : rs)
        s += (s.size() > 1 ? ", " : "") + toJson(r);
    return s + "]";
}

std::string
jsonArray(const std::vector<double> &xs)
{
    std::string s = "[";
    for (const double x : xs)
        s += (s.size() > 1 ? ", " : "") + sweep::Value(x).json();
    return s + "]";
}

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// -------------------------------------------------------- the jobs

enum class Kind
{
    Leg,
    Switch,
    Crossbar,
};

/** One workload: which job it builds and how. */
struct Job
{
    std::string name;
    Kind kind = Kind::Leg;
    sim::Scenario leg;
    sw::SwitchConfig sw;
    xbar::CrossbarConfig xbar;
    /** Sweep-pool workers of the switch; the other jobs are serial. */
    unsigned jobs = 1;

    /** Buffers the job runs: 1 leg, N ports or N inputs. */
    unsigned
    units() const
    {
        switch (kind) {
          case Kind::Leg:
            return 1;
          case Kind::Switch:
            return sw.ports;
          case Kind::Crossbar:
            return xbar.ports;
        }
        return 0;
    }

    /** Main-phase slots of every buffer. */
    std::uint64_t
    slots() const
    {
        switch (kind) {
          case Kind::Leg:
            return leg.slots;
          case Kind::Switch:
            return sw.slots;
          case Kind::Crossbar:
            return xbar.slots;
        }
        return 0;
    }

    void
    setEventEngine(bool on)
    {
        leg.eventEngine = on;
        sw.eventEngine = on;
        xbar.eventEngine = on;
    }
};

/**
 * The four workloads; README.md says why each was chosen.  The seed
 * is the leg's seed or the fabric's master seed; --smoke runs 1/16 of
 * the slots.
 *
 * The saturated leg drains whole queues in a seeded permutation order
 * and requests a waiting cell on every slot.  At load 1.0 its backlog
 * stays at the 64 cells of the warm-up.  Bernoulli requests at the
 * arrival rate would make the backlog a driftless random walk, and the
 * DRAM work per slot would vary by about 10% from seed to seed.  On
 * the idle leg that walk costs little (DRAM serves about 2% of slots),
 * while a request scan over 64 empty queues on every slot would cost
 * more than the buffer itself, so it keeps Bernoulli requests.
 */
Job
makeJob(const std::string &name, std::uint64_t seed, bool smoke)
{
    const std::uint64_t scale = smoke ? 16 : 1;
    Job job;
    job.name = name;
    if (name == "leg-saturated" || name == "leg-idle") {
        const bool idle = name == "leg-idle";
        sim::Scenario &s = job.leg;
        s.variant = sim::BufferVariant::Cfds;
        s.workload = idle ? sim::WorkloadKind::Bernoulli
                          : sim::WorkloadKind::DrainPermutation;
        s.queues = idle ? 64 : 8;
        s.granRads = 8;
        s.gran = 2;
        s.groups = 8;
        s.load = idle ? 0.05 : 1.0;
        s.slots = (idle ? 1ull << 24 : 1ull << 21) / scale;
        s.seed = seed;
    } else if (name == "switch-hotspot") {
        job.kind = Kind::Switch;
        sw::SwitchConfig &c = job.sw;
        c.ports = 64;
        c.pattern = sw::TrafficPattern::Hotspot;
        c.mixedVariants = true;
        c.load = 0.45;
        c.slots = (1ull << 18) / scale;
        c.masterSeed = seed;
        job.jobs = std::clamp(std::thread::hardware_concurrency(), 1u,
                              4u);
    } else if (name == "crossbar-uniform") {
        job.kind = Kind::Crossbar;
        xbar::CrossbarConfig &c = job.xbar;
        c.ports = 16;
        c.pattern = sw::TrafficPattern::Uniform;
        c.scheduler = xbar::SchedulerKind::Islip;
        c.islipIterations = 4;
        c.variant = sim::BufferVariant::Cfds;
        c.load = 0.85;
        c.slots = (1ull << 16) / scale;
        c.masterSeed = seed;
    } else {
        fatal("unknown workload '", name,
              "' (leg-saturated, leg-idle, switch-hotspot, "
              "crossbar-uniform)");
    }
    job.setEventEngine(true);
    return job;
}

// ------------------------------------------------- untraced reps

/** Simulated-design results of one rep, over the job's buffers. */
struct Totals
{
    std::uint64_t units = 0;
    std::uint64_t failed = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t grants = 0;
    std::uint64_t drops = 0;
    double delayWeighted = 0.0;
    double delayMax = 0.0;
    buffer::BufferReport sum{};  //!< counters summed, high-waters max
    std::string failure;
    /** Crossbar only: the fabric's own report. */
    const xbar::CrossbarReport *fabric = nullptr;

    void
    add(const sim::ScenarioOutcome &o)
    {
        ++units;
        if (!o.passed) {
            ++failed;
            if (failure.empty())
                failure = o.failure;
        }
        arrivals += o.run.arrivals;
        grants += o.run.grants;
        drops += o.run.drops;
        delayWeighted += o.run.meanDelaySlots * o.run.grants;
        delayMax = std::max(delayMax, o.run.maxDelaySlots);
        const auto &r = o.report;
        sum.slots += r.slots;
        sum.bypasses += r.bypasses;
        sum.dramReads += r.dramReads;
        sum.dramWrites += r.dramWrites;
        sum.dsaStalls += r.dsaStalls;
        sum.dsaStallsBankBusy += r.dsaStallsBankBusy;
        sum.renames += r.renames;
        sum.rrHighWater = std::max(sum.rrHighWater, r.rrHighWater);
        sum.rrMaxSkips = std::max(sum.rrMaxSkips, r.rrMaxSkips);
        sum.orrHighWater = std::max(sum.orrHighWater, r.orrHighWater);
        sum.headSramHighWater =
            std::max(sum.headSramHighWater, r.headSramHighWater);
        sum.tailSramHighWater =
            std::max(sum.tailSramHighWater, r.tailSramHighWater);
    }
};

/** Wall-clock phases of one rep, seconds. */
struct Phases
{
    double setup = 0.0;   //!< job construction, before the first slot
    double run = 0.0;     //!< main phase
    double finish = 0.0;  //!< drain + golden totals (switch: in run)
    double emit = 0.0;    //!< artifact emission

    double total() const { return setup + run + finish + emit; }
};

/**
 * Each rep constructs its job this many times, timing each; setup_s
 * is the median over all of them.  A leg is constructed in a few us,
 * too short for one sample per rep to give a steady median.
 */
constexpr unsigned kSetups = 8;

/** Construct a T kSetups times, timing each; returns the last one. */
template <typename T, typename... Args>
std::unique_ptr<T>
setUp(std::vector<double> &samples, const Args &...args)
{
    std::unique_ptr<T> obj;
    for (unsigned k = 0; k < kSetups; ++k) {
        obj.reset();
        auto t = Clock::now();
        obj = std::make_unique<T>(args...);
        samples.push_back(lap(t));
    }
    return obj;
}

struct Rep
{
    Phases t;
    /** Every construction's time; t.setup is the last one's. */
    std::vector<double> setups;
    std::vector<sim::ScenarioOutcome> outcomes;
    /** Crossbar only. */
    xbar::CrossbarReport fabric{};
    std::string artifact;

    Totals
    totals() const
    {
        Totals tot;
        for (const auto &o : outcomes)
            tot.add(o);
        if (!outcomes.empty() && fabric.ports)
            tot.fabric = &fabric;
        return tot;
    }
};

void
emitLeg(const sim::Scenario &s, const sim::ScenarioOutcome &out,
        const std::string &path)
{
    const std::vector<sweep::Task> tasks{sweep::Task{s.name(), {}}};
    sweep::SweepReport rep;
    sweep::TaskResult tr;
    tr.records.push_back(sweep::scenarioRecord(s, out));
    tr.ok = out.passed;
    if (!tr.ok) {
        tr.error = out.failure;
        rep.failed = 1;
    }
    rep.results.push_back(std::move(tr));
    sweep::emitArtifacts(rep, tasks, sweep::EmitMeta{kTool, {}}, path,
                         "");
}

/** Written by referenceSeconds() so its loop is not optimized away. */
volatile std::uint64_t g_reference_sink = 0;

/**
 * Machine-speed reference: a fixed loop of xorshift steps driving
 * data-dependent reads and writes in a 256 KiB table, branchy and
 * cache-resident like the simulator.  Its work never changes, so its
 * time measures how fast the machine runs at that moment; run.py
 * scales each rep by the reference time taken just before it
 * (README.md, "Calibrated host timings").
 */
double
referenceSeconds()
{
    static std::vector<std::uint32_t> table(1u << 16, 1);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    std::uint64_t acc = 0;
    auto t = Clock::now();
    for (std::uint32_t i = 0; i < (1u << 21); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint32_t &e = table[x & 0xffff];
        if ((x >> 20) & 1)
            e += static_cast<std::uint32_t>(acc);
        else
            acc += e;
    }
    const double s = lap(t);
    g_reference_sink = acc;
    return s;
}

/** One whole job, its artifact written to `path` and read back. */
Rep
runRep(const Job &job, const std::string &path)
{
    Rep r;
    switch (job.kind) {
      case Kind::Leg: {
        auto run = setUp<soak::ScenarioRun>(r.setups, job.leg);
        auto t = Clock::now();
        run->runTo(job.leg.slots);
        r.t.run = lap(t);
        r.outcomes.push_back(run->finish());
        r.t.finish = lap(t);
        emitLeg(job.leg, r.outcomes[0], path);
        r.t.emit = lap(t);
        break;
      }
      case Kind::Switch: {
        const auto sim = setUp<sw::SwitchSim>(r.setups, job.sw);
        auto t = Clock::now();
        auto out = sim->run(job.jobs);
        r.t.run = lap(t);
        sw::emitSwitchArtifacts(job.sw, out, kTool, {}, path, "");
        r.t.emit = lap(t);
        r.outcomes = std::move(out.ports);
        break;
      }
      case Kind::Crossbar: {
        auto run = setUp<xbar::CrossbarRun>(r.setups, job.xbar);
        auto t = Clock::now();
        run->runTo(job.xbar.slots);
        r.t.run = lap(t);
        auto out = run->finish();
        r.t.finish = lap(t);
        xbar::emitCrossbarArtifacts(job.xbar, out, kTool, {}, path, "");
        r.t.emit = lap(t);
        r.outcomes = std::move(out.inputs);
        r.fabric = out.report;
        break;
      }
    }
    r.t.setup = r.setups.back();
    r.artifact = soak::readFile(path);
    return r;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/**
 * The simulated design's results.  Deterministic: a change that only
 * claims speed must leave every field bit-identical.
 */
sweep::Record
designRecord(const Totals &t)
{
    sweep::Record r;
    const double served =
        t.fabric ? t.fabric->throughput : ratio(t.grants, t.arrivals);
    r.set("units", t.units)
        .set("failed", t.failed)
        .set("arrivals", t.arrivals)
        .set("grants", t.grants)
        .set("drops", t.drops)
        .set("served_ratio", served)
        .set("delay_mean_slots", ratio(t.delayWeighted, t.grants))
        .set("delay_max_slots", t.delayMax)
        .set("drop_rate", ratio(t.drops, t.arrivals + t.drops));
    if (!t.failure.empty())
        r.set("first_failure", t.failure);
    return r;
}

/** The per-layer counts of BufferReport and CrossbarReport. */
sweep::Record
countRecord(const Job &job, const Totals &t)
{
    sweep::Record r;
    // Counts per 1000 buffer-slots, drain slots included.
    const double kslots = t.sum.slots / 1000.0;
    const auto &s = t.sum;
    r.set("dram.reads_per_kslot", ratio(s.dramReads, kslots))
        .set("dram.writes_per_kslot", ratio(s.dramWrites, kslots))
        .set("buffer.bypass_per_kslot", ratio(s.bypasses, kslots))
        .set("dss.stalls_per_kslot", ratio(s.dsaStalls, kslots))
        .set("dss.stalls_per_kslot.bank_busy",
             ratio(s.dsaStallsBankBusy, kslots))
        .set("dss.rr_high_water", s.rrHighWater)
        .set("dss.rr_max_skips", s.rrMaxSkips)
        .set("dss.orr_high_water", s.orrHighWater)
        .set("sram.head_high_water", s.headSramHighWater)
        .set("sram.tail_high_water", s.tailSramHighWater)
        .set("rename.renames_per_kslot", ratio(s.renames, kslots));
    if (t.fabric) {
        r.set("crossbar.mean_iterations", t.fabric->meanIterations)
            .set("crossbar.mean_match_size", t.fabric->meanMatchSize)
            .set("crossbar.active_slot_share",
                 ratio(t.fabric->activeSlots, job.slots()));
    }
    return r;
}

// ---------------------------------------------------------- tracing

/** Span durations in 1-ns buckets; longer spans share the top one. */
class DurationHist
{
  public:
    void
    add(std::uint64_t ns)
    {
        ++counts_[std::min(ns, kMaxNs)];
        ++n_;
        sum_ += ns;
    }

    std::uint64_t count() const { return n_; }

    double
    mean() const
    {
        return n_ ? static_cast<double>(sum_) / n_ : 0.0;
    }

    /** Smallest duration with at least p of the spans at or below. */
    double
    quantile(double p) const
    {
        const auto want = static_cast<std::uint64_t>(p * n_);
        std::uint64_t seen = 0;
        for (std::uint64_t v = 0; v <= kMaxNs; ++v) {
            seen += counts_[v];
            if (seen > 0 && seen >= want)
                return static_cast<double>(v);
        }
        return 0.0;
    }

    /** {"count", "sum_ns", "hist": [[ns, count], ...]}. */
    std::string
    json() const
    {
        std::string h = "[";
        for (std::uint64_t v = 0; v <= kMaxNs; ++v) {
            if (!counts_[v])
                continue;
            h += (h.size() > 1 ? ", [" : "[") + std::to_string(v) +
                 ", " + std::to_string(counts_[v]) + "]";
        }
        return jsonObject({{"count", std::to_string(n_)},
                           {"sum_ns", std::to_string(sum_)},
                           {"hist", h + "]"}});
    }

  private:
    static constexpr std::uint64_t kMaxNs = 1u << 16;
    std::vector<std::uint64_t> counts_ =
        std::vector<std::uint64_t>(kMaxNs + 1, 0);
    std::uint64_t n_ = 0;
    std::uint64_t sum_ = 0;
};

/** Cost of an empty span: the median of back-to-back clock reads. */
double
timerCostNs()
{
    DurationHist h;
    for (int i = 0; i < 200000; ++i) {
        const auto a = Clock::now();
        const auto b = Clock::now();
        h.add(nsBetween(a, b));
    }
    return h.quantile(0.5);
}

struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

/**
 * What one trace iteration produced besides its checks.  `layers`
 * holds the per-layer metrics the workload measures; run.py reports
 * 0 for the layers a workload never enters or cannot time from
 * outside.
 */
struct Traced
{
    sweep::Record layers;
    /** Spans of the iteration, as a JSON object. */
    std::string spans;
};

/** Mean construction time of the job's buffers, from their configs. */
template <typename Plans>
double
constructUs(const Plans &plans)
{
    double total = 0.0;
    for (const auto &p : plans) {
        auto t = Clock::now();
        const buffer::HybridBuffer buf(p.scenario.bufferConfig());
        total += lap(t);
    }
    return plans.empty() ? 0.0 : total / plans.size() * 1e6;
}

/**
 * A leg, driven by a loop that mirrors SimRunner's main loop:
 * Workload::step, HybridBuffer::step, GoldenChecker::onGrant.  Its
 * counters must equal the untraced ScenarioRun's.
 */
Traced
traceLeg(const Job &job, const Rep &untraced, double timer_ns,
         std::vector<Check> &checks)
{
    const sim::Scenario &s = job.leg;
    Traced tr;
    auto wl = sim::makeWorkload(s);
    auto t = Clock::now();
    buffer::HybridBuffer buf(s.bufferConfig());
    const double construct_s = lap(t);
    sim::GoldenChecker checker(wl->queues());
    Sampler delay;
    std::uint64_t arrivals = 0;
    std::uint64_t grants = 0;
    std::uint64_t idle_slots = 0;
    DurationHist wl_h, busy_h, idle_h, golden_h;
    const auto admit = [&buf](QueueId q) { return buf.wouldAdmit(q); };

    t = Clock::now();
    for (std::uint64_t i = 0; i < s.slots; ++i) {
        const bool timed = i % kStride == 0;
        Clock::time_point a, b, c;
        if (timed)
            a = Clock::now();
        const sim::Stimulus st = wl->step(buf.now(), admit);
        if (timed)
            b = Clock::now();
        const auto g = buf.step(st.arrival, st.request);
        if (timed)
            c = Clock::now();
        const bool busy =
            st.arrival.has_value() || st.request != kInvalidQueue;
        idle_slots += busy ? 0 : 1;
        if (st.arrival)
            ++arrivals;
        if (timed) {
            wl_h.add(nsBetween(a, b));
            (busy ? busy_h : idle_h).add(nsBetween(b, c));
        }
        if (g) {
            checker.onGrant(g->logicalQueue, g->cell);
            if (timed)
                golden_h.add(nsBetween(c, Clock::now()));
            ++grants;
            delay.sample(
                static_cast<double>(buf.now() - 1 - g->cell.arrival));
        }
    }
    const double main_s = lap(t);

    const sim::RunResult &u = untraced.outcomes.at(0).run;
    const bool same = arrivals == u.arrivals && grants == u.grants &&
                      wl->drops() == u.drops &&
                      delay.mean() == u.meanDelaySlots &&
                      delay.max() == u.maxDelaySlots;
    checks.push_back(
        {"traced_equals_untraced", same,
         same ? ""
              : "traced loop: arrivals " + std::to_string(arrivals) +
                    " grants " + std::to_string(grants) +
                    "; untraced: arrivals " +
                    std::to_string(u.arrivals) + " grants " +
                    std::to_string(u.grants)});

    const auto self = [timer_ns](const DurationHist &h) {
        return h.count() ? h.mean() - timer_ns : 0.0;
    };
    const double sampled =
        static_cast<double>(busy_h.count() + idle_h.count());
    const double self_per_slot =
        self(wl_h) +
        (busy_h.count() * self(busy_h) + idle_h.count() * self(idle_h)) /
            sampled +
        ratio(grants, s.slots) * self(golden_h);
    const double untraced_ns = untraced.t.run / s.slots * 1e9;

    tr.layers.set("buffer.step_busy_ns", self(busy_h))
        .set("buffer.step_busy_ns_p99",
             busy_h.count() ? busy_h.quantile(0.99) - timer_ns : 0.0)
        .set("buffer.step_idle_ns", self(idle_h))
        .set("buffer.idle_slot_share", ratio(idle_slots, s.slots))
        .set("sim.workload_step_ns", self(wl_h))
        .set("sim.golden_check_ns", self(golden_h))
        .set("sim.finish_ms", untraced.t.finish * 1e3)
        .set("buffer.construct_us", construct_s * 1e6)
        .set("trace.overhead", main_s / untraced.t.run - 1.0)
        .set("trace.accounted_share", self_per_slot / untraced_ns);
    tr.spans = jsonObject({{"stride", std::to_string(kStride)},
                           {"sim.workload_step", wl_h.json()},
                           {"buffer.step_busy", busy_h.json()},
                           {"buffer.step_idle", idle_h.json()},
                           {"sim.golden_check", golden_h.json()}});
    return tr;
}

/**
 * The crossbar, advanced one fabric slot per runTo() call.  A shadow
 * scheduler -- a second instance loaded from the real one's saved
 * state -- is fed every active slot's occupancy through onMatch, so
 * its schedule() time stands for the real scheduler's; its matchings
 * must equal the real ones.
 */
Traced
traceCrossbar(const Job &job, const Rep &untraced, double timer_ns,
              const std::string &path, std::vector<Check> &checks)
{
    const xbar::CrossbarConfig &cfg = job.xbar;
    Traced tr;
    const double construct_us = constructUs(xbar::planCrossbar(cfg));

    xbar::CrossbarRun run(cfg);
    ser::Writer saved;
    run.scheduler().save(saved);
    // seed: replaced by the load() of the real scheduler's state
    constexpr std::uint64_t kShadowSeed = 1;
    auto shadow =
        xbar::makeScheduler(cfg.scheduler, cfg.ports, cfg.islipIterations,
                            cfg.qpsWindow, kShadowSeed);
    ser::Reader reader(saved.bytes());
    shadow->load(reader);
    reader.done();

    DurationHist slot_h, sched_h;
    std::uint64_t mismatches = 0;
    std::uint64_t callback_ns = 0;
    run.onMatch = [&](Slot, const xbar::Occupancy &occ,
                      const xbar::Matching &m, unsigned iters) {
        const auto a = Clock::now();
        const xbar::Matching mine = shadow->schedule(occ);
        const auto b = Clock::now();
        sched_h.add(nsBetween(a, b));
        if (mine != m || shadow->lastIterations() != iters)
            ++mismatches;
        callback_ns = nsBetween(a, Clock::now());
    };

    auto t = Clock::now();
    for (std::uint64_t s = 0; s < cfg.slots; ++s) {
        callback_ns = 0;
        const auto a = Clock::now();
        run.runTo(s + 1);
        slot_h.add(nsBetween(a, Clock::now()) - callback_ns);
    }
    const double main_s = lap(t);
    // The callback refers to locals declared after `run`.
    run.onMatch = nullptr;
    auto out = run.finish();
    xbar::emitCrossbarArtifacts(cfg, out, kTool, {}, path, "");
    const bool same = soak::readFile(path) == untraced.artifact;
    checks.push_back({"traced_equals_untraced", same,
                      same ? "" : "traced crossbar artifact differs"});
    checks.push_back({"shadow_scheduler", mismatches == 0,
                      mismatches ? std::to_string(mismatches) +
                                       " matchings differ"
                                 : ""});

    const auto n = static_cast<double>(cfg.slots);
    const double slot_ns = slot_h.mean() - timer_ns;
    const double sched_ns =
        (static_cast<double>(sched_h.count()) *
         (sched_h.mean() - timer_ns)) /
        n;
    tr.layers.set("crossbar.slot_ns", slot_ns)
        .set("crossbar.schedule_ns", sched_ns)
        .set("crossbar.other_ns", slot_ns - sched_ns)
        .set("crossbar.shadow_mismatches", mismatches)
        .set("sim.finish_ms", untraced.t.finish * 1e3)
        .set("buffer.construct_us", construct_us)
        .set("trace.overhead", main_s / untraced.t.run - 1.0)
        .set("trace.accounted_share",
             slot_ns * n / (untraced.t.run * 1e9));
    tr.spans = jsonObject({{"crossbar.slot", slot_h.json()},
                           {"crossbar.schedule", sched_h.json()}});
    return tr;
}

/**
 * The switch's ports, one after another on this thread, each as a
 * soak::ScenarioRun over the port's plan and workload -- the path
 * runPort takes.  Every port's record must equal the untraced one's,
 * and a jobs=1 run of the whole switch must emit the same bytes as
 * the pooled run.
 */
Traced
traceSwitch(const Job &job, const Rep &untraced, const std::string &path,
            std::vector<Check> &checks)
{
    const sw::SwitchConfig &cfg = job.sw;
    Traced tr;
    const sw::SwitchSim sim(cfg);
    const auto &plans = sim.plans();
    const double construct_us = constructUs(plans);

    auto t = Clock::now();
    const auto serial = sim.run(1);
    const double serial_s = lap(t);
    sw::emitSwitchArtifacts(cfg, serial, kTool, {}, path, "");
    const bool jobs_same = soak::readFile(path) == untraced.artifact;
    checks.push_back({"jobs_identical", jobs_same,
                      jobs_same ? "" : "jobs=1 artifact differs"});

    std::vector<double> port_s;
    double finish_s = 0.0;
    std::vector<std::pair<std::string, std::string>> spans;
    std::size_t differ = 0;
    for (std::size_t i = 0; i < plans.size(); ++i) {
        const auto &plan = plans[i];
        t = Clock::now();
        soak::ScenarioRun run(plan.scenario, [&plan] {
            return sw::makePortWorkload(plan);
        });
        const double c = lap(t);
        run.runTo(plan.scenario.slots);
        const double m = lap(t);
        const auto out = run.finish();
        const double f = lap(t);
        port_s.push_back(c + m + f);
        finish_s += f;
        if (toJson(sw::portRecord(plan, out)) !=
            toJson(sw::portRecord(plan, untraced.outcomes.at(i)))) {
            ++differ;
        }
        spans.emplace_back(
            "port" + std::to_string(plan.port),
            jsonObject({{"variant", sweep::Value(sim::toString(
                                        plan.scenario.variant))
                                        .json()},
                        {"construct_s", sweep::Value(c).json()},
                        {"run_s", sweep::Value(m).json()},
                        {"finish_s", sweep::Value(f).json()}}));
    }
    checks.push_back({"traced_equals_untraced", differ == 0,
                      differ ? std::to_string(differ) +
                                   " port records differ"
                             : ""});

    double traced_s = 0.0;
    for (const auto &variant :
         {sim::BufferVariant::Cfds, sim::BufferVariant::Rads,
          sim::BufferVariant::CfdsRenaming}) {
        double sum = 0.0;
        unsigned n = 0;
        for (std::size_t i = 0; i < plans.size(); ++i) {
            if (plans[i].scenario.variant != variant)
                continue;
            sum += port_s[i];
            ++n;
        }
        traced_s += sum;
        tr.layers.set("switch.port_ns_per_slot." +
                          sim::toString(variant),
                      n ? sum / n / cfg.slots * 1e9 : 0.0);
    }
    std::vector<double> sorted = port_s;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t mid = sorted.size() / 2;
    const double median =
        sorted.size() % 2 ? sorted[mid]
                          : (sorted[mid - 1] + sorted[mid]) / 2.0;
    tr.layers.set("switch.port_imbalance", sorted.back() / median)
        .set("sweep.parallel_efficiency",
             serial_s / (job.jobs * untraced.t.run))
        .set("sim.finish_ms", finish_s * 1e3)
        .set("buffer.construct_us", construct_us)
        .set("trace.overhead", traced_s / serial_s - 1.0)
        .set("trace.accounted_share", traced_s / serial_s);
    tr.spans = jsonObject(spans);
    return tr;
}

Traced
traceIteration(const Job &job, const Rep &untraced, double timer_ns,
               const std::string &path, std::vector<Check> &checks)
{
    Traced tr;
    switch (job.kind) {
      case Kind::Leg:
        tr = traceLeg(job, untraced, timer_ns, checks);
        break;
      case Kind::Switch:
        tr = traceSwitch(job, untraced, path, checks);
        break;
      case Kind::Crossbar:
        tr = traceCrossbar(job, untraced, timer_ns, path, checks);
        break;
    }
    // The layer-independent rows: emission, the design's counts and
    // the timer cost the spans were corrected by.
    const sweep::Record counts = countRecord(job, untraced.totals());
    for (const auto &[k, v] : counts.fields())
        tr.layers.set(k, v);
    tr.layers.set("sweep.emit_ms", untraced.t.emit * 1e3)
        .set("trace.timer_ns", timer_ns);
    return tr;
}

// ------------------------------------------------------------- main

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned reps = 0;
    double seconds = 0.0;
    std::string out;
    bool smoke = false;
    bool trace = false;
    bool oracle = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "pktbuf_bench: %s\nusage: pktbuf_bench --workload NAME"
                 " --seed N --out DIR [--reps R | --seconds S]"
                 " [--smoke] [--trace] [--oracle]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--reps")
                o.reps = static_cast<unsigned>(std::stoul(value()));
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--out")
                o.out = value();
            else if (a == "--smoke")
                o.smoke = true;
            else if (a == "--trace")
                o.trace = true;
            else if (a == "--oracle")
                o.oracle = true;
            else
                usage("unknown argument '" + a + "'");
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (o.workload.empty() || o.out.empty())
        usage("--workload and --out are required");
    if ((o.reps == 0) == (o.seconds <= 0.0))
        usage("give exactly one of --reps and --seconds");
    return o;
}

/**
 * Peak resident set of this process, KiB.  Linux's VmHWM covers this
 * address space only; getrusage()'s ru_maxrss would also carry the
 * high-water mark of the process image before exec -- the launching
 * Python interpreter's, when run.py spawns the driver.
 */
std::uint64_t
peakRssKb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    char line[256];
    unsigned long long kb = 0;
    while (f && std::fgets(line, sizeof(line), f)) {
        if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1)
            break;
    }
    if (f)
        std::fclose(f);
    if (kb == 0) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        kb = static_cast<unsigned long long>(ru.ru_maxrss);
    }
    return kb;
}

/** Untraced runs need a few reps for a median; trace runs need one. */
bool
moreReps(const Options &o, unsigned done, Clock::time_point start)
{
    if (o.reps)
        return done < o.reps;
    const unsigned min_reps = o.trace ? 1 : 3;
    return done < min_reps ||
           std::chrono::duration<double>(Clock::now() - start).count() <
               o.seconds;
}

int
run(const Options &opt)
{
    Job job = makeJob(opt.workload, opt.seed, opt.smoke);
    const std::string base = opt.out + "/" + job.name;
    std::vector<Check> checks;
    std::vector<sweep::Record> reps;
    std::string setups;  // per rep: its construction times
    std::vector<sweep::Record> layers;
    std::string spans;
    std::string first_artifact;
    std::uint64_t units_run = 0;
    std::uint64_t units_failed = 0;
    std::size_t differing = 0;
    sweep::Record design;

    const double timer_ns = opt.trace ? timerCostNs() : 0.0;
    const auto start = Clock::now();
    for (unsigned done = 0; moreReps(opt, done, start); ++done) {
        const double ref_s = referenceSeconds();
        const Rep r = runRep(job, base + ".json");
        const Totals tot = r.totals();
        units_run += tot.units;
        units_failed += tot.failed;
        if (done == 0) {
            first_artifact = r.artifact;
            design = designRecord(tot);
        } else if (r.artifact != first_artifact) {
            ++differing;
        }
        sweep::Record phases;
        phases.set("ref_s", ref_s)
            .set("setup_s", r.t.setup)
            .set("run_s", r.t.run)
            .set("finish_s", r.t.finish)
            .set("emit_s", r.t.emit)
            .set("total_s", r.t.total());
        reps.push_back(std::move(phases));
        setups += (setups.empty() ? "" : ", ") + jsonArray(r.setups);
        if (opt.trace) {
            Traced tr = traceIteration(job, r, timer_ns,
                                       base + ".traced.json", checks);
            units_run += job.units();
            layers.push_back(std::move(tr.layers));
            spans = std::move(tr.spans);
        }
    }
    checks.push_back({"reps_identical", differing == 0,
                      differing ? std::to_string(differing) +
                                      " reps emitted different bytes"
                                : ""});

    const std::uint64_t peak_rss_kb = peakRssKb();

    if (opt.oracle) {
        Job ref = job;
        ref.setEventEngine(false);
        const Rep r = runRep(ref, base + ".oracle.json");
        const Totals tot = r.totals();
        units_run += tot.units;
        units_failed += tot.failed;
        const bool same = r.artifact == first_artifact;
        checks.push_back({"oracle", same,
                          same ? ""
                               : "reference engine emitted different "
                                 "bytes"});
    }
    if (opt.trace) {
        soak::writeFile(opt.out + "/spans-" + job.name + ".json",
                        jsonObject({{"timer_ns",
                                     sweep::Value(timer_ns).json()},
                                    {"spans", spans}}) +
                            "\n");
    }

    std::vector<sweep::Record> check_records;
    for (const auto &c : checks) {
        sweep::Record rec;
        rec.set("name", c.name).set("ok", c.ok).set("detail", c.detail);
        check_records.push_back(std::move(rec));
    }
    sweep::Record head;
    head.set("workload", job.name)
            .set("seed", opt.seed)
            .set("smoke", opt.smoke)
            .set("trace", opt.trace)
            .set("units", job.units())
            .set("slots", job.slots())
            .set("buffer_slots", job.slots() * job.units())
            .set("jobs", job.jobs)
            .set("units_run", units_run)
            .set("units_failed", units_failed)
            .set("peak_rss_kb", peak_rss_kb)
            .set("digest", hex(ser::fnv1a(first_artifact)));
    std::vector<std::pair<std::string, std::string>> doc;
    for (const auto &[k, v] : head.fields())
        doc.emplace_back(k, v.json());
    doc.emplace_back("design", toJson(design));
    doc.emplace_back("reps", toJson(reps));
    doc.emplace_back("setup_samples_s", "[" + setups + "]");
    doc.emplace_back("layers", toJson(layers));
    doc.emplace_back("checks", toJson(check_records));
    std::printf("%s\n", jsonObject(doc).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::printf("%s\n",
                    jsonObject({{"error", sweep::Value(e.what()).json()}})
                        .c_str());
        return 1;
    }
}
