/**
 * @file
 * Input-queued crossbar: N input ports, each holding one VOQ per
 * output backed by a full hybrid SRAM/DRAM buffer, arbitrated per
 * slot by a pluggable matching scheduler (scheduler.hh).
 *
 * Unlike src/switch/ -- N *independent* ports -- the crossbar couples
 * the ports through the fabric: an input may send at most one cell
 * per slot, an output may receive at most one, and which VOQ drains
 * is decided by the matching, so the buffer's SRAM/DRAM dynamics
 * finally interact with fabric-induced contention.
 *
 * The layering deliberately adds no second simulation code path:
 * input i *is* a soak::ScenarioRun (the one driver of every leg)
 * whose workload's requests are the matching engine's grants.
 *
 * The engine runs in windows of up to 256 slots.  Its control plane,
 * on the calling thread, plans each slot of a window: it hands the
 * scheduler its Occupancy of every input's VOQ credits, validates
 * the matching (conflict-free, backed -- panics otherwise: a bad
 * matching is a scheduler bug), draws each input's arrival from that
 * input's own RNG, queues {arrival, grant} in the input's look-ahead
 * script and projects the credits (-grant, +arrival).  Its data
 * plane then steps every input through the window.  The projection
 * is exact because admission is the only way a buffer feeds back:
 * an input takes at most one arrival per slot, and within its
 * admitHorizon() every arrival is admitted.  A horizon of 0
 * (renaming) leaves one lockstep slot, after which a dropped
 * arrival's credit is re-read.
 *
 * Windows of at least 32 slots fan out as a home round of the sweep
 * pool (sweep.hh): input i steps on worker i % min(N, workers), and
 * inside a pool task, where another round runs, everything steps on
 * the caller.  While the workers step window k, the caller plans
 * window k+1, then steps whatever inputs they have not claimed yet.
 * Both windows fit the horizon h read before window k
 * (w_k + w_{k+1} <= h): window k admits at most w_k cells, so the
 * horizon read before window k+1 is still at least w_{k+1}.  Each
 * input's planning state -- its arrival stream, a copy of its
 * DestPlan, its look-ahead script -- sits on cache lines the data
 * plane never writes.  A look-ahead never crosses the runTo()
 * target, and an input that fails discards it (streams, counters
 * and scripts back at the window boundary), so checkpoints still
 * fall between windows.  Every RNG stream is per input or per
 * scheduler, so the bytes do not depend on the window lengths or
 * the pool size.
 *
 * Because each input is a plain ScenarioRun, a 1x1 crossbar
 * reproduces the matching single-buffer scenario leg bit-for-bit (any
 * maximal scheduler is work-conserving at N == 1), and
 * checkpoint/restore of the whole fabric -- scheduler pointers, RNG,
 * every input's sealed envelope -- is bit-identical to an unbroken
 * run.  tests/test_crossbar.cc enforces both, and that any split of
 * runTo() calls gives the same bytes.
 *
 * Destination patterns use the fabric's TrafficPattern vocabulary
 * (fabric/traffic.hh), read over *outputs*: uniform spreads each
 * input's arrivals over all outputs, hotspot concentrates a fraction
 * on a few hot outputs, incast aims bursts at one victim output,
 * permutation pins each input to a fixed seeded partner output.
 * Skewed patterns resolve their knobs against per-output load caps
 * (pure arithmetic, see planCrossbar) so every requested
 * configuration is admissible by construction.
 */

#ifndef PKTBUF_CROSSBAR_CROSSBAR_SIM_HH
#define PKTBUF_CROSSBAR_CROSSBAR_SIM_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crossbar/scheduler.hh"
#include "fabric/fabric.hh"
#include "sim/scenario.hh"
#include "sim/workload.hh"
#include "soak/checkpoint.hh"
#include "sweep/record.hh"
#include "fabric/traffic.hh"

namespace pktbuf::xbar
{

/** Static configuration of a whole crossbar run. */
struct CrossbarConfig
{
    /** Crossbar radix: N inputs x N outputs, one VOQ per pair. */
    unsigned ports = 4;

    /** Destination pattern, over *outputs* (see file comment). */
    fabric::TrafficPattern pattern = fabric::TrafficPattern::Uniform;

    SchedulerKind scheduler = SchedulerKind::Islip;
    /** iSLIP request/grant/accept rounds per slot. */
    unsigned islipIterations = 4;
    /** QPS sliding-window hold length in slots. */
    unsigned qpsWindow = 8;

    /** Buffer architecture of every input port. */
    sim::BufferVariant variant = sim::BufferVariant::Cfds;
    unsigned granRads = 8;  //!< B
    unsigned gran = 2;      //!< b (forced to B on RADS)
    unsigned groups = 4;    //!< G (forced to 1 on RADS)

    /** Mean offered load per input (arrival probability per slot). */
    double load = 0.45;

    std::uint64_t slots = 20000;

    /**
     * Every input's seed is deriveSeed(masterSeed, input); the
     * scheduler draws from deriveSeed(masterSeed, kSchedSalt), so no
     * stream depends on any other.
     */
    std::uint64_t masterSeed = 1;

    /** Hotspot: hot output count; 0 = max(1, ports/4). */
    unsigned hotOutputs = 0;
    /** Hotspot: requested fraction of arrivals on the hot side
     *  (clamped so no hot output exceeds kMaxSkewedOutputLoad). */
    double hotFraction = 0.5;

    /** Incast: victim output index (must be < ports). */
    unsigned incastVictim = 0;
    /** Incast: mean destination-burst length toward the victim. */
    std::uint64_t incastBurst = 64;

    /**
     * Run every input on the event-calendar engine instead of the
     * per-slot reference loop.  Pure execution strategy: plumbed
     * into each input's sim::Scenario::eventEngine and, like it,
     * excluded from name()/describe() so artifacts and checkpoint
     * fingerprints stay byte-identical across engines.
     */
    bool eventEngine = false;

    /** Hard cap on any input's offered load. */
    static constexpr double kMaxInputLoad = 0.9;
    /**
     * Hard cap on the aggregate load converging on one *skewed*
     * output (hotspot / incast).  An output drains at most one cell
     * per slot, but a skewed output's cells also concentrate on one
     * VOQ per input, whose bank group sustains only 1 access per b
     * slots -- the same concentration argument behind
     * sw::SwitchConfig::kMaxBurstyLoad.
     */
    static constexpr double kMaxSkewedOutputLoad = 0.75;
    /**
     * Hard cap on a permutation input's load: the whole input rate
     * lands on a single VOQ (DESIGN.md's concentration bound, the
     * renaming property envelope's 0.45).
     */
    static constexpr double kMaxVoqLoad = 0.45;

    /** Unique, file/test-name-safe identifier of the run. */
    std::string name() const;
    /** name() plus every resolved knob and -- always -- the master
     *  seed, so any failure replays from the log alone.  Also the
     *  checkpoint-fingerprint text. */
    std::string describe() const;
};

/** Resolved destination process of one input (pure data). */
struct DestPlan
{
    fabric::TrafficPattern pattern = fabric::TrafficPattern::Uniform;
    /** Output count (the VOQ fan-out). */
    unsigned outputs = 1;
    /** Hotspot: hot outputs are [0, hotOutputs). */
    unsigned hotOutputs = 0;
    /** Hotspot: resolved per-arrival probability of the hot side. */
    double hotFraction = 0.0;
    /** Incast: the victim output. */
    unsigned victim = 0;
    /** Incast: burst length is 1 + below(burstLen). */
    std::uint64_t burstLen = 1;
    /** Incast: per-arrival probability of starting a victim burst. */
    double burstStart = 0.0;
    /** Permutation: this input's fixed partner output. */
    QueueId permTarget = 0;
};

/**
 * Fully resolved plan of one input port: the scenario leg it runs
 * (buffer config, resolved load, derived seed, slot budget) plus its
 * destination process.  Self-contained, like sw::PortPlan -- the
 * whole crossbar is a pure function of the plan list.
 */
struct InputPlan
{
    unsigned input = 0;
    /** The leg: variant, queues (= outputs), load, seed, slots. */
    sim::Scenario scenario;
    DestPlan dest;

    /** "input<i>": the input's row and failure label. */
    std::string legName() const { return "input" + std::to_string(input); }
};

/**
 * Resolve a crossbar configuration into one plan per input: derive
 * seeds, resolve the destination pattern's probabilities against the
 * per-output load caps, shape each input's scenario leg.  fatal() on
 * impossible knobs (zero ports, victim out of range, load outside
 * (0, kMaxInputLoad]).
 */
std::vector<InputPlan> planCrossbar(const CrossbarConfig &cfg);

/**
 * Workload of one crossbar input.  The fabric's control plane plans
 * each slot: it draws the slot's arrival VOQ from the input's
 * DestPlan (own RNG stream -- streams are input-local) and pairs it
 * with the matching's grant.  It owns the stream while it plans
 * (takeStream / returnStream) and hands each planned window over
 * with play(); the input's data plane then replays that script, one
 * planned slot per step.  Drawing ahead consumes the RNG stream in
 * exactly the order a lockstep run would.  A slot with no plan left
 * (only after the fabric aborted a window) draws its own arrival and
 * requests nothing.
 *
 * In self-greedy mode (valid only for 1 output) the workload instead
 * draws its own arrival and requests its single VOQ whenever the VOQ
 * was non-empty at the start of the slot -- exactly the decision any
 * maximal 1x1 matching makes -- which is how the equivalence tests
 * build the reference single-buffer leg without a crossbar engine in
 * the loop.
 */
class CrossbarPortWorkload : public sim::Workload
{
  public:
    /**
     * One planned slot: its arrival VOQ and its grant, 16 bits each
     * (a radix is at most fabric::kMaxPorts), kNone for none.
     */
    struct Planned
    {
        static constexpr std::uint16_t kNone = 0xffff;
        static_assert(fabric::kMaxPorts <= kNone);

        Planned(QueueId a, QueueId g) : arrival(pack(a)), grant(pack(g))
        {}

        static std::uint16_t
        pack(QueueId q)
        {
            return q == kInvalidQueue ? kNone
                                      : static_cast<std::uint16_t>(q);
        }

        static QueueId
        unpack(std::uint16_t v)
        {
            return v == kNone ? kInvalidQueue : QueueId{v};
        }

        std::uint16_t arrival;
        std::uint16_t grant;
    };
    using Script = std::vector<Planned>;

    /**
     * @param dest resolved destination process
     * @param seed this input's RNG seed
     * @param load arrival probability per slot
     * @param self_greedy serve the single VOQ greedily instead of
     *        replaying planned grants (requires dest.outputs == 1)
     */
    CrossbarPortWorkload(const DestPlan &dest, std::uint64_t seed,
                         double load, bool self_greedy = false);

    std::string name() const override { return "crossbar-voq"; }

    /**
     * Draw one slot's arrival VOQ from a destination process.
     * @param burst the incast burst counter that goes with `rng`
     * @return the arrival VOQ, or kInvalidQueue when no cell arrives
     */
    static QueueId drawArrival(const DestPlan &dest, double load,
                               Rng &rng, std::uint64_t &burst);

    /** Copy the arrival stream (RNG, incast burst counter) out to a
     *  planner; returnStream() hands the advanced stream back. */
    void
    takeStream(Rng &rng, std::uint64_t &burst) const
    {
        rng = rng_;
        burst = burst_remaining_;
    }

    void
    returnStream(const Rng &rng, std::uint64_t burst)
    {
        rng_ = rng;
        burst_remaining_ = burst;
    }

    /**
     * Play `script` next, one entry per slot.  The previous script
     * must be played out; its storage comes back in `script`, empty,
     * so the two vectors alternate without allocating.
     */
    void play(Script &script);

  protected:
    QueueId arrivalQueue(Slot now) override;
    QueueId requestQueue(Slot now) override;
    void extraFields(ser::Io &io) override;

  private:
    DestPlan dest_;  // ser: config
    double load_;  // ser: config
    bool self_greedy_;  // ser: config
    /**
     * Planned slots not yet played, from next_ on; emptied once the
     * data plane plays the last one, so a checkpoint (taken between
     * windows) finds it empty.  The storage is reused.
     */
    Script script_;  // ser: derived
    std::size_t next_ = 0;  // ser: derived
    /** Incast: cells left in the current victim-directed burst. */
    std::uint64_t burst_remaining_ = 0;
    /**
     * Self-greedy only: the VOQ depth at the *start* of the slot
     * (sampled in arrivalQueue, before the arrival lands) -- the
     * same snapshot the matching engine hands its scheduler.
     * Transient: rewritten every slot before requestQueue reads it,
     * so it is deliberately not checkpointed.
     */
    std::uint64_t start_credit_ = 0;  // ser: derived
};

/** Instantiate the workload one input plan calls for. */
std::unique_ptr<CrossbarPortWorkload>
makeInputWorkload(const InputPlan &plan, bool self_greedy = false);

/** Crossbar-level aggregation: the input sums plus the fabric's. */
struct CrossbarReport : fabric::Report
{
    /** Fabric counters (main phase only, before the drain). */
    std::uint64_t matchEdges = 0;   //!< granted fabric transfers
    std::uint64_t activeSlots = 0;  //!< slots with any backed VOQ
    std::uint64_t iterSum = 0;      //!< scheduler iterations total

    /** matchEdges / arrivals: fraction of offered cells the fabric
     *  served within the main phase (the headline throughput). */
    double throughput = 0.0;
    /** matchEdges / activeSlots. */
    double meanMatchSize = 0.0;
    /** iterSum / activeSlots. */
    double meanIterations = 0.0;
};

/** Outcome of a whole crossbar run. */
struct CrossbarOutcome
{
    /** The plans that ran, in input order. */
    std::vector<InputPlan> plans;
    /** Per-input outcomes, in input order. */
    std::vector<sim::ScenarioOutcome> inputs;
    CrossbarReport report;
    bool passed = false;
    /** Every failure's diagnosis (each names the master seed). */
    std::string failure;
};

/**
 * The crossbar engine: N ScenarioRun inputs coupled by the matching
 * scheduler.  Checkpointable at any main-phase slot.
 *
 * Usage mirrors soak::ScenarioRun:
 *   CrossbarRun a(cfg);
 *   a.runTo(k);
 *   auto bytes = a.checkpoint();
 *   CrossbarRun b(cfg);        // fresh objects, same config
 *   b.restore(bytes);
 *   auto out = b.finish();     // == runCrossbar(cfg) bit for bit
 */
class CrossbarRun
{
  public:
    /** Build every input and the scheduler; fatal() on bad knobs.
     *  Starts no thread. */
    explicit CrossbarRun(const CrossbarConfig &cfg);

    const CrossbarConfig &config() const { return cfg_; }
    const std::vector<InputPlan> &plans() const { return plans_; }
    const Scheduler &scheduler() const { return *sched_; }

    /**
     * Advance the main phase to absolute slot `slot` (<= slots), one
     * window at a time (see the file comment).  An exception in an
     * input is rethrown here -- the lowest-numbered failing input's
     * -- and fails the run for good: the window's look-ahead is
     * discarded, and every later runTo() or checkpoint() rethrows
     * the same exception.
     */
    void runTo(std::uint64_t slot);

    /** Main-phase slots executed so far. */
    std::uint64_t executed() const { return executed_; }

    /**
     * End of the window the inputs are stepping (or last stepped):
     * no input steps a slot at or beyond it.  While the pool steps a
     * window, the control plane plans the next one, so onMatch may
     * see dataPlaneEnd() > executed(), but never a slot below
     * dataPlaneEnd().  Read it on the thread that called runTo().
     */
    std::uint64_t dataPlaneEnd() const { return data_end_; }

    /**
     * Snapshot the fabric into a sealed soak envelope ("PKCK",
     * fingerprinted with *this* config's describe() text): slot
     * cursor, fabric counters, scheduler state, then every input's
     * own sealed ScenarioRun envelope, length-prefixed.
     */
    std::string checkpoint() const;

    /** Replace this run's state with a checkpoint's.  FatalError on
     *  corruption or a foreign configuration. */
    void restore(const std::string &bytes);

    /** The payload checkpoint() seals (see there). */
    void fields(ser::Io &io);

    /**
     * Run the remaining main-phase slots, then complete every input
     * through soak::ScenarioRun::finish() (golden totals, full
     * drain) and aggregate the crossbar report.
     */
    CrossbarOutcome finish();

    /**
     * Test observer: called once per *active* slot (non-empty
     * occupancy) with the start-of-slot occupancy, the validated
     * matching and the scheduler's iteration count.  It fires on the
     * thread that called runTo(), from the control plane, for
     * strictly increasing slots, and always before any input steps
     * that slot -- possibly while the pool steps an earlier window
     * (see dataPlaneEnd()).  It must not touch the inputs.  An
     * exception from it fails the run like an input's would.  Not
     * part of the checkpointed state.
     */
    std::function<void(Slot, const Occupancy &, const Matching &,
                       unsigned)>
        onMatch;  // ser: config

  private:
    /**
     * One input's control-plane state, alone on its cache lines:
     * the data plane never writes it, and the planner writes nothing
     * else the data plane reads while a window steps.
     */
    struct alignas(64) Planner
    {
        /** Copies of the input's destination process. */
        DestPlan dest;
        double load = 0.0;
        /** The input's arrival stream while runTo() holds it. */
        Rng rng{0};  // seed: replaced by takeStream() before any draw
        std::uint64_t burst = 0;
        /** The stream before the window being planned: rollback(). */
        Rng markRng{0};  // seed: replaced by planWindow() before use
        std::uint64_t markBurst = 0;
        /** The planned window the input has not been handed yet. */
        CrossbarPortWorkload::Script ahead;
    };

    /** The fabric's counters (main phase only). */
    struct Counters
    {
        std::uint64_t matchEdges = 0;
        std::uint64_t activeSlots = 0;
        std::uint64_t iterSum = 0;
    };

    /** @return the matching's edge count; panics on a bad one. */
    unsigned validate(Slot t, const Matching &m);
    /** The windows of runTo(slot), the streams already taken. */
    void advance(std::uint64_t slot);
    /** The smallest admitHorizon() over the inputs. */
    std::uint64_t horizon() const;
    /**
     * Control plane: match and plan the `w` slots from `first` into
     * the planners' look-ahead scripts.  Marks the planners and
     * counters first, and rolls back to the mark if it throws.
     */
    void planWindow(std::uint64_t first, std::uint64_t w);
    /** Drop the look-ahead: planners and counters back to the mark. */
    void rollback();
    /** After a `w`-slot window: re-read any dropped arrival's
     *  credits, advance executed_. */
    void endWindow(std::uint64_t w);

    CrossbarConfig cfg_;  // ser: config
    std::vector<InputPlan> plans_;  // ser: config
    std::uint64_t fingerprint_;  // ser: config
    std::unique_ptr<Scheduler> sched_;
    std::vector<std::unique_ptr<soak::ScenarioRun>> inputs_;
    /** The inputs' workloads (owned by inputs_), for planning and
     *  credit reads. */
    std::vector<CrossbarPortWorkload *> wl_;  // ser: config
    /** One per input; their streams live in the workloads between
     *  runTo() calls. */
    std::vector<Planner> planners_;  // ser: derived
    /**
     * The inputs' VOQ credits, projected slot by slot by the control
     * plane: a slot takes one cell from input i's granted VOQ and
     * adds its arrival.  Only restore() reads all N^2 credits.
     */
    Occupancy occ_;  // ser: derived
    /** planWindow() scratch: the slot's matching. */
    Matching match_;  // ser: derived
    /** validate() scratch: the outputs a matching used. */
    std::vector<std::uint64_t> taken_;  // ser: derived
    /** Window scratch: each input's drops() before the window. */
    std::vector<std::uint64_t> drops_;  // ser: derived
    std::uint64_t executed_ = 0;
    /** See dataPlaneEnd(). */
    std::uint64_t data_end_ = 0;  // ser: derived
    Counters counters_;
    /** counters_ before the window being planned: rollback(). */
    Counters mark_;  // ser: derived
    /** The exception that failed the run, if any (see runTo()). */
    std::exception_ptr failed_;  // ser: derived
};

/**
 * Run one crossbar end to end: soak::runCheckpointed with no
 * checkpoints.  Never throws: panics and fatals become a failed
 * outcome whose message carries describe() (and so the master seed).
 */
CrossbarOutcome runCrossbar(const CrossbarConfig &cfg);

/**
 * One result row per input: the scenario record of the input's leg
 * plus input index, pattern and destination role.  The 1x1
 * equivalence tests byte-compare the scenario-record prefix against
 * the matching single-buffer leg.
 */
sweep::Record inputRecord(const InputPlan &plan,
                          const sim::ScenarioOutcome &out);

/** The aggregate row: configuration echo, sums, fabric metrics and
 *  min/max/mean/p50/p99 of the headline per-input stats. */
sweep::Record crossbarRecord(const CrossbarConfig &cfg,
                             const CrossbarOutcome &out);

/**
 * Emit the sweep-schema JSON/CSV artifacts of a finished run: one
 * row per input (in input order) plus one final "aggregate" row.
 * Purely a function of the outcome.  Paths: empty = skip, "-" =
 * stdout.
 */
void emitCrossbarArtifacts(const CrossbarConfig &cfg,
                           const CrossbarOutcome &out,
                           const std::string &tool,
                           sweep::Record extra_meta,
                           const std::string &json_path,
                           const std::string &csv_path);

} // namespace pktbuf::xbar

#endif // PKTBUF_CROSSBAR_CROSSBAR_SIM_HH
