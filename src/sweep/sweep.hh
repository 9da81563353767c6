/**
 * @file
 * The parallel parameter-sweep engine and the process's thread pool.
 *
 * A sweep is an ordered list of independent tasks (scenario legs,
 * bench configurations, analytical table rows).  runSweep() shards
 * them across the pool, captures each task's result records,
 * buffered human-readable text and failure state, and aggregates
 * everything **in task order** -- so stdout and the emitted JSON/CSV
 * are byte-identical regardless of the thread count.
 *
 * Determinism contract:
 *  - tasks must not share mutable state (each leg builds its own
 *    buffer, workload and RNG);
 *  - per-task randomness derives from SweepContext::seed, a
 *    splitmix64 hash of (master seed, task index) -- see
 *    deriveSeed() -- so reseeding one task never shifts another's
 *    stream and the task count, not the schedule, fixes every seed;
 *  - tasks write text into TaskResult::text instead of stdout.
 *
 * Failure propagation: a task that throws (panic/fatal from any
 * simulator layer included) becomes a failed TaskResult whose error
 * names the task and its shard seed; the sweep runs to completion so
 * one bad leg cannot hide another, and SweepReport::failed makes the
 * whole sweep fail.
 *
 * The one pool of the process is the caller plus availableCpus() - 1
 * workers, started by the first round that fans out.  A round begun
 * while another runs (a crossbar in a sweep task) runs inline.
 */

#ifndef PKTBUF_SWEEP_SWEEP_HH
#define PKTBUF_SWEEP_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sweep/record.hh"

namespace pktbuf::sweep
{

/**
 * Derive the RNG seed of shard `index` from the sweep's master seed.
 *
 * splitmix64 applied to (master + golden-ratio striding by index):
 * cheap, stateless, and well decorrelated, so neighboring shards do
 * not see correlated streams even for master seeds 0 and 1.
 *
 * @param master the sweep-level seed (CLI --seed)
 * @param index  the task's position in the sweep
 * @return a 64-bit seed unique to (master, index)
 */
std::uint64_t deriveSeed(std::uint64_t master, std::uint64_t index);

/** Everything a task learns about its place in the sweep. */
struct SweepContext
{
    std::size_t index = 0;   //!< position in the task list
    std::uint64_t seed = 0;  //!< deriveSeed(master, index)
};

/** Outcome of one task. */
struct TaskResult
{
    /** Result rows (zero or more) for the JSON/CSV emitters. */
    std::vector<Record> records;
    /** Buffered human-readable output, printed in task order. */
    std::string text;
    bool ok = true;
    /** Failure diagnosis; always names the task and shard seed. */
    std::string error;
};

/** One unit of work. */
struct Task
{
    /** Stable identifier; appears in failures and JSON rows. */
    std::string name;
    /** The work itself; must only touch state it owns. */
    std::function<TaskResult(const SweepContext &)> run;
};

/** Sweep-wide knobs. */
struct SweepOptions
{
    /** Thread cap, caller included (0 = availableCpus()); 1 = inline. */
    unsigned jobs = 1;
    /** Master seed that every shard seed derives from. */
    std::uint64_t masterSeed = 1;
};

/** Aggregated, task-ordered outcome of a sweep. */
struct SweepReport
{
    /** One entry per task, in task order. */
    std::vector<TaskResult> results;
    /** Number of failed tasks. */
    std::size_t failed = 0;
    /** Threads that ran tasks, the caller included. */
    unsigned jobs = 1;
    /**
     * Wall-clock of the run() phase, seconds.  Deliberately *not*
     * serialized by the emitters: timing varies run to run, and the
     * aggregated artifacts must stay byte-identical across thread
     * counts.  Print it to stderr if you want it.
     */
    double wallSeconds = 0.0;
};

/**
 * Run every task and aggregate the results in task order.
 *
 * A pool round (forEachItem) hands out the tasks, so scheduling is
 * dynamic, but aggregation is positional: results[i] always belongs
 * to tasks[i].  Exceptions (std::exception and anything else) become
 * failed results; the engine never throws for a task failure.
 *
 * @param tasks the work list; executed exactly once each
 * @param opt   thread count and master seed
 * @return per-task results, failure count and wall time
 */
SweepReport runSweep(const std::vector<Task> &tasks,
                     const SweepOptions &opt);

/**
 * CPUs in this process's affinity mask (at least 1), read once per
 * process: `taskset -c 0` makes it 1.
 */
unsigned availableCpus();

/** The body of a pool round: runs item i. */
using Body = std::function<void(std::size_t)>;

/**
 * Indexed round: body(i) once for each i in [0, n) on at most `cap`
 * threads (0 = no cap) as SweepOptions::jobs caps them; each takes
 * the lowest item nobody has claimed yet.  Every item runs, then the
 * lowest throwing item's exception is rethrown.
 * @return the threads that took part
 */
unsigned forEachItem(std::size_t n, unsigned cap, const Body &body);

/**
 * Home round: start body(i) for each i in [0, n) on the workers --
 * item i on worker i % min(n, workers), in ascending order -- and
 * return; `body` must live until finishHomeRound().
 * @return false, having started nothing, when the round would run
 *         inline (no worker, or another round runs)
 */
bool startHomeRound(std::size_t n, const Body &body);

/** Run the home round's unclaimed items from the last down, wait for
 *  the rest, and rethrow like forEachItem(). */
void finishHomeRound();

} // namespace pktbuf::sweep

#endif // PKTBUF_SWEEP_SWEEP_HH
