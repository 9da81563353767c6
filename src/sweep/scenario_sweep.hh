/**
 * @file
 * Bridge between the scenario matrix (src/sim/scenario.hh) and the
 * sweep engine: turns a list of Scenario legs into sweep tasks whose
 * records carry the full leg configuration and outcome, and whose
 * buffered text reproduces the classic one-row-per-leg table -- so
 * the scenario_matrix CLI and the sweep-determinism tests share one
 * code path.
 */

#ifndef PKTBUF_SWEEP_SCENARIO_SWEEP_HH
#define PKTBUF_SWEEP_SCENARIO_SWEEP_HH

#include <vector>

#include "sim/scenario.hh"
#include "sweep/sweep.hh"

namespace pktbuf::sweep
{

/**
 * Build one sweep task per scenario leg.
 *
 * Each task runs its leg through soak::runScenario (golden checker on,
 * full drain), formats the classic table row into TaskResult::text,
 * and reports one Record with the leg's configuration, counters and
 * pass/fail state.  A failed leg produces a failed TaskResult whose
 * error carries Scenario::describe() -- including the seed.
 *
 * @param legs          the legs, in the order they should aggregate
 * @param deriveSeeds   when true, each leg's seed is replaced by the
 *                      engine-provided shard seed (CLI --seed N);
 *                      when false, legs keep their built-in seeds
 * @return one task per leg, in the same order
 */
std::vector<Task> makeScenarioTasks(
    const std::vector<sim::Scenario> &legs, bool deriveSeeds);

/** The header line matching the tasks' formatted text rows. */
std::string scenarioTableHeader();

/** One record describing a leg and its outcome (shared with tests). */
Record scenarioRecord(const sim::Scenario &s,
                      const sim::ScenarioOutcome &out);

} // namespace pktbuf::sweep

#endif // PKTBUF_SWEEP_SCENARIO_SWEEP_HH
