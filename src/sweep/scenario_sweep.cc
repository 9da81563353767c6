#include "scenario_sweep.hh"

#include <cstdio>

#include "soak/checkpoint.hh"

namespace pktbuf::sweep
{

std::string
scenarioTableHeader()
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%-40s %10s %10s %10s %8s %8s  %s\n", "leg",
                  "arrivals", "granted", "drained", "drops",
                  "renames", "status");
    return buf;
}

Record
scenarioRecord(const sim::Scenario &s, const sim::ScenarioOutcome &out)
{
    Record r;
    r.set("name", s.name())
        .set("variant", sim::toString(s.variant))
        .set("workload", sim::toString(s.workload))
        .set("queues", s.queues)
        .set("phys_queues", s.physQueues ? s.physQueues : s.queues)
        .set("B", s.granRads)
        .set("b", s.variant == sim::BufferVariant::Rads ? s.granRads
                                                        : s.gran)
        .set("groups", s.groups)
        .set("dram_cells", s.dramCells)
        .set("load", s.load)
        .set("slots", s.slots)
        .set("seed", s.seed)
        .set("passed", out.passed)
        .set("arrivals", out.run.arrivals)
        .set("granted", out.verified)
        .set("drained", out.drained)
        .set("drops", out.run.drops)
        .set("undelivered", out.undelivered)
        .set("mean_delay_slots", out.run.meanDelaySlots)
        .set("max_delay_slots", out.run.maxDelaySlots)
        .set("bypasses", out.report.bypasses)
        .set("dram_reads", out.report.dramReads)
        .set("dram_writes", out.report.dramWrites)
        .set("renames", out.report.renames)
        .set("head_sram_hw", out.report.headSramHighWater)
        .set("tail_sram_hw", out.report.tailSramHighWater)
        .set("rr_hw", out.report.rrHighWater);
    if (!out.passed)
        r.set("failure", out.failure);
    return r;
}

std::vector<Task>
makeScenarioTasks(const std::vector<sim::Scenario> &legs,
                  bool deriveSeeds)
{
    std::vector<Task> tasks;
    tasks.reserve(legs.size());
    for (const auto &leg : legs) {
        tasks.push_back(Task{
            leg.name(),
            [leg, deriveSeeds](const SweepContext &ctx) {
                sim::Scenario s = leg;
                if (deriveSeeds)
                    s.seed = ctx.seed;
                const auto out = soak::runScenario(s);
                TaskResult r;
                char buf[256];
                std::snprintf(
                    buf, sizeof(buf),
                    "%-40s %10llu %10llu %10llu %8llu %8llu  %s\n",
                    s.name().c_str(),
                    static_cast<unsigned long long>(out.run.arrivals),
                    static_cast<unsigned long long>(out.verified),
                    static_cast<unsigned long long>(out.drained),
                    static_cast<unsigned long long>(out.run.drops),
                    static_cast<unsigned long long>(
                        out.report.renames),
                    out.passed ? "ok" : "FAIL");
                r.text = buf;
                if (!out.passed)
                    r.text += "  " + out.failure + "\n";
                r.records.push_back(scenarioRecord(s, out));
                r.ok = out.passed;
                if (!out.passed)
                    r.error = out.failure;
                return r;
            },
        });
    }
    return tasks;
}

} // namespace pktbuf::sweep
