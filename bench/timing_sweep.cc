/**
 * @file
 * The timed-DRAM sweep: run every leg of the timing scenario matrix
 * (refresh storm, turnaround thrash, asymmetric bank groups, full
 * DDR) through the sweep engine, reporting per-cause DSA stalls next
 * to the usual differential columns.  All legs are golden-checked
 * and drained; any miss or undelivered cell fails the sweep.
 *
 * The committed baseline bench/baselines/BENCH_timing.json is the
 * full sweep's --json output; like every sweep artifact it is
 * byte-identical for any --jobs value (verified in CI for 1 vs 2).
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "sim/scenario.hh"
#include "soak/checkpoint.hh"
#include "sweep/scenario_sweep.hh"

using namespace pktbuf;
using namespace pktbuf::sim;

namespace
{

sweep::TaskResult
runLeg(const Scenario &s)
{
    const auto out = soak::runScenario(s);
    sweep::TaskResult res;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-36s %9llu %9llu %7llu %8llu %8llu %8llu  %s\n",
                  s.name().c_str(),
                  static_cast<unsigned long long>(out.run.arrivals),
                  static_cast<unsigned long long>(out.verified),
                  static_cast<unsigned long long>(
                      out.report.dsaStalls),
                  static_cast<unsigned long long>(
                      out.report.dsaStallsBankBusy),
                  static_cast<unsigned long long>(
                      out.report.dsaStallsRefresh),
                  static_cast<unsigned long long>(
                      out.report.dsaStallsTurnaround),
                  out.passed ? "ok" : "FAIL");
    res.text = line;
    if (!out.passed)
        res.text += "  " + out.failure + "\n";
    // The legacy columns plus the timing model and its stall causes.
    auto rec = sweep::scenarioRecord(s, out);
    rec.set("timing", s.timingTag)
        .set("t_rc_max", s.timing.maxTRc(s.granRads))
        .set("turnaround", s.timing.turnaround)
        .set("t_refi", s.timing.tRefi)
        .set("t_rfc", s.timing.tRfc)
        .set("refresh_banks", s.timing.refreshBanks)
        .set("dsa_stalls", out.report.dsaStalls)
        .set("stall_bank_busy", out.report.dsaStallsBankBusy)
        .set("stall_refresh", out.report.dsaStallsRefresh)
        .set("stall_turnaround", out.report.dsaStallsTurnaround)
        .set("orr_hw", out.report.orrHighWater)
        .set("rr_max_skips", out.report.rrMaxSkips);
    res.records.push_back(std::move(rec));
    res.ok = out.passed;
    if (!out.passed)
        res.error = out.failure;
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = pktbuf::bench::parseArgs(argc, argv);
    const auto legs = opt.smoke ? timingSmokeMatrix() : timingMatrix();
    std::printf("Timed-DRAM sweep: refresh / turnaround / asymmetric"
                " bank groups, all golden-checked.\n\n");
    std::printf("%-36s %9s %9s %7s %8s %8s %8s  %s\n", "leg",
                "arrivals", "granted", "stalls", "bankbusy",
                "refresh", "turnarnd", "status");
    std::vector<sweep::Task> tasks;
    tasks.reserve(legs.size());
    for (const auto &leg : legs) {
        tasks.push_back(sweep::Task{
            leg.name(),
            [leg](const sweep::SweepContext &) {
                return runLeg(leg);
            },
        });
    }
    const auto rep = pktbuf::bench::runAndPrint(tasks, opt);
    std::printf("\nReading: every stall names its cause -- bank-busy"
                " is the uniform model's only\nconflict; refresh and"
                " turnaround stalls exist *only* because the timed"
                " model\nrefuses those launches.  Zero misses and"
                " full delivery on every leg: the\nextended"
                " latency/RR slack absorbs what the timing policy"
                " takes away.\n");
    sweep::Record meta;
    meta.set("legs", legs.size());
    return pktbuf::bench::finish("timing_sweep", rep, tasks, opt,
                                 std::move(meta));
}
