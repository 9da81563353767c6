/**
 * @file
 * Crossbar scheduler comparison: the three matching disciplines
 * (iSLIP, QPS, random-maximal) side by side, two ways --
 *
 *   1. pattern grid: every cross-port traffic pattern at 8 ports and
 *      the default load, exposing delay-vs-pattern behavior (incast
 *      and permutation punish a scheduler that revisits stale
 *      choices; the hold window earns its keep there);
 *   2. load ladder: 16-port uniform traffic at offered loads 0.30 to
 *      0.90, the classic throughput-vs-load curve -- iSLIP's
 *      desynchronized pointers should hold throughput near 1.0 all
 *      the way up, random-maximal should sag first.
 *
 * Also reported: mean matching size and mean scheduler iterations
 * per active slot (iSLIP stops early once an iteration adds no
 * edge, so its iteration count is itself a load signal).
 *
 * One task per configuration; inputs run sequentially inside their
 * task, so stdout and artifacts are byte-identical for any --jobs.
 * The committed baseline bench/baselines/BENCH_crossbar.json is the
 * full sweep's --json output (master seed 1), gated in CI by
 * tools/perf_gate.py.
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "crossbar/crossbar_sim.hh"

using namespace pktbuf;
using namespace pktbuf::xbar;

namespace
{

sweep::TaskResult
runConfig(const CrossbarConfig &cfg, const std::string &label)
{
    const auto out = runCrossbar(cfg);
    sweep::TaskResult res;
    const auto *delay = out.report.agg("mean_delay_slots");
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "%-44s %9llu %9llu %8.4f %7.3f %7.3f %8.1f  %s\n",
        label.c_str(),
        static_cast<unsigned long long>(out.report.arrivals),
        static_cast<unsigned long long>(out.report.matchEdges),
        out.report.throughput, out.report.meanMatchSize,
        out.report.meanIterations, delay ? delay->p99 : 0.0,
        out.passed ? "ok" : "FAIL");
    res.text = line;
    if (!out.passed)
        res.text += "  " + out.failure + "\n";
    res.records.push_back(crossbarRecord(cfg, out));
    res.ok = out.passed;
    if (!out.passed)
        res.error = out.failure;
    return res;
}

std::string
loadLabel(const CrossbarConfig &cfg)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "_l%02u",
                  static_cast<unsigned>(cfg.load * 100.0 + 0.5));
    return cfg.name() + buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = pktbuf::bench::parseArgs(argc, argv);

    const SchedulerKind kinds[] = {SchedulerKind::Islip,
                                   SchedulerKind::Qps,
                                   SchedulerKind::RandomMaximal};
    const fabric::TrafficPattern patterns[] = {
        fabric::TrafficPattern::Uniform,
        fabric::TrafficPattern::Hotspot,
        fabric::TrafficPattern::Incast,
        fabric::TrafficPattern::Permutation,
    };
    const double loads[] = {0.30, 0.45, 0.60, 0.75, 0.90};

    std::vector<CrossbarConfig> cfgs;
    // Part 1: scheduler x pattern at 8 ports, default load.
    for (const auto kind : kinds) {
        for (const auto pattern : patterns) {
            CrossbarConfig cfg;
            cfg.ports = 8;
            cfg.pattern = pattern;
            cfg.scheduler = kind;
            cfg.slots = pktbuf::bench::scaledSlots(20000, opt.smoke);
            cfg.masterSeed = 1;
            cfgs.push_back(cfg);
        }
    }
    // Part 2: scheduler x offered load, 16-port uniform.
    for (const auto kind : kinds) {
        for (const auto load : loads) {
            CrossbarConfig cfg;
            cfg.ports = 16;
            cfg.pattern = fabric::TrafficPattern::Uniform;
            cfg.scheduler = kind;
            cfg.load = load;
            cfg.slots = pktbuf::bench::scaledSlots(20000, opt.smoke);
            cfg.masterSeed = 1;
            cfgs.push_back(cfg);
        }
    }

    std::printf("Crossbar scheduler comparison: {islip, qps, random}"
                " x patterns at 8 ports,\nthen x offered load 0.30.."
                "0.90 on 16-port uniform traffic.\n\n");
    std::printf("%-44s %9s %9s %8s %7s %7s %8s  %s\n", "crossbar",
                "arrivals", "matched", "thrpt", "msize", "miters",
                "d_p99", "status");

    std::vector<sweep::Task> tasks;
    tasks.reserve(cfgs.size());
    for (const auto &cfg : cfgs) {
        const auto label = loadLabel(cfg);
        tasks.push_back(sweep::Task{
            label,
            [cfg, label](const sweep::SweepContext &) {
                return runConfig(cfg, label);
            },
        });
    }
    const auto rep = pktbuf::bench::runAndPrint(tasks, opt);
    std::printf(
        "\nReading: every discipline here completes to a *maximal*"
        " matching, so under\nadmissible i.i.d. load all three hold"
        " thrpt ~1.0 even at 0.90 offered -- the\ncurves separate in"
        " the work columns instead: miters climbs with load for\n"
        "iSLIP (more rounds until no edge is added) and QPS (holds"
        " expire, resampling\nresumes) while random stays flat, and"
        " the skewed patterns (incast above all)\nwiden d_p99."
        "  msize tracks how much parallel work each load level"
        " leaves the\nfabric per slot.\n");
    sweep::Record meta;
    meta.set("configs", cfgs.size());
    return pktbuf::bench::finish("crossbar_compare", rep, tasks, opt,
                                 std::move(meta));
}
