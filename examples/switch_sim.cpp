/**
 * @file
 * CLI front end of the switch-scale simulator: N independent hybrid
 * SRAM/DRAM buffer ports driven by a cross-port traffic pattern
 * (uniform / hotspot / incast / permutation), every port
 * golden-checked and drained, per-port rows plus a switch-level
 * aggregate.
 *
 *   switch_sim [--ports N] [--pattern NAME] [--variant NAME|mixed]
 *              [--queues Q] [--load F] [--slots N] [--seed N]
 *              [--hot-ports K] [--hot-fraction F] [--burst N]
 *              [--victim P] [--engine reference|event] [--smoke]
 *              [--list] [--stats] [--jobs N] [--json PATH]
 *              [--csv PATH]
 *
 * Ports shard onto the sweep engine's thread pool (--jobs), but
 * stdout and the JSON/CSV artifacts are byte-identical for any
 * --jobs value: every port's randomness is fixed by
 * deriveSeed(--seed, port) and results aggregate in port order.
 * A 1-port --pattern uniform run reproduces the matching
 * single-buffer scenario leg bit-for-bit.
 */

#include <cstdio>
#include <optional>
#include <sstream>

#include "common/logging.hh"
#include "fabric_cli.hh"
#include "sweep/record.hh"
#include "switch/switch_sim.hh"

using namespace pktbuf;
using namespace pktbuf::sw;

namespace
{

void
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s [--ports N] [--pattern NAME] [--variant NAME]\n"
        "          [--queues Q] [--load F] [--slots N] [--seed N]\n"
        "          [--hot-ports K] [--hot-fraction F] [--burst N]\n"
        "          [--victim P] [--engine reference|event] [--smoke]\n"
        "          [--list] [--stats] [--jobs N] [--json PATH]\n"
        "          [--csv PATH]\n"
        "  --ports     port count (default 4)\n"
        "  --pattern   uniform | hotspot | incast | permutation\n"
        "  --variant   rads | cfds | renaming | mixed (cycled)\n"
        "  --queues    VOQs per port (default 8)\n"
        "  --load      mean offered load per port (default 0.45)\n"
        "  --slots     driven slots per port (default 20000)\n"
        "  --seed      master seed; port p uses splitmix(seed, p)\n"
        "  --hot-ports / --hot-fraction   hotspot shape\n"
        "  --victim / --burst             incast shape\n"
        "  --engine    reference (per-slot loop) | event (calendar\n"
        "              core); identical output either way\n"
        "  --smoke     reduced slots for CI\n"
        "  --list      print the resolved port plans, don't run\n"
        "  --stats     dump the namespaced per-port stat registry\n"
        "  --jobs      threads, at most the usable CPUs (0 = all of\n"
        "              them); output is byte-identical for any value\n"
        "  --json/--csv  write result records ('-' = stdout)\n",
        prog);
}

} // namespace

int
main(int argc, char **argv)
{
    SwitchConfig cfg;
    bool stats = false;
    unsigned jobs = 1;
    const auto flags =
        cli::parseFlags(argc, argv, usage, cfg, [&](cli::Args &a) {
            if (a.is("--queues"))
                cfg.queues = a.number<unsigned>();
            else if (a.is("--hot-ports"))
                cfg.hotPorts = a.number<unsigned>();
            else if (a.is("--stats"))
                stats = true;
            else if (a.is("--jobs"))
                jobs = a.number<unsigned>();
            else
                return false;
            return true;
        });

    // An impossible knob combination (zero ports, starving hot
    // fraction, victim out of range) is a user error, not a crash.
    std::optional<SwitchSim> sim;
    try {
        sim.emplace(cfg);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
    }

    if (flags.list) {
        std::printf("%s\n", cfg.describe().c_str());
        for (const auto &p : sim->plans()) {
            std::printf("  port%-3u %s\n", p.port,
                        p.scenario.describe().c_str());
        }
        return 0;
    }

    std::printf("Switch-scale simulation: %u ports, %s pattern, all"
                " ports golden-checked.\n%s\n\n",
                cfg.ports, toString(cfg.pattern).c_str(),
                cfg.describe().c_str());
    std::printf("%-5s %-36s %10s %10s %10s %8s %8s  %s\n", "port",
                "leg", "arrivals", "granted", "drained", "drops",
                "renames", "status");

    const auto out = sim->run(jobs);
    for (std::size_t i = 0; i < out.ports.size(); ++i) {
        const auto &plan = out.plans[i];
        const auto &po = out.ports[i];
        std::printf("%-5u %-36s %10llu %10llu %10llu %8llu %8llu  %s\n",
                    plan.port, plan.scenario.name().c_str(),
                    static_cast<unsigned long long>(po.run.arrivals),
                    static_cast<unsigned long long>(po.verified),
                    static_cast<unsigned long long>(po.drained),
                    static_cast<unsigned long long>(po.run.drops),
                    static_cast<unsigned long long>(po.report.renames),
                    po.passed ? "ok" : "FAIL");
        if (!po.passed)
            std::printf("      %s\n", po.failure.c_str());
    }

    const auto &rep = out.report;
    std::printf("\naggregate: arrivals=%llu granted=%llu"
                " drained=%llu drops=%llu undelivered=%llu"
                " renames=%llu\n",
                static_cast<unsigned long long>(rep.arrivals),
                static_cast<unsigned long long>(rep.granted),
                static_cast<unsigned long long>(rep.drained),
                static_cast<unsigned long long>(rep.drops),
                static_cast<unsigned long long>(rep.undelivered),
                static_cast<unsigned long long>(rep.renames));
    for (const char *name : {"granted", "drops", "mean_delay_slots"}) {
        const auto *a = rep.agg(name);
        std::printf("%-18s across ports: min=%.2f p50=%.2f p99=%.2f"
                    " max=%.2f\n",
                    name, a->min, a->p50, a->p99, a->max);
    }
    std::printf("%u ports, %zu failed%s\n", rep.ports, rep.failed,
                flags.smoke ? " (smoke run)" : "");

    if (stats) {
        std::ostringstream os;
        rep.stats.dump(os);
        std::fputs(os.str().c_str(), stdout);
    }

    sweep::Record extra;
    extra.set("smoke", flags.smoke);
    emitSwitchArtifacts(cfg, out, "switch_sim", extra, flags.jsonPath,
                        flags.csvPath);
    return out.passed ? 0 : 1;
}
