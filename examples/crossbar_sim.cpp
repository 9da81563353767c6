/**
 * @file
 * CLI front end of the input-queued crossbar simulator: N input
 * ports, each one VOQ per output backed by a full hybrid SRAM/DRAM
 * buffer, coupled per slot by a matching scheduler (iSLIP, QPS or
 * random-maximal), every input golden-checked and drained.
 *
 *   crossbar_sim [--ports N] [--pattern NAME] [--scheduler NAME]
 *                [--iters N] [--window N] [--variant NAME]
 *                [--load F] [--slots N] [--seed N]
 *                [--hot-outputs K] [--hot-fraction F] [--burst N]
 *                [--victim P] [--engine reference|event] [--smoke]
 *                [--list] [--json PATH] [--csv PATH]
 *
 * The matching couples all inputs each slot, so the engine plans a
 * window of slots on one thread and then steps the inputs through it
 * on the sweep pool, one thread per CPU in the affinity mask.  There
 * is no --jobs knob: the bytes are the same for any thread count, and
 * `taskset -c 0` runs it on one thread.  A --ports 1 run reproduces the
 * matching single-buffer scenario leg bit-for-bit regardless of the
 * scheduler (any maximal matching is work-conserving at N == 1).
 */

#include <cstdio>
#include <optional>

#include "common/logging.hh"
#include "crossbar/crossbar_sim.hh"
#include "fabric_cli.hh"
#include "sweep/record.hh"

using namespace pktbuf;
using namespace pktbuf::xbar;

namespace
{

void
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s [--ports N] [--pattern NAME] [--scheduler NAME]\n"
        "          [--iters N] [--window N] [--variant NAME]\n"
        "          [--load F] [--slots N] [--seed N]\n"
        "          [--hot-outputs K] [--hot-fraction F] [--burst N]\n"
        "          [--victim P] [--engine reference|event] [--smoke]\n"
        "          [--list] [--json PATH] [--csv PATH]\n"
        "  --ports      crossbar radix (default 4)\n"
        "  --pattern    uniform | hotspot | incast | permutation\n"
        "  --scheduler  islip | qps | random\n"
        "  --iters      iSLIP rounds per slot (default 4)\n"
        "  --window     QPS hold window in slots (default 8)\n"
        "  --variant    rads | cfds | renaming\n"
        "  --load       mean offered load per input (default 0.45)\n"
        "  --slots      driven slots (default 20000)\n"
        "  --seed       master seed; input i uses splitmix(seed, i)\n"
        "  --hot-outputs / --hot-fraction   hotspot shape\n"
        "  --victim / --burst               incast shape\n"
        "  --engine     reference (per-slot loop) | event (calendar\n"
        "               core); identical output either way\n"
        "  --smoke      reduced slots for CI\n"
        "  --list       print the resolved input plans, don't run\n"
        "  --json/--csv  write result records ('-' = stdout)\n",
        prog);
}

} // namespace

int
main(int argc, char **argv)
{
    CrossbarConfig cfg;
    const auto flags =
        cli::parseFlags(argc, argv, usage, cfg, [&](cli::Args &a) {
            if (a.is("--scheduler")) {
                if (!parseSchedulerKind(a.value(), cfg.scheduler))
                    a.fail();
            } else if (a.is("--iters")) {
                cfg.islipIterations = a.number<unsigned>();
            } else if (a.is("--window")) {
                cfg.qpsWindow = a.number<unsigned>();
            } else if (a.is("--hot-outputs")) {
                cfg.hotOutputs = a.number<unsigned>();
            } else {
                return false;
            }
            return true;
        });

    // An impossible knob combination (zero ports, starving hot
    // fraction, victim out of range, a scheduler knob its scheduler
    // rejects) is a user error, not a crash.
    std::optional<CrossbarRun> run;
    try {
        run.emplace(cfg);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
    }

    if (flags.list) {
        std::printf("%s\n", cfg.describe().c_str());
        for (const auto &p : run->plans()) {
            std::printf("  input%-3u %s\n", p.input,
                        p.scenario.describe().c_str());
        }
        return 0;
    }

    std::printf("Input-queued crossbar: %u x %u, %s pattern, %s"
                " scheduler, all inputs\ngolden-checked.\n%s\n\n",
                cfg.ports, cfg.ports,
                fabric::toString(cfg.pattern).c_str(),
                toString(cfg.scheduler).c_str(),
                cfg.describe().c_str());
    std::printf("%-6s %-36s %10s %10s %10s %8s  %s\n", "input",
                "leg", "arrivals", "granted", "drained", "drops",
                "status");

    const auto out = run->finish();
    for (std::size_t i = 0; i < out.inputs.size(); ++i) {
        const auto &plan = out.plans[i];
        const auto &in = out.inputs[i];
        std::printf("%-6u %-36s %10llu %10llu %10llu %8llu  %s\n",
                    plan.input, plan.scenario.name().c_str(),
                    static_cast<unsigned long long>(in.run.arrivals),
                    static_cast<unsigned long long>(in.verified),
                    static_cast<unsigned long long>(in.drained),
                    static_cast<unsigned long long>(in.run.drops),
                    in.passed ? "ok" : "FAIL");
        if (!in.passed)
            std::printf("      %s\n", in.failure.c_str());
    }

    const auto &rep = out.report;
    std::printf("\naggregate: arrivals=%llu matched=%llu"
                " drained=%llu drops=%llu undelivered=%llu\n"
                "fabric: throughput=%.4f mean_match_size=%.3f"
                " mean_iterations=%.3f active_slots=%llu\n",
                static_cast<unsigned long long>(rep.arrivals),
                static_cast<unsigned long long>(rep.matchEdges),
                static_cast<unsigned long long>(rep.drained),
                static_cast<unsigned long long>(rep.drops),
                static_cast<unsigned long long>(rep.undelivered),
                rep.throughput, rep.meanMatchSize,
                rep.meanIterations,
                static_cast<unsigned long long>(rep.activeSlots));
    for (const char *name : {"granted", "mean_delay_slots"}) {
        const auto *a = rep.agg(name);
        std::printf("%-18s across inputs: min=%.2f p50=%.2f"
                    " p99=%.2f max=%.2f\n",
                    name, a->min, a->p50, a->p99, a->max);
    }
    std::printf("%u inputs, %zu failed%s\n", rep.ports, rep.failed,
                flags.smoke ? " (smoke run)" : "");

    sweep::Record extra;
    extra.set("smoke", flags.smoke);
    emitCrossbarArtifacts(cfg, out, "crossbar_sim", extra,
                          flags.jsonPath, flags.csvPath);
    return out.passed ? 0 : 1;
}
