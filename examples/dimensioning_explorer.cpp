/**
 * @file
 * Design-space explorer: prints the full dimensioning of RADS and
 * CFDS configurations -- SRAM sizes, lookahead and latency,
 * requests-register size and feasibility, technology numbers from
 * the CACTI-like model -- the way a linecard architect would use the
 * library.
 *
 *   $ ./dimensioning_explorer [oc192|oc768|oc3072] [queues] [b] [M]
 *   $ ./dimensioning_explorer              # the paper's OC-3072 setup
 *
 * With --sweep, the explorer instead walks a (Q, b) grid of design
 * points through the parallel sweep engine and prints one summary
 * row per point:
 *
 *   $ ./dimensioning_explorer --sweep [oc...] [--jobs N] [--json P]
 *                             [--csv P]
 *
 * A malformed number (negative, non-numeric, out of range) or a
 * design point the model rejects prints a message and exits 2.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/system_config.hh"
#include "fabric_cli.hh"
#include "model/sram_designs.hh"
#include "sweep/emit.hh"
#include "sweep/sweep.hh"

using namespace pktbuf;
using namespace pktbuf::core;

namespace
{

/** One (Q, b) design point of the --sweep grid, as a sweep task. */
sweep::TaskResult
sweepPoint(const SystemConfig &sys)
{
    const auto B = sys.granRads();
    const bool rads = sys.gran == B;
    model::BufferParams p{sys.queues, B, sys.gran,
                          rads ? 1u : sys.banks};
    const double slot = slotTimeNs(sys.rate);
    const auto la = model::ecqfLookaheadSlots(sys.queues, sys.gran);
    const auto lat = rads ? 0 : model::latencySlots(p);
    const auto head = model::headSramSpec(p, la);
    const std::uint64_t tail_cells =
        model::tailSramCells(sys.queues, sys.gran) + lat;
    const auto h = model::sizeSramBuffer(
        model::SramDesign::GlobalCam, head.cells, head.lists,
        sys.queues);
    const auto qmax = model::maxQueuesMeetingSlot(B, sys.gran,
                                                  rads ? 1u : sys.banks,
                                                  sys.rate);

    sweep::TaskResult res;
    char line[192];
    std::snprintf(line, sizeof(line),
                  "%-8s Q=%-4u b=%-3u %-5s delay=%8.2f us"
                  " sram=%9.1f KB access=%6.2f ns %s qmax=%u\n",
                  toString(sys.rate).c_str(), sys.queues, sys.gran,
                  rads ? "RADS" : "CFDS",
                  (la + lat) * slot / 1000.0,
                  (head.cells + tail_cells) * kCellBytes /
                      1024.0,
                  h.effectiveNs, h.effectiveNs <= slot ? "ok " : "SLO",
                  qmax);
    res.text = line;
    sweep::Record rec;
    rec.set("rate", toString(sys.rate))
        .set("queues", sys.queues)
        .set("b", sys.gran)
        .set("B", B)
        .set("banks", rads ? 1u : sys.banks)
        .set("is_rads", rads)
        .set("lookahead", la)
        .set("latency_slots", lat)
        .set("delay_us", (la + lat) * slot / 1000.0)
        .set("sram_kb",
             (head.cells + tail_cells) * kCellBytes / 1024.0)
        .set("access_ns", h.effectiveNs)
        .set("meets_slot", h.effectiveNs <= slot)
        .set("qmax", qmax);
    res.records.push_back(std::move(rec));
    return res;
}

int
runSweepMode(LineRate rate, unsigned jobs,
             const std::string &json_path, const std::string &csv_path)
{
    SystemConfig base;
    base.rate = rate;

    std::vector<sweep::Task> tasks;
    for (unsigned q : {64u, 128u, 256u, 512u, 1024u}) {
        for (unsigned b : {1u, 2u, 4u, 8u, 16u, 32u}) {
            SystemConfig sys = base;
            sys.queues = q;
            sys.gran = b;
            sys.banks = 256;
            if (b > sys.granRads() || sys.granRads() % b != 0)
                continue;
            tasks.push_back(sweep::Task{
                "q" + std::to_string(q) + "_b" + std::to_string(b),
                [sys](const sweep::SweepContext &) {
                    return sweepPoint(sys);
                },
            });
        }
    }

    std::cout << "Design-space sweep at " << toString(rate) << " ("
              << tasks.size() << " points)\n\n";
    sweep::SweepOptions so;
    so.jobs = jobs;
    const auto rep = sweep::runSweep(tasks, so);
    for (const auto &r : rep.results)
        std::cout << r.text;
    std::fprintf(stderr, "[%zu points, %u jobs, %.2fs]\n",
                 tasks.size(), rep.jobs, rep.wallSeconds);

    sweep::Record meta;
    meta.set("rate", toString(rate));
    sweep::emitArtifacts(
        rep, tasks, sweep::EmitMeta{"dimensioning_explorer", meta},
        json_path, csv_path);
    return rep.failed == 0 ? 0 : 1;
}

bool
parseRate(const char *arg, LineRate &rate)
{
    if (!std::strcmp(arg, "oc192"))
        rate = LineRate::OC192;
    else if (!std::strcmp(arg, "oc768"))
        rate = LineRate::OC768;
    else if (!std::strcmp(arg, "oc3072"))
        rate = LineRate::OC3072;
    else
        return false;
    return true;
}

void
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s [oc192|oc768|oc3072] [queues] [b] [M]\n"
                 "       %s --sweep [oc192|oc768|oc3072] [--jobs N]"
                 " [--json PATH] [--csv PATH]\n",
                 prog, prog);
}

[[noreturn]] void
fail(const char *prog)
{
    usage(prog);
    std::exit(2);
}

/** `tok` as an unsigned; usage and exit 2 when malformed. */
unsigned
unsignedArg(const char *prog, const char *tok, const char *what)
{
    unsigned v = 0;
    if (!cli::parseNumber(tok, v))
        cli::rejectValue(prog, tok, what, usage);
    return v;
}

int
run(int argc, char **argv)
{
    const char *prog = argv[0];
    // --sweep mode: flag-style arguments.
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--sweep"))
            continue;
        LineRate rate = LineRate::OC3072;
        unsigned jobs = 1;
        std::string json_path, csv_path;
        for (int j = 1; j < argc; ++j) {
            if (j == i)
                continue;
            if (!std::strcmp(argv[j], "--jobs") && j + 1 < argc) {
                jobs = unsignedArg(prog, argv[++j], "--jobs");
            } else if (!std::strcmp(argv[j], "--json") &&
                       j + 1 < argc) {
                json_path = argv[++j];
            } else if (!std::strcmp(argv[j], "--csv") &&
                       j + 1 < argc) {
                csv_path = argv[++j];
            } else if (!parseRate(argv[j], rate)) {
                fail(prog);
            }
        }
        return runSweepMode(rate, jobs, json_path, csv_path);
    }

    // Single-point mode: positional arguments.
    SystemConfig sys;
    sys.rate = LineRate::OC3072;
    sys.queues = 512;
    sys.gran = 4;
    sys.banks = 256;

    if (argc > 5 || (argc > 1 && !parseRate(argv[1], sys.rate)))
        fail(prog);
    if (argc > 2)
        sys.queues = unsignedArg(prog, argv[2], "queues");
    if (argc > 3)
        sys.gran = unsignedArg(prog, argv[3], "b");
    if (argc > 4)
        sys.banks = unsignedArg(prog, argv[4], "M");

    std::cout << "Design point: " << toString(sys.rate) << ", Q="
              << sys.queues << ", b=" << sys.gran << ", M="
              << sys.banks << ", t_RC=" << sys.dramRandomAccessNs
              << " ns (B=" << sys.granRads() << " slots)\n\n";

    printDimensioningReport(std::cout, sys, BufferKind::Rads);
    std::cout << "\n";
    printDimensioningReport(std::cout, sys, BufferKind::Cfds);

    // How many queues could this CFDS organization support at most?
    const auto qmax = model::maxQueuesMeetingSlot(
        sys.granRads(), sys.gran, sys.banks, sys.rate);
    const auto qmax_rads = model::maxQueuesMeetingSlot(
        sys.granRads(), sys.granRads(), 1, sys.rate);
    std::cout << "\nmax queues meeting the slot time: CFDS " << qmax
              << " vs RADS " << qmax_rads << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // A design point the model rejects (b not dividing B, zero
    // queues) is a user error, not a crash.
    try {
        return run(argc, argv);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
    }
}
