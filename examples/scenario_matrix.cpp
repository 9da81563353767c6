/**
 * @file
 * CLI front end of the scenario-matrix differential harness: run the
 * full (or --smoke) sweep of buffer variant x workload x granularity
 * x queue count through the parallel sweep engine, print one row per
 * leg, and exit non-zero if any leg violates the golden model.
 * Failures always print the seed so the leg can be replayed
 * bit-for-bit.
 *
 *   scenario_matrix [--smoke] [--timing] [--list] [--filter SUBSTR]
 *                   [--seed N] [--seed-exact N] [--slots N]
 *                   [--engine reference|event] [--jobs N]
 *                   [--json PATH] [--csv PATH]
 *
 * --engine event runs every leg on the event-calendar core; the
 * engine is a pure execution strategy (excluded from leg names and
 * records), so the output must stay byte-identical to --engine
 * reference -- which is exactly what the CI differential smoke
 * asserts with cmp.
 *
 * --timing selects the timed-DRAM adversarial matrix (refresh storm,
 * turnaround thrash, asymmetric bank groups) instead of the legacy
 * matrix, so the legacy sweep's output stays byte-identical.
 *
 * --seed N reseeds leg i with splitmix(N, i) (decorrelated sweep
 * from one number); --seed-exact N gives every selected leg exactly
 * seed N -- the replay knob: a failure log names the leg and its
 * actual seed, and `--filter LEG --seed-exact SEED` reruns that leg
 * bit-for-bit regardless of its position in the matrix.
 *
 * Output (stdout and the JSON/CSV artifacts) is byte-identical for
 * any --jobs value: legs run in parallel, but results aggregate in
 * leg order and each leg's randomness is fixed by its own seed.
 * Timing is printed to stderr only, for the same reason.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fabric_cli.hh"
#include "sim/scenario.hh"
#include "sweep/emit.hh"
#include "sweep/scenario_sweep.hh"
#include "sweep/sweep.hh"

using namespace pktbuf;
using namespace pktbuf::sim;

namespace
{

void
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s [--smoke] [--timing] [--list]"
                 " [--filter SUBSTR]"
                 " [--seed N] [--slots N]\n"
                 "          [--jobs N] [--json PATH] [--csv PATH]\n"
                 "  --smoke    reduced sweep for CI (fewer legs and"
                 " slots)\n"
                 "  --timing   the timed-DRAM adversarial matrix"
                 " (refresh / turnaround / asym)\n"
                 "  --list     print the legs without running them\n"
                 "  --filter   run only legs whose name contains"
                 " SUBSTR\n"
                 "  --seed     master seed: leg i runs with"
                 " splitmix(N, i)\n"
                 "  --seed-exact  give every selected leg exactly"
                 " seed N\n"
                 "             (replays a failure from its logged"
                 " seed)\n"
                 "  --slots    override every leg's slot count\n"
                 "  --engine   reference (per-slot loop) | event"
                 " (calendar core);\n"
                 "             identical output either way\n"
                 "  --jobs     threads, at most the usable CPUs (0 ="
                 " all of them);\n"
                 "             output is byte-identical for any value\n"
                 "  --json     write result records as JSON"
                 " ('-' = stdout)\n"
                 "  --csv      write result records as CSV\n",
                 prog);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool timing = false;
    bool list = false;
    std::string filter;
    std::uint64_t seed_override = 0;
    bool have_seed = false;
    std::uint64_t seed_exact = 0;
    bool have_seed_exact = false;
    std::uint64_t slots_override = 0;
    bool have_slots = false;
    bool event_engine = false;
    unsigned jobs = 1;
    std::string json_path;
    std::string csv_path;

    // Numbers parse strictly: a malformed value exits 2.
    const auto number = [&](int &i, auto &out) {
        const char *tok = argv[++i];
        if (!cli::parseNumber(tok, out))
            cli::rejectValue(argv[0], tok, argv[i - 1], usage);
    };
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke")) {
            smoke = true;
        } else if (!std::strcmp(argv[i], "--timing")) {
            timing = true;
        } else if (!std::strcmp(argv[i], "--list")) {
            list = true;
        } else if (!std::strcmp(argv[i], "--filter") && i + 1 < argc) {
            filter = argv[++i];
        } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
            number(i, seed_override);
            have_seed = true;
        } else if (!std::strcmp(argv[i], "--seed-exact") &&
                   i + 1 < argc) {
            number(i, seed_exact);
            have_seed_exact = true;
        } else if (!std::strcmp(argv[i], "--slots") && i + 1 < argc) {
            number(i, slots_override);
            have_slots = true;
        } else if (!std::strcmp(argv[i], "--engine") && i + 1 < argc) {
            const std::string tok = argv[++i];
            if (tok == "event") {
                event_engine = true;
            } else if (tok != "reference") {
                usage(argv[0]);
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            number(i, jobs);
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--csv") && i + 1 < argc) {
            csv_path = argv[++i];
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    if (have_seed && have_seed_exact) {
        std::fprintf(stderr,
                     "%s: --seed and --seed-exact are exclusive\n",
                     argv[0]);
        return 2;
    }

    auto matrix = timing ? (smoke ? timingSmokeMatrix()
                                  : timingMatrix())
                         : (smoke ? smokeMatrix() : defaultMatrix());
    std::vector<Scenario> selected;
    for (auto &s : matrix) {
        if (!filter.empty() &&
            s.name().find(filter) == std::string::npos) {
            continue;
        }
        if (have_slots)
            s.slots = slots_override;
        if (have_seed_exact)
            s.seed = seed_exact;
        s.eventEngine = event_engine;
        selected.push_back(s);
    }

    if (selected.empty() && !filter.empty()) {
        // A typo'd filter silently running zero legs would read as a
        // green CI step; fail loudly instead.
        std::fprintf(stderr, "%s: --filter '%s' matches no leg\n",
                     argv[0], filter.c_str());
        return 2;
    }

    if (list) {
        for (const auto &s : selected)
            std::printf("%s\n", s.describe().c_str());
        return 0;
    }

    auto tasks = sweep::makeScenarioTasks(selected,
                                          /*deriveSeeds=*/have_seed);
    sweep::SweepOptions so;
    so.jobs = jobs;
    if (have_seed)
        so.masterSeed = seed_override;

    std::fputs(sweep::scenarioTableHeader().c_str(), stdout);
    const auto rep = sweep::runSweep(tasks, so);
    for (const auto &r : rep.results)
        std::fputs(r.text.c_str(), stdout);
    std::printf("\n%zu legs, %zu failed%s\n", selected.size(),
                rep.failed, smoke ? " (smoke sweep)" : "");
    // Timing never goes to stdout: stdout must stay byte-identical
    // across --jobs values.
    std::fprintf(stderr, "[%zu legs, %u jobs, %.2fs]\n",
                 selected.size(), rep.jobs, rep.wallSeconds);

    sweep::Record meta;
    meta.set("smoke", smoke).set("legs", selected.size());
    if (timing)
        meta.set("timing", true);
    if (have_seed)
        meta.set("master_seed", seed_override);
    if (have_seed_exact)
        meta.set("seed_exact", seed_exact);
    sweep::emitArtifacts(rep, tasks,
                         sweep::EmitMeta{"scenario_matrix", meta},
                         json_path, csv_path);
    return rep.failed == 0 ? 0 : 1;
}
