/**
 * @file
 * Shared front end for the stand-alone bench harnesses.  Every bench
 * accepts the same flags:
 *
 *   --smoke      reduced slot budgets (what CI runs on every push)
 *   --jobs N     shard the bench's tasks over at most N threads,
 *                never more than the usable CPUs (0 = all of them)
 *   --json PATH  write the machine-readable result records as JSON
 *                ("-" = stdout); the BENCH_*.json baselines are made
 *                of exactly this output
 *   --csv PATH   same records as CSV
 *
 * Unknown arguments and malformed numbers (cli::parseNumber, the
 * examples' strict parser) are rejected loudly with exit 2: a
 * mistyped --smoke silently running the full-length sweep is exactly
 * the CI failure mode this helper exists to prevent.
 *
 * Each bench builds a list of sweep::Task objects, runs them through
 * sweep::runSweep, prints the buffered per-task text in task order
 * (so output is byte-identical for any --jobs), and finishes through
 * finish(), which emits the JSON/CSV artifacts and turns any task
 * failure into a non-zero exit.
 */

#ifndef PKTBUF_BENCH_COMMON_HH
#define PKTBUF_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "../examples/fabric_cli.hh"
#include "sweep/emit.hh"
#include "sweep/sweep.hh"

namespace pktbuf::bench
{

/** Parsed common bench options. */
struct Options
{
    bool smoke = false;
    unsigned jobs = 1;
    std::string jsonPath;  //!< empty = no JSON artifact
    std::string csvPath;   //!< empty = no CSV artifact
};

/**
 * Parse the uniform bench flags; exits(2) on anything unknown.
 * `extra_usage` lets a bench document additional context lines.
 */
inline Options
parseArgs(int argc, char **argv, const char *extra_usage = nullptr)
{
    const auto reject = [&](const std::string &why) {
        std::fprintf(stderr,
                     "%s: %s\n"
                     "usage: %s [--smoke] [--jobs N]"
                     " [--json PATH] [--csv PATH]\n%s",
                     argv[0], why.c_str(), argv[0],
                     extra_usage ? extra_usage : "");
        std::exit(2);
    };
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke")) {
            opt.smoke = true;
        } else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            const char *tok = argv[++i];
            if (!cli::parseNumber(tok, opt.jobs))
                reject("invalid value '" + std::string(tok) +
                       "' for --jobs");
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            opt.jsonPath = argv[++i];
        } else if (!std::strcmp(argv[i], "--csv") && i + 1 < argc) {
            opt.csvPath = argv[++i];
        } else {
            reject("unknown argument '" + std::string(argv[i]) + "'");
        }
    }
    return opt;
}

/**
 * Scale a slot budget down in smoke mode, keeping enough slots for
 * the buffer to reach steady state past warmup and pipeline fill.
 */
inline std::uint64_t
scaledSlots(std::uint64_t full, bool smoke)
{
    constexpr std::uint64_t kFloor = 4000;
    if (!smoke || full <= kFloor)
        return full;
    const std::uint64_t reduced = full / 10;
    return reduced < kFloor ? kFloor : reduced;
}

/**
 * Run `tasks` with the options' thread count, print every task's
 * buffered text in task order, and return the report.  Timing goes
 * to stderr so stdout stays byte-identical across thread counts.
 */
inline sweep::SweepReport
runAndPrint(const std::vector<sweep::Task> &tasks, const Options &opt)
{
    sweep::SweepOptions so;
    so.jobs = opt.jobs;
    const auto rep = sweep::runSweep(tasks, so);
    for (const auto &r : rep.results)
        std::fputs(r.text.c_str(), stdout);
    std::fprintf(stderr, "[%zu tasks, %u jobs, %.2fs]\n",
                 tasks.size(), rep.jobs, rep.wallSeconds);
    return rep;
}

/**
 * Emit the requested JSON/CSV artifacts and report failures.
 *
 * @return the process exit code: 0 when every task passed.
 */
inline int
finish(const char *tool, const sweep::SweepReport &rep,
       const std::vector<sweep::Task> &tasks, const Options &opt,
       sweep::Record meta = {})
{
    meta.set("smoke", opt.smoke);
    sweep::emitArtifacts(rep, tasks,
                         sweep::EmitMeta{tool, std::move(meta)},
                         opt.jsonPath, opt.csvPath);
    for (std::size_t i = 0; i < rep.results.size(); ++i) {
        if (!rep.results[i].ok) {
            std::fprintf(stderr, "FAILED: %s\n",
                         rep.results[i].error.c_str());
        }
    }
    if (rep.failed) {
        std::fprintf(stderr, "%s: %zu of %zu tasks failed\n", tool,
                     rep.failed, rep.results.size());
    }
    return rep.failed == 0 ? 0 : 1;
}

} // namespace pktbuf::bench

#endif // PKTBUF_BENCH_COMMON_HH
