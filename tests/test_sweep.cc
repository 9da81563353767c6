/**
 * @file
 * Tests of the parallel sweep engine (src/sweep): determinism of the
 * aggregated output across thread counts (the engine's core
 * contract), failure propagation with seeds in the message, ordered
 * aggregation under heavy oversubscription, seed derivation, and the
 * JSON/CSV emitters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "sim/scenario.hh"
#include "sweep/emit.hh"
#include "sweep/record.hh"
#include "sweep/scenario_sweep.hh"
#include "sweep/sweep.hh"

using namespace pktbuf;
using namespace pktbuf::sweep;

namespace
{

TEST(DeriveSeed, DeterministicAndDecorrelated)
{
    EXPECT_EQ(deriveSeed(1, 0), deriveSeed(1, 0));
    std::set<std::uint64_t> seen;
    for (std::uint64_t m : {0ull, 1ull, 42ull})
        for (std::uint64_t i = 0; i < 64; ++i)
            seen.insert(deriveSeed(m, i));
    // All (master, index) pairs distinct -- no shard shares a stream.
    EXPECT_EQ(seen.size(), 3u * 64u);
}

TEST(SweepEngine, OrderedAggregationUnderOversubscription)
{
    // 64 tasks on up to 8 threads (each thread runs many tasks), and
    // more tasks than the pool has claim stamps: every task runs once
    // and its result lands at its task's index.
    for (const int n : {64, 2500}) {
        std::atomic<int> runs = 0;
        std::vector<Task> tasks;
        for (int i = 0; i < n; ++i) {
            tasks.push_back(Task{
                "t" + std::to_string(i),
                [i, &runs](const SweepContext &ctx) {
                    ++runs;
                    EXPECT_EQ(ctx.index, static_cast<std::size_t>(i));
                    TaskResult r;
                    r.text = std::to_string(i) + "\n";
                    Record rec;
                    rec.set("i", i).set("seed", ctx.seed);
                    r.records.push_back(std::move(rec));
                    return r;
                },
            });
        }
        SweepOptions opt;
        opt.jobs = 8;
        const auto rep = runSweep(tasks, opt);
        EXPECT_EQ(runs, n);
        ASSERT_EQ(rep.results.size(), static_cast<std::size_t>(n));
        EXPECT_EQ(rep.failed, 0u);
        for (int i = 0; i < n; ++i) {
            ASSERT_EQ(rep.results[i].records.size(), 1u);
            EXPECT_EQ(rep.results[i].records[0].find("i")->asUInt(),
                      static_cast<std::uint64_t>(i));
            EXPECT_EQ(rep.results[i].text, std::to_string(i) + "\n");
        }
    }
}

TEST(SweepEngine, FailurePropagation)
{
    std::vector<Task> tasks;
    tasks.push_back(Task{"good", [](const SweepContext &) {
                             return TaskResult{};
                         }});
    tasks.push_back(Task{"bad", [](const SweepContext &) -> TaskResult {
                             panic("leg violated the golden model");
                         }});
    tasks.push_back(Task{"also_good", [](const SweepContext &) {
                             return TaskResult{};
                         }});
    SweepOptions opt;
    opt.jobs = 4;
    opt.masterSeed = 99;
    const auto rep = runSweep(tasks, opt);
    // One failing leg fails the whole sweep ...
    EXPECT_EQ(rep.failed, 1u);
    EXPECT_TRUE(rep.results[0].ok);
    ASSERT_FALSE(rep.results[1].ok);
    EXPECT_TRUE(rep.results[2].ok);
    // ... but the others still ran (no fail-fast hiding of legs).
    const auto &err = rep.results[1].error;
    // The failure names the task and prints its shard seed.
    EXPECT_NE(err.find("'bad'"), std::string::npos) << err;
    EXPECT_NE(err.find("shard seed " +
                       std::to_string(deriveSeed(99, 1))),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("golden model"), std::string::npos) << err;
}

TEST(SweepEngine, PoolRoundsRunEveryItemThenRethrowTheLowestFailure)
{
    // Inline (cap 1) and fanned out alike: two items throw, every
    // item still runs, and the lower item's exception comes back.
    for (const unsigned cap : {1u, 0u}) {
        std::atomic<int> runs = 0;
        std::string thrown;
        try {
            forEachItem(50, cap, [&](std::size_t i) {
                ++runs;
                if (i == 7 || i == 31)
                    throw std::runtime_error("item " + std::to_string(i));
            });
        } catch (const std::runtime_error &e) {
            thrown = e.what();
        }
        EXPECT_EQ(runs, 50) << "cap " << cap;
        EXPECT_EQ(thrown, "item 7") << "cap " << cap;
    }
}

TEST(SweepEngine, ZeroJobsMeansTheCpusThisProcessMayUse)
{
    // jobs = 0 sizes the pool by the affinity mask (what `taskset`
    // restricts), never by the host's core count; any jobs value is a
    // cap that the CPUs and the task count cap in turn.
    const std::size_t cpus = availableCpus();
    for (const unsigned jobs : {0u, 1u, 2u, 8u}) {
        for (const std::size_t n : {1u, 3u, 64u}) {
            const std::vector<Task> tasks(
                n, Task{"t", [](const SweepContext &) {
                            return TaskResult{};
                        }});
            SweepOptions opt;
            opt.jobs = jobs;
            const auto rep = runSweep(tasks, opt);
            EXPECT_EQ(rep.failed, 0u);
            EXPECT_EQ(rep.jobs, std::min({n, jobs ? jobs : cpus, cpus}))
                << n << " tasks, jobs " << jobs;
        }
    }
}

/** Reduced scenario legs so four sweeps stay fast. */
std::vector<sim::Scenario>
tinyMatrix()
{
    auto legs = sim::smokeMatrix();
    for (auto &l : legs)
        l.slots = 1500;
    return legs;
}

TEST(SweepDeterminism, JsonByteIdenticalAcrossJobs)
{
    // The acceptance contract of the whole subsystem: same master
    // seed, --jobs 1/4/8/0 (0 = availableCpus()), byte-identical
    // aggregated JSON (and text).
    const auto legs = tinyMatrix();
    std::string json[4];
    std::string text[4];
    const unsigned jobs[4] = {1, 4, 8, 0};
    for (int k = 0; k < 4; ++k) {
        auto tasks = makeScenarioTasks(legs, /*deriveSeeds=*/false);
        SweepOptions opt;
        opt.jobs = jobs[k];
        const auto rep = runSweep(tasks, opt);
        EXPECT_EQ(rep.failed, 0u);
        EmitMeta meta;
        meta.tool = "test";
        json[k] = toJson(rep, tasks, meta);
        for (const auto &r : rep.results)
            text[k] += r.text;
    }
    for (int k = 1; k < 4; ++k) {
        EXPECT_EQ(json[0], json[k]) << "jobs " << jobs[k];
        EXPECT_EQ(text[0], text[k]) << "jobs " << jobs[k];
    }
    // And the artifact is non-trivial: every leg contributed a row.
    for (const auto &leg : legs)
        EXPECT_NE(json[0].find(leg.name()), std::string::npos);
}

TEST(SweepDeterminism, SweepInsideASweepTaskRunsInline)
{
    // A sweep started from a pool task finds the pool running a round
    // and runs on its task's thread, with the bytes of a top-level
    // sweep.
    const auto legs = tinyMatrix();
    const auto sweepJson = [&](unsigned &jobs_used) {
        auto tasks = makeScenarioTasks(legs, /*deriveSeeds=*/false);
        SweepOptions opt;
        opt.jobs = 0;
        const auto rep = runSweep(tasks, opt);
        EXPECT_EQ(rep.failed, 0u);
        jobs_used = rep.jobs;
        EmitMeta meta;
        meta.tool = "test";
        return toJson(rep, tasks, meta);
    };
    unsigned top_jobs = 0;
    const std::string top = sweepJson(top_jobs);

    std::vector<std::string> inner(3);
    std::vector<unsigned> inner_jobs(3, 0);
    std::vector<Task> outer;
    for (std::size_t k = 0; k < inner.size(); ++k) {
        outer.push_back(Task{"outer", [&, k](const SweepContext &) {
                                 inner[k] = sweepJson(inner_jobs[k]);
                                 return TaskResult{};
                             }});
    }
    SweepOptions opt;
    opt.jobs = 0;
    ASSERT_EQ(runSweep(outer, opt).failed, 0u);
    for (std::size_t k = 0; k < inner.size(); ++k) {
        EXPECT_EQ(inner[k], top) << "inner sweep " << k;
        EXPECT_EQ(inner_jobs[k], 1u) << "inner sweep " << k;
    }
}

TEST(SweepDeterminism, MasterSeedDerivesPerLegSeeds)
{
    // With deriveSeeds on, leg i must run with splitmix(master, i),
    // and two different masters must give different outcomes streams
    // (the records echo the seed actually used).
    auto legs = tinyMatrix();
    legs.resize(2);
    auto tasks = makeScenarioTasks(legs, /*deriveSeeds=*/true);
    SweepOptions opt;
    opt.jobs = 2;
    opt.masterSeed = 7;
    const auto rep = runSweep(tasks, opt);
    ASSERT_EQ(rep.results.size(), 2u);
    for (std::size_t i = 0; i < rep.results.size(); ++i) {
        ASSERT_EQ(rep.results[i].records.size(), 1u);
        EXPECT_EQ(rep.results[i].records[0].find("seed")->asUInt(),
                  deriveSeed(7, i));
    }
}

TEST(Emitters, JsonEscapingAndShapes)
{
    std::vector<Task> tasks;
    tasks.push_back(Task{"esc", [](const SweepContext &) {
                             TaskResult r;
                             Record rec;
                             rec.set("s", "q\"b\\n\nx\ty")
                                 .set("i", -3)
                                 .set("u", 7u)
                                 .set("d", 0.5)
                                 .set("whole", 4.0)
                                 .set("flag", true);
                             r.records.push_back(std::move(rec));
                             return r;
                         }});
    const auto rep = runSweep(tasks, SweepOptions{});
    EmitMeta meta;
    meta.tool = "unit";
    meta.extra.set("note", "n");
    const auto js = toJson(rep, tasks, meta);
    EXPECT_NE(js.find("\"schema\": \"pktbuf-sweep-v1\""),
              std::string::npos);
    EXPECT_NE(js.find("\"tool\": \"unit\""), std::string::npos);
    EXPECT_NE(js.find("\"s\": \"q\\\"b\\\\n\\nx\\ty\""),
              std::string::npos)
        << js;
    EXPECT_NE(js.find("\"i\": -3"), std::string::npos);
    EXPECT_NE(js.find("\"u\": 7"), std::string::npos);
    EXPECT_NE(js.find("\"d\": 0.5"), std::string::npos);
    // Integral doubles still read back as JSON numbers with a point.
    EXPECT_NE(js.find("\"whole\": 4.0"), std::string::npos) << js;
    EXPECT_NE(js.find("\"flag\": true"), std::string::npos);

    const auto csv = toCsv(rep, tasks);
    EXPECT_EQ(csv.substr(0, csv.find('\n')),
              "task,s,i,u,d,whole,flag");
    // CSV quotes fields containing commas/quotes/newlines.
    EXPECT_NE(csv.find("\"q\"\"b\\n\nx\ty\""), std::string::npos)
        << csv;
}

TEST(Emitters, NonFiniteRealsBecomeNullAndEmpty)
{
    // JSON has no inf/nan tokens and CSV's idiom for "not available"
    // is an empty cell.  A NaN mean (empty sampler) or an inf rate
    // (0-second wall clock) must degrade to those forms instead of
    // emitting "inf"/"nan" and corrupting the whole artifact.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(Value(nan).json(), "null");
    EXPECT_EQ(Value(inf).json(), "null");
    EXPECT_EQ(Value(-inf).json(), "null");
    EXPECT_EQ(Value(nan).csv(), "");
    EXPECT_EQ(Value(inf).csv(), "");
    EXPECT_EQ(Value(-inf).csv(), "");
    // Finite values are untouched by the screening.
    EXPECT_EQ(Value(0.5).json(), "0.5");
    EXPECT_EQ(Value(0.5).csv(), "0.5");

    // End to end: a record carrying non-finite measurements still
    // emits, with null JSON fields and empty CSV cells.
    std::vector<Task> tasks;
    tasks.push_back(Task{"nf", [=](const SweepContext &) {
                             TaskResult r;
                             Record rec;
                             rec.set("bad_mean", nan)
                                 .set("bad_rate", inf)
                                 .set("ok", 1.5);
                             r.records.push_back(std::move(rec));
                             return r;
                         }});
    const auto rep = runSweep(tasks, SweepOptions{});
    EmitMeta meta;
    meta.tool = "unit";
    const auto js = toJson(rep, tasks, meta);
    EXPECT_NE(js.find("\"bad_mean\": null"), std::string::npos) << js;
    EXPECT_NE(js.find("\"bad_rate\": null"), std::string::npos) << js;
    EXPECT_NE(js.find("\"ok\": 1.5"), std::string::npos) << js;
    EXPECT_EQ(js.find("inf"), std::string::npos) << js;
    EXPECT_EQ(js.find("nan"), std::string::npos) << js;

    const auto csv = toCsv(rep, tasks);
    const auto row = csv.substr(csv.find('\n') + 1);
    EXPECT_EQ(row.substr(0, row.find('\n')), "nf,,,1.5") << csv;
}

TEST(Emitters, CsvQuotesCommasNewlinesAndQuotes)
{
    // RFC-4180: fields containing commas, quotes or newlines must be
    // quoted (with embedded quotes doubled); everything else stays
    // bare.  A comma leaking through unquoted silently shifts every
    // later column of the row -- the worst kind of artifact rot.
    std::vector<Task> tasks;
    tasks.push_back(Task{"csv", [](const SweepContext &) {
                             TaskResult r;
                             Record rec;
                             rec.set("comma", "a,b")
                                 .set("newline", "l1\nl2")
                                 .set("crlf", "l1\r\nl2")
                                 .set("quote", "say \"hi\"")
                                 .set("plain", "safe")
                                 .set("empty", "")
                                 .set("missing", Value());
                             r.records.push_back(std::move(rec));
                             return r;
                         }});
    const auto rep = runSweep(tasks, SweepOptions{});
    const auto csv = toCsv(rep, tasks);
    EXPECT_NE(csv.find("\"a,b\""), std::string::npos) << csv;
    EXPECT_NE(csv.find("\"l1\nl2\""), std::string::npos) << csv;
    EXPECT_NE(csv.find("\"l1\r\nl2\""), std::string::npos) << csv;
    EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos)
        << csv;
    // Bare fields stay unquoted.
    EXPECT_NE(csv.find(",safe,"), std::string::npos) << csv;
    EXPECT_EQ(csv.find("\"safe\""), std::string::npos) << csv;
    // A Null value serializes as an empty field: the row must end
    // with ",," then "" (empty string and missing are both empty).
    const auto row = csv.substr(csv.find('\n') + 1);
    EXPECT_NE(row.find(",,"), std::string::npos) << row;
}

TEST(Emitters, CsvQuotesHeaderNamesToo)
{
    // Field *names* become header cells and need the same quoting.
    std::vector<Task> tasks;
    tasks.push_back(Task{"hdr", [](const SweepContext &) {
                             TaskResult r;
                             Record rec;
                             rec.set("odd,name", 1u).set("sane", 2u);
                             r.records.push_back(std::move(rec));
                             return r;
                         }});
    const auto rep = runSweep(tasks, SweepOptions{});
    const auto csv = toCsv(rep, tasks);
    const auto header = csv.substr(0, csv.find('\n'));
    EXPECT_EQ(header, "task,\"odd,name\",sane") << csv;
}

TEST(Emitters, FailedTaskBecomesErrorRow)
{
    std::vector<Task> tasks;
    tasks.push_back(Task{"boom", [](const SweepContext &) -> TaskResult {
                             throw std::runtime_error("kapow");
                         }});
    const auto rep = runSweep(tasks, SweepOptions{});
    EXPECT_EQ(rep.failed, 1u);
    EmitMeta meta;
    meta.tool = "unit";
    const auto js = toJson(rep, tasks, meta);
    EXPECT_NE(js.find("\"failed\": 1"), std::string::npos);
    EXPECT_NE(js.find("\"ok\": false"), std::string::npos);
    EXPECT_NE(js.find("kapow"), std::string::npos);
    // CSV skips failed tasks entirely (no error channel).
    const auto csv = toCsv(rep, tasks);
    EXPECT_EQ(csv.find("boom"), std::string::npos);
}

TEST(Emitters, FailedTaskKeepsDiagnosticRecords)
{
    // A failing harness row (e.g. a violated validation bound) still
    // collects counters; the artifacts must carry them, tagged with
    // the failure, instead of replacing them with a bare error row.
    std::vector<Task> tasks;
    tasks.push_back(Task{"viol", [](const SweepContext &) {
                             TaskResult r;
                             Record rec;
                             rec.set("grants", 123u)
                                 .set("violation", "bank conflict");
                             r.records.push_back(std::move(rec));
                             r.ok = false;
                             r.error = "bound violated";
                             return r;
                         }});
    const auto rep = runSweep(tasks, SweepOptions{});
    EXPECT_EQ(rep.failed, 1u);
    EmitMeta meta;
    meta.tool = "unit";
    const auto js = toJson(rep, tasks, meta);
    EXPECT_NE(js.find("\"grants\": 123"), std::string::npos) << js;
    EXPECT_NE(js.find("\"ok\": false"), std::string::npos);
    EXPECT_NE(js.find("bound violated"), std::string::npos);
    const auto csv = toCsv(rep, tasks);
    EXPECT_NE(csv.find("viol,123"), std::string::npos) << csv;
}

TEST(Emitters, RecordOverwriteKeepsPosition)
{
    Record r;
    r.set("a", 1u).set("b", 2u).set("a", 3u);
    ASSERT_EQ(r.fields().size(), 2u);
    EXPECT_EQ(r.fields()[0].first, "a");
    EXPECT_EQ(r.fields()[0].second.asUInt(), 3u);
    EXPECT_EQ(r.fields()[1].first, "b");
}

} // namespace
