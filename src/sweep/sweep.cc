#include "sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include <sched.h>

namespace pktbuf::sweep
{

std::uint64_t
deriveSeed(std::uint64_t master, std::uint64_t index)
{
    // splitmix64 step with the index striding the state by the
    // golden-ratio increment, exactly how splitmix64 itself walks
    // its state sequence.
    std::uint64_t z = master + (index + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace
{

thread_local bool tl_sweep_worker = false;

TaskResult
runOne(const Task &task, const SweepContext &ctx)
{
    TaskResult r;
    try {
        r = task.run(ctx);
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = e.what();
    } catch (...) {
        r.ok = false;
        r.error = "unknown exception";
    }
    if (!r.ok) {
        // Always name the task and its shard seed so a failed leg
        // can be replayed from the log alone.
        r.error += " [task '" + task.name + "', shard seed " +
                   std::to_string(ctx.seed) + "]";
    }
    return r;
}

} // namespace

SweepReport
runSweep(const std::vector<Task> &tasks, const SweepOptions &opt)
{
    SweepReport rep;
    rep.results.resize(tasks.size());

    unsigned jobs = opt.jobs ? opt.jobs : availableCpus();
    if (jobs > tasks.size())
        jobs = static_cast<unsigned>(tasks.size());
    if (jobs == 0)
        jobs = 1;
    rep.jobs = jobs;

    const auto t0 = std::chrono::steady_clock::now();
    if (jobs == 1) {
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            rep.results[i] = runOne(
                tasks[i],
                SweepContext{i, deriveSeed(opt.masterSeed, i)});
        }
    } else {
        std::atomic<std::size_t> cursor{0};
        const auto worker = [&]() {
            tl_sweep_worker = true;
            while (true) {
                const std::size_t i =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (i >= tasks.size())
                    return;
                rep.results[i] = runOne(
                    tasks[i],
                    SweepContext{i, deriveSeed(opt.masterSeed, i)});
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }
    rep.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    for (const auto &r : rep.results)
        if (!r.ok)
            ++rep.failed;
    return rep;
}

unsigned
availableCpus()
{
    // Read once: a system call per crossbar window (glibc's
    // hardware_concurrency() even reads /sys) costs more than a
    // short window's work.
    static const unsigned cpus = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) != 0)
            return 1u;
        return std::max(1u, static_cast<unsigned>(CPU_COUNT(&set)));
    }();
    return cpus;
}

bool
onSweepWorker()
{
    return tl_sweep_worker;
}

} // namespace pktbuf::sweep
