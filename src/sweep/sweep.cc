#include "sweep.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

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

    const auto t0 = std::chrono::steady_clock::now();
    rep.jobs = forEachItem(tasks.size(), opt.jobs, [&](std::size_t i) {
        rep.results[i] =
            runOne(tasks[i], SweepContext{i, deriveSeed(opt.masterSeed, i)});
    });
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

namespace
{

/**
 * The workers and the one round they run at a time.  Item i is
 * claimed, for round r, by a compare-exchange of stamp i % kStamps
 * from any older round to r.  Round r publishes r and its stamp
 * count in one word, so a worker that slept through it finds its
 * stamps taken: a round ends when its last item has run, not when
 * every worker has looked at it.
 */
class Pool
{
  public:
    ~Pool()
    {
        stopping_.store(true, std::memory_order_relaxed);
        epoch_.fetch_add(1, std::memory_order_release);
        epoch_.notify_all();
        for (auto &t : threads_)
            t.join();
    }

    /** Open a round for workers [0, helpers); false = run inline. */
    bool
    begin(std::size_t n, std::size_t helpers, bool home, const Body &body)
    {
        if (helpers == 0 || busy_.exchange(true, std::memory_order_acquire))
            return false;
        try {
            while (threads_.size() < availableCpus() - 1) {
                const auto k = static_cast<unsigned>(threads_.size());
                threads_.emplace_back([this, k] { work(k); });
            }
        } catch (...) {
            busy_.store(false, std::memory_order_release);
            throw;
        }
        body_ = &body;
        items_ = n;
        const std::size_t stamps = std::min(n, kStamps);
        remaining_.store(static_cast<unsigned>(stamps),
                         std::memory_order_relaxed);
        helpers_.store(helpers, std::memory_order_relaxed);
        home_.store(home, std::memory_order_relaxed);
        word_.store(++round_ << 16 | stamps, std::memory_order_release);
        epoch_.fetch_add(1, std::memory_order_release);
        epoch_.notify_all();
        return true;
    }

    /** Claim stamps in order (or from the last down), wait for the
     *  rest, close the round and rethrow its error. */
    void
    finish(bool from_last)
    {
        const std::size_t stamps = std::min(items_, kStamps);
        for (std::size_t k = 0; k < stamps; ++k)
            claimAndRun(round_, from_last ? stamps - 1 - k : k);
        for (unsigned left;
             (left = remaining_.load(std::memory_order_acquire)) != 0;)
            remaining_.wait(left, std::memory_order_acquire);
        const std::exception_ptr error = std::exchange(error_, nullptr);
        busy_.store(false, std::memory_order_release);
        if (error)
            std::rethrow_exception(error);
    }

  private:
    static constexpr std::size_t kStamps = 1024;

    /** Run stamp s's items unless claimed; a claim holds round r open. */
    void
    claimAndRun(std::uint64_t r, std::size_t s)
    {
        std::uint64_t last = claims_[s].load(std::memory_order_relaxed);
        if (last >= r || !claims_[s].compare_exchange_strong(
                             last, r, std::memory_order_relaxed))
            return;
        for (std::size_t i = s; i < items_; i += kStamps) {
            try {
                (*body_)(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex_);
                if (!error_ || i < error_item_) {
                    error_ = std::current_exception();
                    error_item_ = i;
                }
            }
        }
        if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            remaining_.notify_one();
    }

    void
    work(unsigned k)
    {
        for (std::uint32_t seen = 0;;) {
            epoch_.wait(seen, std::memory_order_acquire);
            seen = epoch_.load(std::memory_order_acquire);
            if (stopping_.load(std::memory_order_relaxed))
                return;
            const std::uint64_t word = word_.load(std::memory_order_acquire);
            const std::size_t helpers =
                helpers_.load(std::memory_order_relaxed);
            const bool home = home_.load(std::memory_order_relaxed);
            for (std::size_t s = home ? k : 0;
                 k < helpers && s < (word & 0xffff); s += home ? helpers : 1)
                claimAndRun(word >> 16, s);
        }
    }

    /** Set while a round runs: a round begun then runs inline. */
    std::atomic<bool> busy_{false};
    const Body *body_ = nullptr;
    std::size_t items_ = 0;
    std::uint64_t round_ = 0;
    std::mutex error_mutex_;
    /** The round's lowest throwing item and its exception. */
    std::exception_ptr error_;
    std::size_t error_item_ = 0;
    /** What the workers read: round_ << 16 | its stamp count, ... */
    alignas(64) std::atomic<std::uint64_t> word_{0};
    /** ... its workers [0, helpers_), their order, ... */
    std::atomic<std::size_t> helpers_{0};
    std::atomic<bool> home_{false};
    std::atomic<bool> stopping_{false};
    /** ... and what they wait on, bumped per round. */
    std::atomic<std::uint32_t> epoch_{0};
    std::array<std::atomic<std::uint64_t>, kStamps> claims_{};
    /** Stamps of the round not run yet; the caller waits on it. */
    alignas(64) std::atomic<unsigned> remaining_{0};
    /** Last: the workers use every member above. */
    std::vector<std::thread> threads_;
};

Pool &
pool()
{
    static Pool p;
    return p;
}

} // namespace

unsigned
forEachItem(std::size_t n, unsigned cap, const Body &body)
{
    const std::size_t cpus = availableCpus();
    const auto threads =
        static_cast<unsigned>(std::min({n, cap ? cap : cpus, cpus}));
    if (threads > 1 && pool().begin(n, threads - 1, false, body)) {
        pool().finish(false);
        return threads;
    }
    std::exception_ptr first;
    for (std::size_t i = 0; i < n; ++i) {
        try {
            body(i);
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    if (first)
        std::rethrow_exception(first);
    return 1;
}

bool
startHomeRound(std::size_t n, const Body &body)
{
    return pool().begin(n, std::min<std::size_t>(n, availableCpus() - 1),
                        true, body);
}

void
finishHomeRound()
{
    pool().finish(true);
}

} // namespace pktbuf::sweep
