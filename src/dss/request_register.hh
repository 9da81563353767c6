/**
 * @file
 * The Requests Register (RR, Section 5.3 / 8.1): an age-ordered
 * window of MMA requests awaiting DRAM access, functionally
 * equivalent to an out-of-order issue queue with wake-up (bank not
 * locked) and select (oldest ready) stages plus compaction.  One
 * register holds both reads and writes (Figure 5); writes of the
 * same queue launch in order because the cells a write carries are
 * extracted from the tail SRAM FIFO at launch time.
 */

#ifndef PKTBUF_DSS_REQUEST_REGISTER_HH
#define PKTBUF_DSS_REQUEST_REGISTER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "dram/timing.hh"
#include "dss/request.hh"

namespace pktbuf::dss
{

class RequestRegister
{
  public:
    /**
     * @param capacity maximum entries (R); 0 = unbounded.
     * @param in_order_per_queue block younger entries of a queue
     *        behind older pending ones (write path).
     */
    explicit RequestRegister(std::size_t capacity,
                             bool in_order_per_queue = false)
        : capacity_(capacity), in_order_per_queue_(in_order_per_queue)
    {
        // Size both vectors for R up front: the per-slot path then
        // never grows them (an unbounded register still grows).
        entries_.reserve(capacity);
        passed_writes_.reserve(capacity);
    }

    /** Insert a new request at the tail (youngest). */
    void
    push(const DramRequest &req)
    {
        entries_.push_back(req);
        high_water_.observe(static_cast<std::int64_t>(entries_.size()));
        panic_if(capacity_ && entries_.size() > capacity_,
                 "Requests Register overflow: ", entries_.size(),
                 " > R = ", capacity_,
                 " -- Eq. (1) sizing violated");
    }

    /**
     * Select the *oldest* request the timing policy does not block,
     * remove it (compacting the register) and return it.  Every
     * older request passed over gains one skip; max skips are
     * tracked so tests can check Eq. (2).
     *
     * @param blocked         cause blocking this request now, or
     *                        nullopt.  A template parameter (not
     *                        std::function): this probe runs for
     *                        every entry on every DSA launch
     *                        opportunity and the indirect call was
     *                        measurable in the simulator's profile.
     * @param oldest_blocked  out: the cause blocking the *oldest*
     *                        timing-blocked entry (whose delay
     *                        dominates the latency budget).  A
     *                        write-after-write ordering hold
     *                        (in_order_per_queue) is head-of-line
     *                        blocking, not a timing stall, and is
     *                        never reported here.
     */
    template <typename BlockedFn>
    std::optional<DramRequest>
    selectOldestReady(
        const BlockedFn &blocked,
        std::optional<dram::StallCause> *oldest_blocked = nullptr)
    {
        passed_writes_.clear();
        auto &passed_write_queues = passed_writes_;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const bool is_write =
                entries_[i].kind == DramRequest::Kind::Write;
            const bool queue_blocked =
                in_order_per_queue_ && is_write &&
                contains(passed_write_queues, entries_[i].physQueue);
            std::optional<dram::StallCause> cause;
            if (!queue_blocked)
                cause = blocked(entries_[i]);
            if (queue_blocked || cause) {
                if (cause && oldest_blocked && !*oldest_blocked)
                    *oldest_blocked = cause;
                if (is_write)
                    passed_write_queues.push_back(
                        entries_[i].physQueue);
                continue;
            }
            DramRequest req = entries_[i];
            for (std::size_t j = 0; j < i; ++j) {
                ++entries_[j].skips;
                max_skips_.observe(entries_[j].skips);
            }
            entries_.erase(entries_.begin() +
                           static_cast<std::ptrdiff_t>(i));
            return req;
        }
        return std::nullopt;
    }

    /**
     * Squash one pending request matching `pred` (oldest first);
     * used when a pending write is cancelled in favor of an
     * SRAM-to-SRAM bypass.  Returns the squashed request.
     */
    template <typename Pred>
    std::optional<DramRequest>
    cancel(const Pred &pred)
    {
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (pred(entries_[i])) {
                DramRequest req = entries_[i];
                entries_.erase(entries_.begin() +
                               static_cast<std::ptrdiff_t>(i));
                return req;
            }
        }
        return std::nullopt;
    }

    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    std::size_t capacity() const { return capacity_; }
    std::int64_t highWater() const { return high_water_.max(); }
    std::int64_t maxSkips() const { return max_skips_.max(); }

    /** Oldest-first iteration for tests and introspection. */
    const std::vector<DramRequest> &entries() const { return entries_; }

    /** Checkpoint: pending requests oldest-first + watermarks. */
    void
    fields(ser::Io &io)
    {
        io.tag("RREG");
        const auto n = io.count(entries_.size(), DramRequest::kSavedBytes,
                                "Requests Register entries");
        entries_.resize(n);
        for (auto &e : entries_)
            e.fields(io);
        high_water_.fields(io);
        max_skips_.fields(io);
    }

  private:
    static bool
    contains(const std::vector<QueueId> &v, QueueId q)
    {
        for (const auto x : v)
            if (x == q)
                return true;
        return false;
    }

    std::size_t capacity_;  // ser: config
    bool in_order_per_queue_;  // ser: config
    /** Contiguous storage: the oldest-ready scan walks every
     *  entry on every DSA launch opportunity, and the vector's
     *  locality beat the deque's chunked layout in the profile
     *  (mid-erase compaction is small next to that). */
    std::vector<DramRequest> entries_;
    HighWater high_water_;
    HighWater max_skips_;
    /** Scratch for selectOldestReady (lives only within one call;
     *  a member so its allocation is reused across calls). */
    std::vector<QueueId> passed_writes_;  // ser: derived
};

} // namespace pktbuf::dss

#endif // PKTBUF_DSS_REQUEST_REGISTER_HH
