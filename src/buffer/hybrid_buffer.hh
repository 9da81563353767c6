/**
 * @file
 * The hybrid SRAM/DRAM VOQ buffer.  One class implements both
 * architectures of the paper:
 *
 *  - RADS (Section 3): b == B, a single serialized DRAM accessed
 *    once per direction every random access time; replenish requests
 *    launch the moment the MMA issues them.
 *
 *  - CFDS (Section 5): b < B, M banks in G groups with block-cyclic
 *    interleaving; requests pass through the DRAM Scheduler
 *    Subsystem (Requests Register + ORR + oldest-ready-first DSA)
 *    and grants are delayed by the latency register.  Optional queue
 *    renaming (Section 6) shares DRAM space across groups.
 *
 * The MMA subsystem is literally the same code in both modes, as the
 * paper requires (Section 5.2).
 */

#ifndef PKTBUF_BUFFER_HYBRID_BUFFER_HH
#define PKTBUF_BUFFER_HYBRID_BUFFER_HH

#include <memory>
#include <ostream>
#include <optional>
#include <vector>

#include "buffer/packet_buffer.hh"
#include "common/key_window.hh"
#include "common/shift_register.hh"
#include "common/stats.hh"
#include "dram/address_map.hh"
#include "dram/bank_state.hh"
#include "dram/dram_store.hh"
#include "dram/timing.hh"
#include "dss/dram_scheduler.hh"
#include "dss/ongoing_requests.hh"
#include "mma/ecqf.hh"
#include "mma/mdqf.hh"
#include "mma/tail_mma.hh"
#include "rename/renaming_table.hh"
#include "sram/head_sram.hh"
#include "sram/tail_sram.hh"

namespace pktbuf::buffer
{

class HybridBuffer
{
  public:
    explicit HybridBuffer(const BufferConfig &cfg);

    /**
     * Advance one time-slot.  Zero misses are guaranteed: a grant
     * the head SRAM cannot serve is a simulator panic, not a
     * statistic.
     *
     * @param arrival  cell arriving from the line this slot (if any)
     * @param request  logical queue the arbiter requests this slot
     *                 (kInvalidQueue for none)
     * @return the grant emerging from the pipeline this slot, if any
     */
    std::optional<GrantInfo>
    step(const std::optional<Cell> &arrival, QueueId request);

    /**
     * Run the slots from now() up to `to` that carry no stimulus,
     * for as long as they are *inert*: no read completes, nothing
     * leaves the lookahead or latency register, and the slot is not
     * an interval edge with work to do (a request in the RR, a
     * critical ECQF queue or a t-SRAM queue at the claim threshold).
     * An inert slot only rotates the two registers and advances the
     * clock, so the whole run is one O(1) jump.  step() takes the
     * same path for a stimulus-free slot.  Event engine with ECQF
     * only; the reference engine and MDQF never leap.
     *
     * @return whether now() reached `to`; when not, the slot at
     *         now() has internal work and must be step()ped
     */
    bool advanceIdle(Slot to);

    /**
     * Run the stimulus-free slots from now() toward `to`, leaping
     * over the inert ones, until a slot yields a grant.
     * @return that grant, or nullopt once now() == `to`
     */
    std::optional<GrantInfo> runIdle(Slot to);

    /** Would an arriving cell for `lq` be admitted right now? */
    bool wouldAdmit(QueueId lq) const;
    /**
     * Arrivals this buffer is sure to admit: wouldAdmit() holds for
     * every queue on each of the next admitHorizon() arrivals.  Only
     * an admission commits a group's space, so this is the smallest
     * free space of any group -- UINT64_MAX with unbounded DRAM, and
     * 0 with renaming on (its free list makes no such promise).
     */
    std::uint64_t admitHorizon() const;
    /** Slots elapsed. */
    Slot now() const { return now_; }
    BufferReport report() const;
    const BufferConfig &config() const { return cfg_; }

    /** Resolved lookahead depth (slots). */
    std::uint64_t lookaheadDepth() const { return look_.depth(); }
    /** Resolved latency register depth (slots, 0 for RADS). */
    std::uint64_t latencyDepth() const
    {
        return latency_ ? latency_->depth() : 0;
    }
    /** End-to-end request-to-grant pipeline depth (slots). */
    std::uint64_t
    pipelineDepth() const
    {
        return lookaheadDepth() + latencyDepth();
    }

    /**
     * When set, internal events (MMA selections, issues, bypasses,
     * launches, completions, grants) are logged one line per event.
     * Intended for debugging and for the worked-example tests.
     */
    std::ostream *trace = nullptr;  // ser: config

    /** Introspection hooks for white-box tests. */
    const dss::DramScheduler &scheduler() const { return *sched_; }
    const dram::DramStore &dramStore() const { return dram_; }
    const sram::HeadSram &headSram() const { return head_; }
    const sram::TailSram &tailSram() const { return tail_; }
    const rename::RenamingTable *renaming() const { return rt_.get(); }
    /** The resolved DDR timing policy. */
    const dram::DramTiming &timing() const { return *timing_; }
    /** Named statistics (per-cause DSA stalls live here). */
    const StatRegistry &stats() const { return stats_; }

    /**
     * Checkpoint the full mutable state (clock, SRAM/DRAM contents,
     * MMA counters, pipeline registers, DSS, renaming, statistics).
     * Configuration is not serialized: restore requires a buffer
     * constructed from the *same* BufferConfig, and a restore
     * validates the structural dimensions it can see.  Restoring a
     * saved state and stepping to slot N is bit-identical to an
     * unbroken run.
     */
    void fields(ser::Io &io);
    void save(ser::Writer &w) const { ser::save(w, *this); }
    void load(ser::Reader &r) { ser::load(r, *this); }

  private:
    /** What travels through the lookahead and latency registers. */
    struct PipeEntry
    {
        QueueId phys = kInvalidQueue;
        QueueId logical = kInvalidQueue;

        bool
        operator==(const PipeEntry &o) const
        {
            return phys == o.phys && logical == o.logical;
        }

        void
        fields(ser::Io &io)
        {
            io.u32(phys);
            io.u32(logical);
        }
    };

    static constexpr Slot kNoRead = UINT64_MAX;

    struct Completion
    {
        Slot at;
        QueueId phys;
        std::uint64_t replenishSeq;
        std::vector<Cell> cells;
    };

    /** step() without the inert-slot test. */
    std::optional<GrantInfo> stepSlot(const std::optional<Cell> &arrival,
                                      QueueId request);
    void admitArrival(const Cell &cell);
    void processCompletions(Slot now);
    void headMmaDecide(Slot now);
    void tailMmaDecide(Slot now);
    void issueReplenish(QueueId p, Slot now);
    /** @return cells moved to the head SRAM (always >= 1). */
    unsigned bypassReplenish(QueueId p);
    void dssTick(Slot now);
    void launchRead(const dss::DramRequest &req, Slot now);
    void launchWrite(const dss::DramRequest &req, Slot now);
    void recyclePhys(QueueId p);

    unsigned groupOf(QueueId p) const { return group_of_[p]; }
    std::uint64_t groupFree(unsigned g) const;
    bool hasRoom(unsigned g) const;

    /** ECQF-visible lookahead of a physical queue's pending reads. */
    bool
    replenishable(QueueId p) const
    {
        return dram_.hasBlock(p, next_read_issue_[p]) ||
               tail_.cellsOf(p) > 0;
    }

    BufferConfig cfg_;  // ser: config
    bool rads_;  // ser: config
    /** Event-calendar execution (BufferConfig::eventCore). */
    bool event_core_;  // ser: config
    /**
     * Leaping over inert slots (advanceIdle) is only sound when the
     * head MMA is lookahead-driven (ECQF): MDQF replenishes from
     * occupancy deficit alone and can act on slots with no pending
     * request.
     */
    bool event_skip_;  // ser: config
    unsigned phys_queues_;  // ser: config
    unsigned gran_;       //!< b [ser: config]
    unsigned gran_rads_;  //!< B (random access time in slots) [ser: config]
    Slot now_ = 0;

    dram::AddressMap map_;  // ser: config
    /** map_.groupOf() per physical queue: a load instead of a
     *  division on every arrival, admission check and DRAM access. */
    std::vector<unsigned> group_of_;  // ser: config
    /** Shared with the ORR; must be built before banks_ and orr_. */
    std::shared_ptr<const dram::DramTiming> timing_;  // ser: config
    dram::BankState banks_;
    dram::DramStore dram_;
    sram::TailSram tail_;
    sram::HeadSram head_;
    mma::EcqfMma hmma_;
    mma::MdqfMma mdqf_;
    mma::TailMma tmma_;

    ShiftRegister<PipeEntry> look_;
    std::unique_ptr<ShiftRegister<PipeEntry>> latency_;

    dss::OngoingRequests orr_;
    /** One combined RR for reads and writes, as in Figure 5. */
    std::unique_ptr<dss::DramScheduler> sched_;

    std::unique_ptr<rename::RenamingTable> rt_;

    std::vector<std::uint64_t> next_read_issue_;
    std::vector<std::uint64_t> next_write_issue_;
    std::vector<std::uint64_t> replenish_seq_;
    std::vector<std::uint64_t> pending_unlaunched_writes_;
    std::vector<std::uint64_t> committed_;
    std::uint64_t group_capacity_ = 0;  // ser: config

    /** In-flight DRAM reads, keyed by launch order. */
    KeyWindow<Completion> completions_;
    /** Earliest `at` among completions_ (kNoRead when none):
     *  processCompletions() has nothing to do before it.  Rebuilt
     *  on restore. */
    Slot next_due_ = kNoRead;  // ser: derived
    /** First slot >= now_ that opens a granularity interval (a
     *  multiple of b), kept so the per-slot path needs no division.
     *  Rebuilt on restore. */
    Slot next_interval_ = 0;  // ser: derived
    /** Block vectors the h-SRAM has emptied, refilled by the t-SRAM
     *  (see BlockSpares).  Pure storage: no state lives in it. */
    BlockSpares spare_blocks_;  // ser: derived

    StatRegistry stats_;
    Counter arrivals_;
    Counter grants_;
    Counter bypass_cells_;
    Counter dram_reads_;
    Counter dram_writes_;
};

} // namespace pktbuf::buffer

#endif // PKTBUF_BUFFER_HYBRID_BUFFER_HH
