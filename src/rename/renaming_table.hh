/**
 * @file
 * Queue renaming (Section 6): each *logical* queue (the name the
 * switch scheduler uses) is backed by a chain of *physical* queues
 * (the names the MMA/DSS/DRAM machinery uses), recorded in a
 * circular renaming register of (phys queue, counters) elements.
 *
 * Cells are assigned to the tail physical queue on arrival; when the
 * tail's bank group runs out of DRAM space a fresh physical queue is
 * allocated, so one logical queue can occupy the whole DRAM.
 * Scheduler requests drain the head physical queue; a fully drained
 * element retires and its physical queue returns to the free pool.
 *
 * Allocation is bandwidth-aware: a group's banks sustain roughly one
 * access per slot, and the only chain elements consuming that
 * bandwidth are heads (DRAM reads) and tails (DRAM writes).  Picking
 * the group with the most free *space* is actively harmful -- the
 * group a hot head is draining is exactly the one gaining free cells,
 * so tails would chase the reads into an already saturated group and
 * the combined demand (up to ~2 cells/slot for one full-rate logical
 * queue) would exceed what the group can serve, stalling replenish
 * reads until the h-SRAM misses.  Instead the allocator picks the
 * group hosting the fewest chain heads/tails, breaking ties toward
 * the most free space.  (A single *logical* queue still collides
 * with itself -- its chain's sole element is head and tail at once
 * -- which no allocation policy can split; the buffer hides that
 * phase with extra replenish lookahead instead, see
 * concentrationLookaheadSlack in hybrid_buffer.cc.)
 *
 * Physical queues are oversubscribed (P >= Q logical) so every
 * active logical queue always has at least one.
 */

#ifndef PKTBUF_RENAME_RENAMING_TABLE_HH
#define PKTBUF_RENAME_RENAMING_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace pktbuf::rename
{

/**
 * Allocates nothing once warm: the chains and free pools are rings,
 * retired queues go to a callback, and the admission calls take the
 * group-space query (`group_free(g)`: the free DRAM cells of group g,
 * committed space off) as a template parameter.
 */
class RenamingTable
{
  public:
    /**
     * @param logical_queues Q: names the scheduler uses
     * @param phys_queues    P >= Q: names the machinery uses
     * @param groups         bank groups; phys queue p belongs to
     *                       group (p mod groups)
     */
    RenamingTable(unsigned logical_queues, unsigned phys_queues,
                  unsigned groups)
        : phys_queues_(phys_queues), groups_(groups),
          regs_(logical_queues), free_pool_(groups)
    {
        fatal_if(phys_queues < logical_queues,
                 "physical queues (", phys_queues,
                 ") must be oversubscribed beyond logical queues (",
                 logical_queues, ")");
        fatal_if(groups == 0, "no groups");
        for (QueueId p = 0; p < phys_queues; ++p)
            free_pool_[p % groups].pushBack(p);
    }

    /** Side-effect-free admission check for one cell of `lq`. */
    template <typename GroupFree>
    bool
    canAssign(QueueId lq, const GroupFree &group_free) const
    {
        const auto &reg = regs_[lq];
        if (!reg.elems.empty() &&
            group_free(groupOf(reg.elems.back().phys)) >= 1) {
            return true;
        }
        return pickGroup(group_free) >= 0;
    }

    /**
     * Assign an arriving cell of `lq` to a physical queue,
     * allocating a new one if the current tail's group is out of
     * DRAM space.  Panics if admission (canAssign) would have
     * failed -- callers must check first.
     */
    template <typename GroupFree>
    QueueId
    assignArrival(QueueId lq, const GroupFree &group_free)
    {
        auto &reg = r(lq);
        const bool tail_ok =
            !reg.elems.empty() &&
            group_free(groupOf(reg.elems.back().phys)) >= 1;
        if (!tail_ok) {
            const int g = pickGroup(group_free);
            panic_if(g < 0, "assignArrival without admission check");
            Element e;
            e.phys = free_pool_[static_cast<unsigned>(g)].front();
            free_pool_[static_cast<unsigned>(g)].popFront();
            reg.elems.pushBack(e);
            if (reg.elems.size() > 1)
                renames_.inc();
        }
        ++reg.elems.back().assigned;
        return reg.elems.back().phys;
    }

    /** Translate one scheduler request for `lq` (FIFO order). */
    QueueId
    translateRequest(QueueId lq)
    {
        auto &reg = r(lq);
        panic_if(reg.elems.empty(),
                 "request for logical queue ", lq,
                 " with no physical queue");
        while (reg.req_idx + 1 < reg.elems.size() &&
               reg.elems[reg.req_idx].requested ==
                   reg.elems[reg.req_idx].assigned) {
            ++reg.req_idx;
        }
        auto &e = reg.elems[reg.req_idx];
        panic_if(e.requested >= e.assigned,
                 "request overruns arrivals on logical queue ", lq);
        ++e.requested;
        return e.phys;
    }

    /**
     * A cell of `lq` was granted.  Grants follow request order, so
     * the cell belongs to the first element with an outstanding
     * request (a fully drained head element can linger when it was
     * the sole element at its last grant and a successor was
     * allocated afterwards).  Hands every physical queue retired by
     * this grant to `recycled(p)`, oldest first.
     */
    template <typename RecycledFn>
    void
    onGrant(QueueId lq, const RecycledFn &recycled)
    {
        auto &reg = r(lq);
        panic_if(reg.elems.empty(), "grant with no elements");
        std::size_t gi = 0;
        while (gi < reg.elems.size() &&
               reg.elems[gi].granted == reg.elems[gi].requested) {
            ++gi;
        }
        panic_if(gi == reg.elems.size(),
                 "grant without outstanding request on logical"
                 " queue ", lq);
        ++reg.elems[gi].granted;
        // Retire every head element that nothing can reference any
        // more: not the tail (no future arrivals) and every assigned
        // cell requested and granted.
        while (reg.elems.size() > 1) {
            const auto &f = reg.elems.front();
            if (f.requested != f.assigned || f.granted != f.assigned)
                break;
            const QueueId p = f.phys;
            free_pool_[groupOf(p)].pushBack(p);
            recycles_.inc();
            reg.elems.popFront();
            // req_idx advances lazily at translate time; if it still
            // pointed at the retired head it now points at index 0.
            if (reg.req_idx > 0)
                --reg.req_idx;
            recycled(p);
        }
    }

    /** Physical queues currently backing `lq` (register length). */
    std::size_t
    chainLength(QueueId lq) const
    {
        return regs_[lq].elems.size();
    }

    /** Current tail physical queue of `lq` (for introspection). */
    QueueId
    tailPhys(QueueId lq) const
    {
        const auto &reg = regs_[lq];
        return reg.elems.empty() ? kInvalidQueue
                                 : reg.elems.back().phys;
    }

    unsigned groupOf(QueueId p) const { return p % groups_; }

    /** Cross-group reallocations performed. */
    std::uint64_t renames() const { return renames_.value(); }
    /** Physical queues returned to the free pool. */
    std::uint64_t recycles() const { return recycles_.value(); }

    std::size_t
    freePhysCount() const
    {
        std::size_t n = 0;
        for (const auto &pool : free_pool_)
            n += pool.size();
        return n;
    }

    /**
     * Checkpoint: every register chain and the per-group free pools
     * (order matters -- allocation pops the front).  A restore
     * rejects a physical name that is out of range, sits in the free
     * pool of another group, or appears twice across the chains and
     * pools: the buffer indexes its per-queue state by these names.
     */
    void
    fields(ser::Io &io)
    {
        io.tag("RNTB");
        io.fixedCount(regs_.size(), "renaming logical queues");
        std::vector<bool> seen(io.reading() ? phys_queues_ : 0);
        const auto name = [&](QueueId &p) {
            io.u32(p);
            if (!io.reading())
                return;
            fatal_if(p >= phys_queues_, "checkpoint: physical queue ",
                     p, " out of range (", phys_queues_, " configured)");
            fatal_if(seen[p], "checkpoint: physical queue ", p,
                     " named twice in the renaming table");
            seen[p] = true;
        };
        constexpr std::uint64_t elem_bytes = 4 + 8 + 8 + 8;
        for (auto &reg : regs_) {
            io.u64(reg.req_idx);
            const auto ne =
                io.count(reg.elems.size(), elem_bytes, "chain elements");
            reg.elems.resize(ne);
            for (std::size_t i = 0; i < ne; ++i) {
                auto &e = reg.elems[i];
                name(e.phys);
                io.u64(e.assigned);
                io.u64(e.requested);
                io.u64(e.granted);
            }
            fatal_if(io.reading() && reg.req_idx > 0 &&
                         reg.req_idx >= reg.elems.size(),
                     "checkpoint: renaming request cursor ",
                     reg.req_idx, " past its chain");
        }
        io.fixedCount(free_pool_.size(), "free pools");
        for (unsigned g = 0; g < free_pool_.size(); ++g) {
            auto &pool = free_pool_[g];
            pool.resize(io.count(pool.size(), 4, "free physical queues"));
            for (std::size_t i = 0; i < pool.size(); ++i) {
                auto &p = pool[i];
                name(p);
                fatal_if(io.reading() && groupOf(p) != g,
                         "checkpoint: physical queue ", p,
                         " in the free pool of group ", g);
            }
        }
        renames_.fields(io);
        recycles_.fields(io);
    }

    void save(ser::Writer &w) const { ser::save(w, *this); }
    void load(ser::Reader &r) { ser::load(r, *this); }

  private:
    struct Element
    {
        QueueId phys = kInvalidQueue;
        std::uint64_t assigned = 0;   //!< cells routed here
        std::uint64_t requested = 0;  //!< scheduler requests seen
        std::uint64_t granted = 0;    //!< cells delivered
    };

    struct Register
    {
        Ring<Element> elems;
        std::size_t req_idx = 0;
    };

    Register &
    r(QueueId lq)
    {
        panic_if(lq >= regs_.size(), "logical queue ", lq,
                 " out of range");
        return regs_[lq];
    }

    /**
     * Bank-bandwidth demand proxy per group, into load_: +1 for every
     * register's head element (replenish reads drain it) and +1 for
     * every tail element (arrival writes fill it).  A single-element
     * chain adds 2 to its group -- it carries that queue's reads and
     * writes.  Dormant middle elements cost no bandwidth and are not
     * counted.
     */
    const std::vector<unsigned> &
    groupLoads() const
    {
        load_.assign(groups_, 0);
        for (const auto &reg : regs_) {
            if (reg.elems.empty())
                continue;
            ++load_[groupOf(reg.elems.front().phys)];
            ++load_[groupOf(reg.elems.back().phys)];
        }
        return load_;
    }

    /**
     * Allocation target: the group with a free physical name and
     * room for at least one cell that hosts the fewest active chain
     * heads/tails, ties broken toward the most free space; -1 when
     * no group qualifies.
     */
    template <typename GroupFree>
    int
    pickGroup(const GroupFree &group_free) const
    {
        const auto &load = groupLoads();
        int best = -1;
        unsigned best_load = 0;
        std::uint64_t best_free = 0;
        for (unsigned g = 0; g < groups_; ++g) {
            if (free_pool_[g].empty())
                continue;
            const auto fr = group_free(g);
            if (fr < 1)
                continue;
            if (best < 0 || load[g] < best_load ||
                (load[g] == best_load && fr > best_free)) {
                best = static_cast<int>(g);
                best_load = load[g];
                best_free = fr;
            }
        }
        return best;
    }

    unsigned phys_queues_;  // ser: config
    unsigned groups_;  // ser: config
    std::vector<Register> regs_;
    std::vector<Ring<QueueId>> free_pool_;
    Counter renames_;
    Counter recycles_;
    /** groupLoads() output, kept so that pickGroup() allocates
     *  nothing. */
    mutable std::vector<unsigned> load_;  // ser: derived
};

} // namespace pktbuf::rename

#endif // PKTBUF_RENAME_RENAMING_TABLE_HH
