/**
 * @file
 * A fixed-depth shift register: the hardware structure behind the
 * MMA lookahead (Section 3) and the CFDS latency register
 * (Section 5.4).  Values enter at the tail, advance one position per
 * shift, and emerge at the head exactly `depth` shifts later.
 *
 * The register also knows, in O(1), how many upcoming shifts will
 * emerge idle (idleShifts()), and can perform that many at once
 * (advance()) -- what lets the event engine leap over slots whose
 * pipeline exits are empty.
 */

#ifndef PKTBUF_COMMON_SHIFT_REGISTER_HH
#define PKTBUF_COMMON_SHIFT_REGISTER_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "logging.hh"
#include "serialize.hh"

namespace pktbuf
{

template <typename T>
class ShiftRegister
{
  public:
    /** @param depth number of stages; @param idle the empty value. */
    ShiftRegister(std::size_t depth, T idle)
        : idle_(idle), slots_(depth, idle),
          exits_(std::bit_ceil(depth + 1))
    {
        panic_if(depth == 0, "ShiftRegister needs depth >= 1");
        panic_if(depth > UINT32_MAX, "ShiftRegister depth ", depth,
                 " beyond the 32-bit exit counts");
    }

    /** Push a value into the tail, return what falls off the head. */
    T
    shift(const T &incoming)
    {
        T out = slots_[head_];
        const bool leaves = !(out == idle_);
        const bool enters = !(incoming == idle_);
        // Branch-free: the ring always has a free cell after the live
        // entries, so the store is harmless when `incoming` is idle.
        const std::size_t mask = exits_.size() - 1;
        exit_head_ = (exit_head_ + leaves) & mask;
        live_ -= leaves;
        exits_[(exit_head_ + live_) & mask] =
            shifts_ + static_cast<std::uint32_t>(slots_.size());
        live_ += enters;
        slots_[head_] = incoming;
        if (++head_ == slots_.size())
            head_ = 0;
        ++shifts_;
        return out;
    }

    /**
     * Shifts that will emerge idle before the oldest live entry
     * does, given idle input: 0 when the next shift() returns a live
     * entry, UINT64_MAX when the register holds none.  O(1).
     */
    std::uint64_t
    idleShifts() const
    {
        return live_ ? static_cast<std::uint32_t>(exits_[exit_head_] -
                                                  shifts_)
                     : UINT64_MAX;
    }

    /**
     * Perform `n` idle shifts at once; every one of them must emerge
     * idle (n <= idleShifts()).  O(1) and division-free: a register
     * with a live entry rotates by less than its depth, and an empty
     * one looks the same at any rotation, so it is not rotated.
     */
    void
    advance(std::uint64_t n)
    {
        panic_if(n > idleShifts(), "advance(", n, ") would drop a live"
                 " entry ", idleShifts(), " shifts ahead");
        shifts_ += static_cast<std::uint32_t>(n);
        if (live_ == 0)
            return;
        head_ += static_cast<std::size_t>(n);
        if (head_ >= slots_.size())
            head_ -= slots_.size();
    }

    /** Value that will emerge after `ahead` more shifts (0 = next). */
    const T &
    peek(std::size_t ahead = 0) const
    {
        panic_if(ahead >= slots_.size(), "peek beyond register depth");
        return slots_[(head_ + ahead) % slots_.size()];
    }

    std::size_t depth() const { return slots_.size(); }

    /**
     * Visit every stage from head (next to emerge) to tail in two
     * linear segments -- the modulo-free fast path for the per-slot
     * ECQF scan, which walks the whole register every granularity
     * interval.
     */
    template <typename Visitor>
    void
    forEachFromHead(Visitor &&visit) const
    {
        for (std::size_t i = head_; i < slots_.size(); ++i)
            visit(slots_[i]);
        for (std::size_t i = 0; i < head_; ++i)
            visit(slots_[i]);
    }

    /** Number of non-idle entries currently held.  O(1). */
    std::size_t
    occupancy() const
    {
        return live_;
    }

    /** Reset all stages to the idle value. */
    void
    clear()
    {
        for (auto &v : slots_)
            v = idle_;
        head_ = 0;
        rebuildExits();
    }

    /**
     * Checkpoint: depth, head cursor and every stage, each through
     * the element's own fields(ser::Io &).
     *
     * Rotation-normalized: stages are written head-first with a
     * zero cursor, so two registers holding the same logical
     * contents serialize identically no matter how their storage is
     * rotated.  (advance() leaves an empty register's cursor where
     * it is while the reference engine rotates it every slot; the
     * two must still checkpoint byte-for-byte equal.)  Behavior is
     * rotation-invariant, so loading the normalized form is
     * indistinguishable from the original.
     */
    void
    fields(ser::Io &io)
    {
        io.fixedCount(slots_.size(), "shift register stages");
        std::uint64_t head = 0;
        io.u64(head);
        if (io.reading()) {
            fatal_if(head >= slots_.size(),
                     "checkpoint: shift register head out of range");
            head_ = static_cast<std::size_t>(head);
        }
        for (std::size_t i = 0; i < slots_.size(); ++i)
            slots_[(head_ + i) % slots_.size()].fields(io);
        if (io.reading())
            rebuildExits();
    }

  private:
    /** Re-derive the live count and the exit ring from the stages:
     *  the entry i stages from the head emerges on shift i. */
    void
    rebuildExits()
    {
        shifts_ = 0;
        live_ = 0;
        exit_head_ = 0;
        std::uint32_t i = 0;
        forEachFromHead([&](const T &v) {
            if (!(v == idle_))
                exits_[live_++] = i;
            ++i;
        });
    }

    T idle_;  // ser: config
    std::vector<T> slots_;
    std::size_t head_ = 0;
    /** Count of non-idle stages; rebuilt on restore. */
    std::size_t live_ = 0;  // ser: derived
    /** Shifts made since construction or the last restore, modulo
     *  2^32: only differences below the depth are ever taken. */
    std::uint32_t shifts_ = 0;  // ser: derived
    /** Ring of the live entries' exit shifts (the shifts_ value of
     *  the shift that returns each), oldest at exit_head_.  Its
     *  power-of-two size exceeds the depth, so a cell past the live
     *  entries is always free. */
    std::vector<std::uint32_t> exits_;  // ser: derived
    std::size_t exit_head_ = 0;  // ser: derived
};

} // namespace pktbuf

#endif // PKTBUF_COMMON_SHIFT_REGISTER_HH
