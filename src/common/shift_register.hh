/**
 * @file
 * A fixed-depth shift register: the hardware structure behind the
 * MMA lookahead (Section 3) and the CFDS latency register
 * (Section 5.4).  Values enter at the tail, advance one position per
 * shift, and emerge at the head exactly `depth` shifts later.
 */

#ifndef PKTBUF_COMMON_SHIFT_REGISTER_HH
#define PKTBUF_COMMON_SHIFT_REGISTER_HH

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
        : idle_(idle), slots_(depth, idle)
    {
        panic_if(depth == 0, "ShiftRegister needs depth >= 1");
    }

    /** Push a value into the tail, return what falls off the head. */
    T
    shift(const T &incoming)
    {
        T out = slots_[head_];
        if (!(out == idle_))
            --live_;
        if (!(incoming == idle_))
            ++live_;
        slots_[head_] = incoming;
        if (++head_ == slots_.size())
            head_ = 0;
        return out;
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

    /** Number of non-idle entries currently held.  O(1): maintained
     *  incrementally on shift() -- the event engine polls this every
     *  slot to detect quiescence. */
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
        live_ = 0;
    }

    /**
     * Checkpoint: depth, head cursor and every stage, each through
     * the element's own fields(ser::Io &).
     *
     * Rotation-normalized: stages are written head-first with a
     * zero cursor, so two registers holding the same logical
     * contents serialize identically no matter how their storage is
     * rotated.  (The event engine's idle-slot skip freezes the
     * cursor while the reference engine rotates it every slot; the
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
        if (io.reading()) {
            live_ = 0;
            for (const auto &v : slots_)
                live_ += v == idle_ ? 0 : 1;
        }
    }

  private:
    T idle_;  // ser: config
    std::vector<T> slots_;
    std::size_t head_ = 0;
    /** Count of non-idle stages; rebuilt on restore. */
    std::size_t live_ = 0;  // ser: derived
};

} // namespace pktbuf

#endif // PKTBUF_COMMON_SHIFT_REGISTER_HH
