/**
 * @file
 * KeyWindow: values keyed by a dense run of u64 keys, stored flat.
 *
 * The buffer's per-slot structures are all indexed by counters that
 * advance by one: DRAM blocks by block ordinal, h-SRAM blocks by
 * replenish sequence, in-flight reads by launch order.  Live keys of
 * one structure sit in a short run [base, base + span), with holes
 * where an entry was taken out of order (the DSA reorders same-queue
 * reads; slow bank groups complete reads out of launch order).  A
 * ring of slots indexed by `key - base` serves every lookup, insert
 * and removal in O(1) without a node allocation.
 *
 * The window allocates nothing until its first insert and keeps its
 * capacity afterwards, so idle queues cost no memory and busy ones
 * stop allocating once they reach their working depth.  The span is
 * trimmed at both ends on removal, so it never holds a leading or
 * trailing hole.  Iteration is in ascending key order, which is the
 * order the node-based maps it replaces serialized in.
 */

#ifndef PKTBUF_COMMON_KEY_WINDOW_HH
#define PKTBUF_COMMON_KEY_WINDOW_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "logging.hh"
#include "serialize.hh"

namespace pktbuf
{

template <typename T>
class KeyWindow
{
  public:
    /** Values present. */
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** Lowest key the window covers (meaningful when non-empty). */
    std::uint64_t base() const { return base_; }
    /** Keys covered, holes included: base() .. base() + span() - 1. */
    std::uint64_t span() const { return span_; }

    /** The value at `key`, or null if absent. */
    const T *
    find(std::uint64_t key) const
    {
        if (key < base_ || key - base_ >= span_)
            return nullptr;
        const auto &s = slots_[(head_ + (key - base_)) & mask()];
        return s ? &*s : nullptr;
    }

    T *
    find(std::uint64_t key)
    {
        return const_cast<T *>(std::as_const(*this).find(key));
    }

    bool contains(std::uint64_t key) const { return find(key) != nullptr; }

    /**
     * Insert a value at an absent key; the key may lie below, inside
     * or above the current span.  The caller checks for duplicates
     * (each owner panics with its own message).
     */
    T &
    insert(std::uint64_t key, T value)
    {
        if (count_ == 0) {
            base_ = key;
            span_ = 0;
        }
        const std::uint64_t new_span = spanWith(key);
        reserve(new_span);
        if (key < base_) {
            head_ = (head_ - static_cast<std::size_t>(base_ - key)) &
                    mask();
            base_ = key;
        }
        span_ = new_span;
        ++count_;
        return slot(key - base_).emplace(std::move(value));
    }

    /**
     * Checkpoint restore of one of `count` saved values.  Saves walk
     * keys in ascending order, so a key that repeats or goes
     * backwards is corrupt input, and so is a gap stretching the span
     * past `count + kRestoreHoles`.  Both raise a FatalError rather
     * than sizing the ring from a raw u64.
     */
    T &
    restore(std::uint64_t key, T value, std::uint64_t count,
            const char *what)
    {
        fatal_if(count_ != 0 && key <= base_ + (span_ - 1),
                 "checkpoint: ", what, " key ", key,
                 " repeats or is out of order");
        fatal_if(spanWith(key) > count + kRestoreHoles, "checkpoint: ",
                 what, " key ", key, " leaves more than ",
                 kRestoreHoles, " holes among ", count, " keys");
        return insert(key, std::move(value));
    }

    /**
     * Checkpoint the `n` values (the owner's io.count() of size()) in
     * ascending key order; `elem(key, value)` lists one entry.  A
     * restore needs an empty window.  It reads each entry into a
     * value-initialized T, with the entry's index as its key -- an
     * owner that saves keys lists the key, which overwrites it --
     * and files it through restore().
     */
    template <typename Elem>
    void
    fields(ser::Io &io, std::uint64_t n, const char *what,
           const Elem &elem)
    {
        if (!io.reading()) {
            for (std::uint64_t i = 0; i < span_; ++i) {
                std::uint64_t key = base_ + i;
                if (auto &s = slot(i))
                    elem(key, *s);
            }
            return;
        }
        for (std::uint64_t i = 0; i < n; ++i) {
            std::uint64_t key = i;
            T value{};
            elem(key, value);
            restore(key, std::move(value), n, what);
        }
    }

    /** Insert after the highest key (a FIFO push). */
    T &
    pushBack(T value)
    {
        return insert(base_ + span_, std::move(value));
    }

    /** Remove and return the value at `key`, which must be present. */
    T
    take(std::uint64_t key)
    {
        auto &s = slot(key - base_);
        T out = std::move(*s);
        s.reset();
        --count_;
        while (span_ > 0 && !slot(0)) {
            head_ = (head_ + 1) & mask();
            ++base_;
            --span_;
        }
        while (span_ > 0 && !slot(span_ - 1))
            --span_;
        return out;
    }

    /** Visit (key, value) in ascending key order. */
    template <typename Fn>
    void
    forEach(const Fn &fn) const
    {
        for (std::uint64_t i = 0; i < span_; ++i) {
            const auto &s = slots_[(head_ + i) & mask()];
            if (s)
                fn(base_ + i, *s);
        }
    }

    /** Hand every value to `fn` by rvalue in ascending key order,
     *  then clear(). */
    template <typename Fn>
    void
    drain(const Fn &fn)
    {
        for (std::uint64_t i = 0; i < span_; ++i) {
            auto &s = slot(i);
            if (s)
                fn(std::move(*s));
        }
        clear();
    }

    /** Drop every value; the capacity is kept. */
    void
    clear()
    {
        for (auto &s : slots_)
            s.reset();
        count_ = 0;
        span_ = 0;
    }

    /** Holes restore() accepts.  A live run leaves a hole only where
     *  a younger entry of the same queue completed first, which the
     *  in-flight reads of one queue bound far below this. */
    static constexpr std::uint64_t kRestoreHoles = std::uint64_t{1} << 16;

  private:
    /** Largest span a window may grow to: far beyond any live run of
     *  keys, small enough that the doubling below cannot overflow. */
    static constexpr std::uint64_t kMaxSpan = std::uint64_t{1} << 32;

    /** Span the window would cover after inserting `key`. */
    std::uint64_t
    spanWith(std::uint64_t key) const
    {
        if (count_ == 0)
            return 1;
        if (key < base_)
            return span_ + (base_ - key);
        return key - base_ >= span_ ? key - base_ + 1 : span_;
    }

    std::size_t mask() const { return mask_; }

    std::optional<T> &
    slot(std::uint64_t off)
    {
        return slots_[(head_ + static_cast<std::size_t>(off)) & mask()];
    }

    /** Grow the ring (a power of two) to hold `n` keys, unwrapping
     *  the live span to the front of the new storage. */
    void
    reserve(std::uint64_t n)
    {
        if (n <= slots_.size())
            return;
        panic_if(n > kMaxSpan, "key window span of ", n,
                 " keys exceeds the ", kMaxSpan, "-key limit");
        std::size_t cap = slots_.empty() ? 4 : slots_.size();
        while (cap < n)
            cap *= 2;
        std::vector<std::optional<T>> grown(cap);
        for (std::uint64_t i = 0; i < span_; ++i)
            grown[i] = std::move(slot(i));
        slots_ = std::move(grown);
        mask_ = cap - 1;
        head_ = 0;
    }

    // The entries fields() lists are the window's state; restore()
    // rebuilds this ring layout from them.
    std::vector<std::optional<T>> slots_;  // ser: derived
    /** slots_.size() - 1, kept so that an index needs no size
     *  computation (sizeof(std::optional<T>) is rarely a power of
     *  two, so size() costs a multiply). */
    std::size_t mask_ = 0;  // ser: derived
    std::size_t head_ = 0;  //!< ring index of key base_ [ser: derived]
    std::uint64_t base_ = 0;  // ser: derived
    std::uint64_t span_ = 0;  // ser: derived
    std::size_t count_ = 0;  // ser: derived
};

} // namespace pktbuf

#endif // PKTBUF_COMMON_KEY_WINDOW_HH
