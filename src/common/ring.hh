/**
 * @file
 * Ring: a FIFO stored flat in a power-of-two ring.
 *
 * It grows by doubling and never shrinks, so a queue that has reached
 * its working depth stops allocating; a std::deque instead allocates
 * and frees a node block as its front and back cross block borders.
 * Element i counts from the front (0) to the back (size() - 1), the
 * order a deque iterates in, so an owner that checkpoints by index
 * writes the bytes it wrote for the deque.
 */

#ifndef PKTBUF_COMMON_RING_HH
#define PKTBUF_COMMON_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace pktbuf
{

template <typename T>
class Ring
{
  public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &operator[](std::size_t i) { return slots_[(head_ + i) & mask()]; }
    const T &
    operator[](std::size_t i) const
    {
        return slots_[(head_ + i) & mask()];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    void
    pushBack(T value)
    {
        if (size_ == slots_.size())
            grow();
        (*this)[size_++] = std::move(value);
    }

    /** Drop the front element; the ring must not be empty. */
    void
    popFront()
    {
        head_ = (head_ + 1) & mask();
        --size_;
    }

    /** Keep the first `n` elements, or append value-initialized ones
     *  up to `n` (a checkpoint restore then overwrites each). */
    void
    resize(std::size_t n)
    {
        while (size_ < n)
            pushBack(T{});
        size_ = n;
    }

  private:
    std::size_t mask() const { return slots_.size() - 1; }

    /** Double the ring, unwrapping the elements to the front. */
    void
    grow()
    {
        std::vector<T> grown(slots_.empty() ? 4 : 2 * slots_.size());
        for (std::size_t i = 0; i < size_; ++i)
            grown[i] = std::move((*this)[i]);
        slots_ = std::move(grown);
        head_ = 0;
    }

    std::vector<T> slots_;  //!< power-of-two size, or empty
    std::size_t head_ = 0;  //!< slot of the front element
    std::size_t size_ = 0;
};

} // namespace pktbuf

#endif // PKTBUF_COMMON_RING_HH
