/**
 * @file
 * Golden reference model: an ideal per-queue FIFO against which the
 * buffer's grants are checked cell by cell (identity, order, queue).
 */

#ifndef PKTBUF_SIM_GOLDEN_HH
#define PKTBUF_SIM_GOLDEN_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace pktbuf::sim
{

class GoldenChecker
{
  public:
    explicit GoldenChecker(unsigned queues)
        : expected_(queues, 0)
    {}

    /**
     * Verify one granted cell against the ideal FIFO of the logical
     * queue the grant was issued for.  Panics on any violation.
     */
    void
    onGrant(QueueId logical_queue, const Cell &cell)
    {
        panic_if(logical_queue >= expected_.size(),
                 "grant for unknown queue ", logical_queue);
        panic_if(cell.queue != logical_queue,
                 "grant delivered cell of queue ", cell.queue,
                 " for a request of queue ", logical_queue);
        panic_if(cell.seq != expected_[logical_queue],
                 "queue ", logical_queue, ": expected seq ",
                 expected_[logical_queue], ", got ", cell.seq,
                 " (reordering or loss)");
        Cell ideal;
        ideal.queue = logical_queue;
        ideal.seq = cell.seq;
        panic_if(cell.stamp() != ideal.stamp(),
                 "identity stamp mismatch on queue ", logical_queue);
        ++expected_[logical_queue];
        ++granted_;
    }

    std::uint64_t granted() const { return granted_; }

    /** Cells granted so far on one queue. */
    std::uint64_t served(QueueId q) const { return expected_[q]; }

    /** Checkpoint: per-queue expected sequence numbers + total. */
    void
    fields(ser::Io &io)
    {
        io.tag("GLDN");
        io.fixedCount(expected_.size(), "golden checker queues");
        for (auto &e : expected_)
            io.u64(e);
        io.u64(granted_);
    }

  private:
    std::vector<SeqNum> expected_;
    std::uint64_t granted_ = 0;
};

} // namespace pktbuf::sim

#endif // PKTBUF_SIM_GOLDEN_HH
