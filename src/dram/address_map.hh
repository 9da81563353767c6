/**
 * @file
 * The CFDS memory-bank mapping of Figure 6: M banks are divided into
 * G groups of B/b banks.  A physical queue p lives in group
 * (p mod G) -- the group index comes from the low-order bits of the
 * queue field -- and its n-th b-cell block lives in bank
 * (n mod B/b) of that group (block-cyclic interleaving), so B/b
 * consecutive accesses to one queue touch distinct banks.
 */

#ifndef PKTBUF_DRAM_ADDRESS_MAP_HH
#define PKTBUF_DRAM_ADDRESS_MAP_HH

#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"

namespace pktbuf::dram
{

class AddressMap
{
  public:
    AddressMap(unsigned banks, unsigned banks_per_group)
        : banks_(banks), banks_per_group_(banks_per_group)
    {
        // Validate before dividing: groups_ = banks / 0 in the
        // initializer list would be UB before the panic fires.
        panic_if(banks_per_group == 0, "banks_per_group == 0");
        panic_if(banks % banks_per_group != 0,
                 "banks not a multiple of group size");
        groups_ = banks / banks_per_group;
    }

    unsigned banks() const { return banks_; }
    unsigned banksPerGroup() const { return banks_per_group_; }
    unsigned groups() const { return groups_; }

    /** Group holding physical queue p. */
    unsigned
    groupOf(QueueId p) const
    {
        return p % groups_;
    }

    /** Global bank index of block `ordinal` of physical queue p. */
    unsigned
    bankOf(QueueId p, std::uint64_t ordinal) const
    {
        return bankIn(groupOf(p), ordinal);
    }

    /** bankOf() for a queue whose group the caller already knows. */
    unsigned
    bankIn(unsigned group, std::uint64_t ordinal) const
    {
        return group * banks_per_group_ +
               static_cast<unsigned>(ordinal % banks_per_group_);
    }

  private:
    unsigned banks_;
    unsigned banks_per_group_;
    unsigned groups_ = 0;
};

} // namespace pktbuf::dram

#endif // PKTBUF_DRAM_ADDRESS_MAP_HH
