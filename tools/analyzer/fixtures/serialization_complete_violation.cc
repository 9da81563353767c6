// pktbuf-serialization-complete: violating fixture.

#include "pktbuf_stubs.hh"

namespace fixture
{

// A member added without updating the field list.
class Drifty
{
  public:
    void
    fields(pktbuf::ser::Io &io)
    {
        io.u64(a_);
    }

  private:
    unsigned long long a_ = 0;
    unsigned long long forgotten_ = 0;
};

// Named only by a restore-side rebuild: its bytes are never written.
class RebuiltOnly
{
  public:
    void
    fields(pktbuf::ser::Io &io)
    {
        io.u64(a_);
        if (io.reading())
            b_ = 0;
    }

  private:
    unsigned long long a_ = 0;
    unsigned long long b_ = 0;
};

// Two hand-kept lists: the pair the one-list design replaces.
class TwoLists
{
  public:
    void
    save(pktbuf::ser::Writer &w) const
    {
        w.u64(a_);
    }
    void
    load(pktbuf::ser::Reader &r)
    {
        a_ = r.u64();
    }

  private:
    unsigned long long a_ = 0;
};

// Subclass of a checkpointed base with state of its own but no
// extraFields hook: the base cannot list cursor_.
class Base
{
  public:
    void
    fields(pktbuf::ser::Io &io)
    {
        io.u64(a_);
    }

  private:
    unsigned long long a_ = 0;
};

class Sub : public Base
{
  private:
    unsigned long long cursor_ = 0;
};

// An out-of-line field list (the hybrid_buffer.cc pattern): the check
// must see through it in the TU that defines it.
class OutOfLine
{
  public:
    void fields(pktbuf::ser::Io &io);

  private:
    unsigned long long a_ = 0;
    unsigned long long skipped_ = 0;
};

void
OutOfLine::fields(pktbuf::ser::Io &io)
{
    io.u64(a_);
}

void
touch(Drifty &, RebuiltOnly &, TwoLists &, Sub &, OutOfLine &)
{}

} // namespace fixture
