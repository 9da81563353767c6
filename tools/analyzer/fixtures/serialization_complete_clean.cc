// pktbuf-serialization-complete: clean fixture.

#include "pktbuf_stubs.hh"

namespace fixture
{

class Good
{
  public:
    void
    fields(pktbuf::ser::Io &io)
    {
        io.u64(a_);
        io.real(b_);
        if (io.reading())
            scratch_ = a_;
    }
    void save(pktbuf::ser::Writer &w) const { pktbuf::ser::save(w, *this); }
    void load(pktbuf::ser::Reader &r) { pktbuf::ser::load(r, *this); }

  private:
    unsigned long long a_ = 0;
    double b_ = 0.0;
    unsigned queues_ = 8;  // ser: config
    // ser: derived (rebuilt from a_ on restore)
    unsigned long long scratch_ = 0;
};

// The extraFields subclass pattern: the subclass hook lists the
// subclass state.
class Base
{
  public:
    void
    fields(pktbuf::ser::Io &io)
    {
        io.u64(a_);
        extraFields(io);
    }

  protected:
    virtual void
    extraFields(pktbuf::ser::Io &)
    {}

  private:
    unsigned long long a_ = 0;
};

class Sub : public Base
{
  protected:
    void
    extraFields(pktbuf::ser::Io &io) override
    {
        io.u64(cursor_);
    }

  private:
    unsigned long long cursor_ = 0;
};

// An out-of-line field list, complete.
class OutOfLine
{
  public:
    void fields(pktbuf::ser::Io &io);

  private:
    unsigned long long a_ = 0;
};

void
OutOfLine::fields(pktbuf::ser::Io &io)
{
    io.u64(a_);
}

// A class with no hooks at all is not serializable: no findings.
class Plain
{
  private:
    unsigned long long whatever_ = 0;
};

void
touch(Good &, Sub &, OutOfLine &, Plain &)
{}

} // namespace fixture
