// Minimal stand-ins for the pktbuf declarations the fixture
// translation units exercise.  The checks match on *qualified names*
// (::pktbuf::Rng, ::pktbuf::StatRegistry, pktbuf::dram::StallCause),
// so these stubs mirror the real namespaces exactly while keeping
// fixture compiles hermetic -- no project headers, no system
// dependencies beyond <string>.

#ifndef PKTBUF_ANALYZER_FIXTURE_STUBS_HH
#define PKTBUF_ANALYZER_FIXTURE_STUBS_HH

#include <string>

namespace pktbuf
{

namespace ser
{
class Writer
{
  public:
    void u32(unsigned v);
    void u64(unsigned long long v);
    void real(double v);
};

class Reader
{
  public:
    unsigned u32();
    unsigned long long u64();
    double real();
};

class Io
{
  public:
    explicit Io(Writer &w);
    explicit Io(Reader &r);
    bool reading() const;
    void u64(unsigned long long &v);
    void real(double &v);
};

template <typename T> void save(Writer &w, const T &obj);
template <typename T> void load(Reader &r, T &obj);
} // namespace ser

class Rng
{
  public:
    explicit Rng(unsigned long long seed);
    unsigned long long next();
};

class Counter
{
  public:
    void inc(unsigned long long delta = 1);
};

class Sampler
{
  public:
    void sample(double v);
};

class HighWater
{
  public:
    void observe(long long v);
};

class StatRegistry
{
  public:
    Counter &counter(const std::string &name);
    Sampler &sampler(const std::string &name);
    HighWater &highWater(const std::string &name);
};

namespace sweep
{
unsigned long long deriveSeed(unsigned long long master,
                              unsigned long long index);
} // namespace sweep

namespace dram
{
enum class StallCause
{
    BankBusy,
    Refresh,
    Turnaround,
};
} // namespace dram

} // namespace pktbuf

#endif // PKTBUF_ANALYZER_FIXTURE_STUBS_HH
