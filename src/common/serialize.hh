/**
 * @file
 * Byte-exact serialization primitives for the soak layer's
 * checkpoint/restore: a little-endian, fixed-width Writer/Reader
 * pair plus the FNV-1a fingerprint shared by the checkpoint header.
 *
 * The codec is deliberately dumb: every field is written explicitly,
 * in declaration order, with no padding, no varints and no implicit
 * defaults, so a checkpoint byte stream is a pure function of the
 * simulator state and two states serialize identically iff they are
 * identical.  Doubles travel as their IEEE-754 bit pattern
 * (bit_cast), never through text, so restore is bit-exact.
 *
 * Error model: a Reader that sees a short read, a bad section tag or
 * trailing bytes calls fatal() -- a malformed checkpoint is invalid
 * *input* (truncated file, version skew, bit rot), not a simulator
 * bug, and callers are expected to catch FatalError and reject the
 * checkpoint.
 *
 * Checkpointed classes list their persisted members once, in a
 * `void fields(Io &)` that an Io runs either way: over a Writer it
 * writes each listed member, over a Reader it assigns each one.  The
 * byte order is the listing order, so save and restore cannot drift
 * apart.  Load-side validation and rebuilds of derived state sit in
 * the same function behind io.reading().
 */

#ifndef PKTBUF_COMMON_SERIALIZE_HH
#define PKTBUF_COMMON_SERIALIZE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "logging.hh"

namespace pktbuf::ser
{

/** FNV-1a offset basis (64-bit). */
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
/** FNV-1a prime (64-bit). */
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** Incremental FNV-1a over a byte range. */
inline std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h = kFnvOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** FNV-1a of a string (config fingerprints hash describe() text). */
inline std::uint64_t
fnv1a(std::string_view s)
{
    return fnv1a(s.data(), s.size());
}

/** Appends little-endian fixed-width fields to a byte buffer. */
class Writer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    void
    b(bool v)
    {
        u8(v ? 1 : 0);
    }

    /** IEEE-754 bit pattern -- restore is bit-exact. */
    void
    real(double v)
    {
        u64(std::bit_cast<std::uint64_t>(v));
    }

    /** Length-prefixed byte string. */
    void
    str(std::string_view s)
    {
        u64(s.size());
        buf_.append(s.data(), s.size());
    }

    /**
     * Section tag: a 4-character marker the Reader re-validates, so
     * a producer/consumer field-order mismatch fails at the section
     * boundary with a readable name instead of decoding garbage.
     */
    void
    tag(const char (&name)[5])
    {
        buf_.append(name, 4);
    }

    const std::string &bytes() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/** Consumes a byte buffer written by Writer; fatal() on malformed
 *  input (short read, tag mismatch, trailing bytes). */
class Reader
{
  public:
    explicit Reader(std::string_view bytes) : buf_(bytes) {}

    std::uint8_t
    u8()
    {
        need(1);
        return static_cast<std::uint8_t>(buf_[pos_++]);
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(buf_[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(buf_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }

    std::int64_t
    i64()
    {
        return static_cast<std::int64_t>(u64());
    }

    bool
    b()
    {
        const auto v = u8();
        fatal_if(v > 1, "checkpoint: bool field holds ", unsigned(v));
        return v != 0;
    }

    double
    real()
    {
        return std::bit_cast<double>(u64());
    }

    std::string
    str()
    {
        const auto n = u64();
        need(n);
        std::string s(buf_.substr(pos_, n));
        pos_ += n;
        return s;
    }

    void
    tag(const char (&name)[5])
    {
        need(4);
        fatal_if(buf_.compare(pos_, 4, name, 4) != 0,
                 "checkpoint: expected section '", name, "' at byte ",
                 pos_, ", found '", buf_.substr(pos_, 4), "'");
        pos_ += 4;
    }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return buf_.size() - pos_; }

    /** Assert the stream was consumed exactly. */
    void
    done() const
    {
        fatal_if(remaining() != 0, "checkpoint: ", remaining(),
                 " trailing bytes after the last section");
    }

  private:
    void
    need(std::size_t n)
    {
        fatal_if(buf_.size() - pos_ < n,
                 "checkpoint: short read at byte ", pos_, " (need ",
                 n, ", have ", buf_.size() - pos_, ")");
    }

    std::string_view buf_;
    std::size_t pos_ = 0;
};

/**
 * One field list, run in either direction: over a Writer each call
 * writes its argument, over a Reader it assigns it.  Members are
 * passed by reference in both modes; writing leaves them unchanged.
 */
class Io
{
  public:
    explicit Io(Writer &w) : w_(&w) {}
    explicit Io(Reader &r) : r_(&r) {}

    /** Restoring: load-side checks and rebuilds run only then. */
    bool reading() const { return r_ != nullptr; }

    void u8(std::uint8_t &v) { field(v, &Reader::u8, &Writer::u8); }
    void u32(std::uint32_t &v) { field(v, &Reader::u32, &Writer::u32); }
    void u64(std::uint64_t &v) { field(v, &Reader::u64, &Writer::u64); }
    void i64(std::int64_t &v) { field(v, &Reader::i64, &Writer::i64); }
    void b(bool &v) { field(v, &Reader::b, &Writer::b); }
    void real(double &v) { field(v, &Reader::real, &Writer::real); }

    void
    str(std::string &s)
    {
        if (r_)
            s = r_->str();
        else
            w_->str(s);
    }

    void
    tag(const char (&name)[5])
    {
        if (r_)
            r_->tag(name);
        else
            w_->tag(name);
    }

    /**
     * A count that must equal a configured size (queues, banks,
     * groups): written as `configured`; a checkpoint holding another
     * value is a FatalError naming `what`.
     */
    void
    fixedCount(std::uint64_t configured, const char *what)
    {
        std::uint64_t n = configured;
        u64(n);
        fatal_if(n != configured, "checkpoint: ", n, " ", what,
                 ", configured ", configured);
    }

    /**
     * The length of a variable list whose entries take at least
     * `item_bytes` each: written as `n`.  Restoring returns the saved
     * length, after checking that the bytes left can hold that many
     * entries, so no allocation is ever sized from a corrupt u64.
     */
    std::uint64_t
    count(std::uint64_t n, std::uint64_t item_bytes, const char *what)
    {
        u64(n);
        fatal_if(r_ && n > r_->remaining() / item_bytes,
                 "checkpoint: ", n, " ", what, " claimed with ",
                 r_->remaining(), " bytes left");
        return n;
    }

  private:
    template <typename T>
    void
    field(T &v, T (Reader::*get)(), void (Writer::*put)(T))
    {
        if (r_)
            v = (r_->*get)();
        else
            (w_->*put)(v);
    }

    Writer *w_ = nullptr;
    Reader *r_ = nullptr;
};

/** save() of a class with fields(Io &): writing through the field
 *  list leaves the object unchanged, so the const may go. */
template <typename T>
void
save(Writer &w, const T &obj)
{
    Io io(w);
    const_cast<T &>(obj).fields(io);
}

/** load() of a class with fields(Io &). */
template <typename T>
void
load(Reader &r, T &obj)
{
    Io io(r);
    obj.fields(io);
}

} // namespace pktbuf::ser

#endif // PKTBUF_COMMON_SERIALIZE_HH
