/**
 * @file
 * The command line the two fabric CLIs (switch_sim, crossbar_sim)
 * share: strict flag values and the flags both accept,
 *
 *   --ports --pattern --variant --load --slots --seed --hot-fraction
 *   --victim --burst --engine --smoke --list --json --csv
 *
 * Every malformed value -- empty, signed where the field is unsigned,
 * trailing characters, out of range for the field -- prints the
 * offending flag and the usage text and exits 2.  The number parser
 * itself, parseNumber(), also serves the dimensioning explorer.
 */

#ifndef PKTBUF_EXAMPLES_FABRIC_CLI_HH
#define PKTBUF_EXAMPLES_FABRIC_CLI_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

#include "sim/scenario.hh"
#include "fabric/traffic.hh"

namespace pktbuf::cli
{

/** Slot budget of a --smoke run that sets no --slots. */
inline constexpr std::uint64_t kSmokeSlots = 4000;

/**
 * Parse the whole of `tok` as a T.  An unsigned T takes digits only
 * (decimal, 0x hex or 0 octal, as strtoull base 0 reads them) and
 * must fit in T; a floating-point T must be finite.
 * @return false, leaving `out` alone, when `tok` is malformed
 */
template <typename T>
bool
parseNumber(const char *tok, T &out)
{
    char *end = nullptr;
    errno = 0;
    if constexpr (std::is_floating_point_v<T>) {
        const double v = std::strtod(tok, &end);
        const auto first = static_cast<unsigned char>(*tok);
        if (first == '\0' || std::isspace(first) || *end != '\0' ||
            errno == ERANGE || !std::isfinite(v))
            return false;
        out = static_cast<T>(v);
    } else {
        static_assert(std::is_unsigned_v<T>);
        // strtoull skips blanks and negates a '-': a value may do
        // neither.
        if (!std::isdigit(static_cast<unsigned char>(*tok)))
            return false;
        const unsigned long long v = std::strtoull(tok, &end, 0);
        if (*end != '\0' || errno == ERANGE ||
            v > std::numeric_limits<T>::max())
            return false;
        out = static_cast<T>(v);
    }
    return true;
}

/** Print "<prog>: invalid value '<tok>' for <what>", the usage text,
 *  and exit 2. */
[[noreturn]] inline void
rejectValue(const char *prog, const char *tok, const char *what,
            void (*usage)(const char *))
{
    std::fprintf(stderr, "%s: invalid value '%s' for %s\n", prog, tok,
                 what);
    usage(prog);
    std::exit(2);
}

/** A cursor over argv; a malformed flag ends in usage and exit 2. */
class Args
{
  public:
    Args(int argc, char **argv, void (*usage)(const char *))
        : argc_(argc), argv_(argv), usage_(usage)
    {}

    /** Advance to the next flag; false past the last one. */
    bool next() { return ++i_ < argc_; }

    /** Whether the current flag is `flag`. */
    bool
    is(const char *flag) const
    {
        return !std::strcmp(argv_[i_], flag);
    }

    /** The current flag's value: the argument after it. */
    const char *
    value()
    {
        if (i_ + 1 >= argc_)
            fail();
        return argv_[++i_];
    }

    /** The current flag's value as a T (see parseNumber()). */
    template <typename T>
    T
    number()
    {
        const char *flag = argv_[i_];
        const char *tok = value();
        T v{};
        if (!parseNumber(tok, v))
            rejectValue(argv_[0], tok, flag, usage_);
        return v;
    }

    /** Print the usage text and exit 2. */
    [[noreturn]] void
    fail() const
    {
        usage_(argv_[0]);
        std::exit(2);
    }

  private:
    int argc_;
    char **argv_;
    void (*usage_)(const char *);
    int i_ = 0;
};

/** @return false when `tok` names no single-buffer variant. */
inline bool
parseVariant(const std::string &tok, sim::BufferVariant &out)
{
    if (tok == "rads") {
        out = sim::BufferVariant::Rads;
    } else if (tok == "cfds") {
        out = sim::BufferVariant::Cfds;
    } else if (tok == "renaming") {
        out = sim::BufferVariant::CfdsRenaming;
    } else {
        return false;
    }
    return true;
}

/** What the shared flags set outside the fabric config. */
struct Flags
{
    bool smoke = false;
    bool list = false;
    std::string jsonPath;
    std::string csvPath;
};

/**
 * Parse argv into `cfg` and the returned Flags.  A flag the shared
 * set does not know goes to `extra(args)`, which parses it and
 * returns true, or returns false for an unknown flag (usage, exit
 * 2).  --variant also takes "mixed" when Config has mixedVariants.
 * --smoke without --slots runs kSmokeSlots.
 */
template <typename Config, typename Extra>
Flags
parseFlags(int argc, char **argv, void (*usage)(const char *),
           Config &cfg, Extra extra)
{
    Flags f;
    bool have_slots = false;
    Args a(argc, argv, usage);
    while (a.next()) {
        if (a.is("--ports")) {
            cfg.ports = a.number<unsigned>();
        } else if (a.is("--pattern")) {
            if (!fabric::parseTrafficPattern(a.value(), cfg.pattern))
                a.fail();
        } else if (a.is("--variant")) {
            const std::string tok = a.value();
            if constexpr (requires { cfg.mixedVariants; }) {
                if (tok == "mixed") {
                    cfg.mixedVariants = true;
                    continue;
                }
            }
            if (!parseVariant(tok, cfg.variant))
                a.fail();
        } else if (a.is("--load")) {
            cfg.load = a.number<double>();
        } else if (a.is("--slots")) {
            cfg.slots = a.number<std::uint64_t>();
            have_slots = true;
        } else if (a.is("--seed")) {
            cfg.masterSeed = a.number<std::uint64_t>();
        } else if (a.is("--hot-fraction")) {
            cfg.hotFraction = a.number<double>();
        } else if (a.is("--victim")) {
            cfg.incastVictim = a.number<unsigned>();
        } else if (a.is("--burst")) {
            cfg.incastBurst = a.number<std::uint64_t>();
        } else if (a.is("--engine")) {
            const std::string tok = a.value();
            if (tok == "event")
                cfg.eventEngine = true;
            else if (tok != "reference")
                a.fail();
        } else if (a.is("--smoke")) {
            f.smoke = true;
        } else if (a.is("--list")) {
            f.list = true;
        } else if (a.is("--json")) {
            f.jsonPath = a.value();
        } else if (a.is("--csv")) {
            f.csvPath = a.value();
        } else if (!extra(a)) {
            a.fail();
        }
    }
    if (f.smoke && !have_slots)
        cfg.slots = kSmokeSlots;
    return f;
}

} // namespace pktbuf::cli

#endif // PKTBUF_EXAMPLES_FABRIC_CLI_HH
