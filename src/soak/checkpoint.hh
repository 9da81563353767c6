/**
 * @file
 * Soak layer: deterministic checkpoint/restore of a full simulation
 * leg, for long runs that must survive interruption and for
 * replaying failures from the slot they were saved at.
 *
 * The envelope is a versioned binary format:
 *
 *   "PKCK"            4-byte magic tag
 *   version           u32 (currently 2)
 *   config fingerprint u64 -- FNV-1a of Scenario::describe(), so a
 *                     checkpoint can only be restored into the same
 *                     leg (same grid, seed, slots, timing)
 *   payload           length-prefixed bytes (every layer's fields())
 *   checksum          u64 -- FNV-1a of the payload bytes
 *
 * Any mismatch -- wrong magic, unknown version, foreign fingerprint,
 * short read, corrupt checksum, trailing bytes -- raises FatalError:
 * a malformed checkpoint is invalid input, not a simulator bug.
 *
 * The invariant the layer guarantees (and tests/test_soak.cc
 * enforces leg by leg): run-to-k + save + restore-into-fresh-objects
 * + run-to-N is bit-identical to an unbroken N-slot run -- same
 * statistics, same golden-checker totals, same emitted record bytes.
 */

#ifndef PKTBUF_SOAK_CHECKPOINT_HH
#define PKTBUF_SOAK_CHECKPOINT_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "buffer/hybrid_buffer.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/workload.hh"

namespace pktbuf::soak
{

/** Current envelope version; bumped on any layout change.  Version 2
 *  dropped the (always empty) quantile section from every
 *  StatRegistry block. */
inline constexpr std::uint32_t kCheckpointVersion = 2;

/**
 * Wrap a serialized payload in the versioned envelope.
 * @param payload the concatenated fields() bytes of every layer
 * @param config_fingerprint FNV-1a of the owning leg's describe()
 * @return the envelope bytes, ready for writeFile()
 */
std::string sealCheckpoint(const std::string &payload,
                           std::uint64_t config_fingerprint);

/**
 * Validate an envelope and extract its payload.  FatalError on any
 * corruption or configuration mismatch (see file comment).
 */
std::string openCheckpoint(const std::string &bytes,
                           std::uint64_t config_fingerprint);

/** Write bytes to a file (binary, truncating); FatalError on I/O. */
void writeFile(const std::string &path, const std::string &bytes);

/** Read a whole file (binary); FatalError if unreadable. */
std::string readFile(const std::string &path);

/**
 * Builds the workload for a leg.  The default (empty) factory uses
 * sim::makeWorkload(scenario); the switch layer injects
 * makePortWorkload so port legs run through the same driver.
 */
using WorkloadFactory =
    std::function<std::unique_ptr<sim::Workload>()>;

/**
 * One scenario leg -- the only code that builds, runs, drains and
 * golden-verifies a sim::Scenario.  The workload is built first,
 * then the buffer and the runner; the main phase is split so the
 * caller can stop at any slot, snapshot, and continue -- in this
 * process or another.  Every leg runs through it: the matrix legs
 * and switch ports via runScenario(), the crossbar's inputs directly.
 *
 * Usage:
 *   ScenarioRun a(s);
 *   a.runTo(k);
 *   auto bytes = a.checkpoint();
 *   ...
 *   ScenarioRun b(s);          // fresh objects, same config
 *   b.restore(bytes);
 *   auto out = b.finish();     // == runScenario(s) bit for bit
 */
class ScenarioRun
{
  public:
    /**
     * Build the leg's buffer/workload/runner from its configuration.
     * @param s the leg; also the source of the config fingerprint
     * @param factory optional workload factory (see WorkloadFactory)
     */
    explicit ScenarioRun(const sim::Scenario &s,
                         WorkloadFactory factory = {});

    /** Advance the main phase to absolute slot `slot` (<= s.slots). */
    void runTo(std::uint64_t slot);

    /** Main-phase slots executed so far. */
    std::uint64_t executed() const { return executed_; }

    /** Snapshot the full state into a sealed envelope. */
    std::string checkpoint() const;

    /**
     * Replace this run's state with a checkpoint's.  The envelope
     * must carry this leg's fingerprint; FatalError otherwise.
     */
    void restore(const std::string &bytes);

    /** The payload checkpoint() seals: slot cursor, buffer,
     *  workload, runner. */
    void fields(ser::Io &io);

    /**
     * Run the remaining main-phase slots, drain every credited cell
     * and verify the golden totals.  Never throws: a broken
     * invariant or an exception fails the outcome, whose message
     * names the leg and its seed.  A leg offered no cell at all (no
     * arrival, no drop) passes.
     */
    sim::ScenarioOutcome finish();

    const buffer::HybridBuffer &buffer() const { return *buf_; }
    const sim::Workload &workload() const { return *wl_; }

  private:
    /** Also the source of the config fingerprint, hashed only when
     *  a checkpoint is sealed or opened: a leg that never
     *  checkpoints never formats describe(). */
    sim::Scenario s_;  // ser: config
    std::unique_ptr<sim::Workload> wl_;
    std::unique_ptr<buffer::HybridBuffer> buf_;
    std::unique_ptr<sim::SimRunner> runner_;
    std::uint64_t executed_ = 0;
};

/**
 * Run a checkpointable run end to end -- a ScenarioRun leg, or a
 * whole xbar::CrossbarRun fabric -- checkpointing every `every`
 * main-phase slots and restoring each snapshot into a completely
 * fresh Run before continuing: the soak self-test.  With `every` == 0
 * (or >= cfg.slots) this is a plain run.  Never throws; an exception
 * becomes a failed outcome carrying cfg.describe() (and so the seed).
 *
 * @tparam Run a run built from `cfg` and `args` with runTo(),
 *         checkpoint(), restore() and finish()
 * @param args further constructor arguments (a ScenarioRun's
 *        WorkloadFactory), passed to every fresh Run
 */
template <typename Run, typename Config, typename... Args>
auto
runCheckpointed(const Config &cfg, std::uint64_t every,
                const Args &...args)
{
    using Outcome = decltype(std::declval<Run &>().finish());
    try {
        auto run = std::make_unique<Run>(cfg, args...);
        if (every > 0) {
            for (std::uint64_t at = every; at < cfg.slots; at += every) {
                run->runTo(at);
                const std::string bytes = run->checkpoint();
                // Restore into entirely fresh objects: the same
                // rebuild a cross-process resume performs.
                run = std::make_unique<Run>(cfg, args...);
                run->restore(bytes);
            }
        }
        return run->finish();
    } catch (const std::exception &e) {
        Outcome out;
        out.failure = std::string("exception: ") + e.what() + "; [" +
                      cfg.describe() + "]";
        return out;
    }
}

/**
 * Run one leg end to end: the unbroken case of runCheckpointed().
 * Legs are self-contained (own buffer, workload, RNG), so any number
 * of them may run concurrently.
 * @param s the leg to run
 * @param factory optional workload factory (see WorkloadFactory)
 * @return the outcome; `passed` is false iff any invariant broke,
 *         with `failure` carrying Scenario::describe() and the seed
 */
sim::ScenarioOutcome runScenario(const sim::Scenario &s,
                                 WorkloadFactory factory = {});

} // namespace pktbuf::soak

#endif // PKTBUF_SOAK_CHECKPOINT_HH
