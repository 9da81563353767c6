#include "checkpoint.hh"

#include <exception>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace pktbuf::soak
{

std::string
sealCheckpoint(const std::string &payload,
               std::uint64_t config_fingerprint)
{
    ser::Writer w;
    w.tag("PKCK");
    w.u32(kCheckpointVersion);
    w.u64(config_fingerprint);
    w.str(payload);
    w.u64(ser::fnv1a(payload));
    return w.take();
}

std::string
openCheckpoint(const std::string &bytes,
               std::uint64_t config_fingerprint)
{
    ser::Reader r(bytes);
    r.tag("PKCK");
    const auto version = r.u32();
    fatal_if(version != kCheckpointVersion, "checkpoint: version ",
             version, " not supported (this build reads ",
             kCheckpointVersion, ")");
    const auto fp = r.u64();
    fatal_if(fp != config_fingerprint,
             "checkpoint: built for a different configuration "
             "(fingerprint ", fp, ", this leg is ",
             config_fingerprint, ")");
    std::string payload = r.str();
    const auto sum = r.u64();
    fatal_if(sum != ser::fnv1a(payload),
             "checkpoint: payload checksum mismatch (corrupt file?)");
    r.done();
    return payload;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    fatal_if(!f, "cannot open ", path, " for writing");
    f.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size()));
    f.flush();
    fatal_if(!f, "short write to ", path);
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    fatal_if(!f, "cannot open ", path);
    std::ostringstream os;
    os << f.rdbuf();
    fatal_if(f.bad(), "read error on ", path);
    return os.str();
}

ScenarioRun::ScenarioRun(const sim::Scenario &s, WorkloadFactory factory)
    : s_(s),
      wl_(factory ? factory() : sim::makeWorkload(s)),
      buf_(std::make_unique<buffer::HybridBuffer>(s.bufferConfig())),
      runner_(std::make_unique<sim::SimRunner>(*buf_, *wl_,
                                               /*check=*/true))
{}

void
ScenarioRun::runTo(std::uint64_t slot)
{
    fatal_if(slot < executed_,
             "scenario run cannot run backwards to slot ", slot,
             " (already at ", executed_, ")");
    fatal_if(slot > s_.slots, "slot ", slot,
             " beyond the leg's main phase (", s_.slots, " slots)");
    runner_->run(slot - executed_);
    executed_ = slot;
}

std::string
ScenarioRun::checkpoint() const
{
    ser::Writer w;
    ser::save(w, *this);
    return sealCheckpoint(w.bytes(), ser::fnv1a(s_.describe()));
}

void
ScenarioRun::restore(const std::string &bytes)
{
    const std::string payload =
        openCheckpoint(bytes, ser::fnv1a(s_.describe()));
    ser::Reader r(payload);
    ser::load(r, *this);
    r.done();
}

void
ScenarioRun::fields(ser::Io &io)
{
    io.tag("SOAK");
    io.u64(executed_);
    fatal_if(io.reading() && executed_ > s_.slots,
             "checkpoint: executed slot count ", executed_,
             " beyond the leg's ", s_.slots, " slots");
    buf_->fields(io);
    wl_->fields(io);
    runner_->fields(io);
}

sim::ScenarioOutcome
ScenarioRun::finish()
{
    sim::ScenarioOutcome out;
    std::ostringstream why;
    try {
        out.run = runner_->run(s_.slots - executed_);
        executed_ = s_.slots;
        // Steady-state drain delivers ~1 cell/slot; the budget leaves
        // generous slack for pipeline refill and bank conflicts.
        const std::uint64_t budget = 8 * wl_->totalCredit() +
                                     16 * buf_->pipelineDepth() +
                                     64ull * s_.granRads + 4096;
        out.drained = runner_->drain(budget);
        out.verified = runner_->checker().granted();
        out.report = buf_->report();
        out.undelivered = wl_->totalCredit();

        if (out.verified != out.run.grants + out.drained) {
            why << "golden checker saw " << out.verified
                << " grants, runner counted "
                << out.run.grants + out.drained << "; ";
        }
        if (out.undelivered != 0) {
            why << out.undelivered
                << " cells arrived but were never granted; ";
        }
        if (out.verified != out.run.arrivals) {
            why << "delivered " << out.verified << " of "
                << out.run.arrivals << " admitted arrivals; ";
        }
        // A leg offered no cell has nothing to deliver; one whose
        // every arrival was dropped has failed.
        if (out.verified == 0 && (out.run.arrivals || out.run.drops))
            why << "leg delivered no cells at all; ";
    } catch (const std::exception &e) {
        why << "exception: " << e.what() << "; ";
    }
    out.failure = why.str();
    out.passed = out.failure.empty();
    // Always name the scenario and seed so the leg can be replayed
    // from the log alone.
    if (!out.passed)
        out.failure += "[" + s_.describe() + "]";
    return out;
}

sim::ScenarioOutcome
runScenario(const sim::Scenario &s, WorkloadFactory factory)
{
    return runCheckpointed<ScenarioRun>(s, 0, factory);
}

} // namespace pktbuf::soak
