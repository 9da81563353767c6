/**
 * @file
 * google-benchmark microbenchmark of the DRAM Scheduler Algorithm:
 * wake-up/select cost of the Requests Register at the sizes Table 2
 * reports (8 .. 4096 entries).  This is the *simulator's* cost of
 * the operation; the hardware cost is modeled analytically in
 * model/issue_queue (Section 8.1).
 */

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "dss/request_register.hh"

using namespace pktbuf;
using namespace pktbuf::dss;

namespace
{

DramRequest
randomRequest(Rng &rng, unsigned banks)
{
    DramRequest r;
    r.kind = rng.chance(0.5) ? DramRequest::Kind::Read
                             : DramRequest::Kind::Write;
    r.physQueue = static_cast<QueueId>(rng.below(512));
    r.blockOrdinal = rng.below(1 << 20);
    r.bank = static_cast<unsigned>(rng.below(banks));
    return r;
}

void
BM_SelectOldestReady(benchmark::State &state)
{
    const auto entries = static_cast<std::size_t>(state.range(0));
    Rng rng(42);
    RequestRegister rr(0, true);
    for (std::size_t i = 0; i < entries; ++i)
        rr.push(randomRequest(rng, 256));

    // A quarter of the banks are locked, so the scan skips work.
    for (auto _ : state) {
        auto sel = rr.selectOldestReady(
            [](const DramRequest &r) -> std::optional<dram::StallCause> {
                if (r.bank % 4 == 0)
                    return dram::StallCause::BankBusy;
                return std::nullopt;
            });
        benchmark::DoNotOptimize(sel);
        if (sel)
            rr.push(*sel); // keep occupancy constant
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_PushCancel(benchmark::State &state)
{
    const auto entries = static_cast<std::size_t>(state.range(0));
    Rng rng(7);
    RequestRegister rr(0, true);
    for (std::size_t i = 0; i < entries; ++i)
        rr.push(randomRequest(rng, 256));
    for (auto _ : state) {
        auto req = randomRequest(rng, 256);
        rr.push(req);
        auto c = rr.cancel([&](const DramRequest &r) {
            return r.physQueue == req.physQueue &&
                   r.kind == req.kind;
        });
        benchmark::DoNotOptimize(c);
    }
    state.SetItemsProcessed(state.iterations());
}

} // namespace

BENCHMARK(BM_SelectOldestReady)->Arg(8)->Arg(64)->Arg(256)->Arg(1024)
    ->Arg(4096);
BENCHMARK(BM_PushCancel)->Arg(64)->Arg(1024);

BENCHMARK_MAIN();
