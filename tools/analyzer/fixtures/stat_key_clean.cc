// pktbuf-stat-key: clean fixture.

#include "pktbuf_stubs.hh"

void
registerOnce(pktbuf::StatRegistry &stats, const std::string &cause,
             const std::string &pre)
{
    // Namespaced literals, each registered at one site.
    stats.counter("dsa.stall.bank_busy");
    stats.sampler("dsa.queue_delay");
    stats.highWater("rr.occupancy");

    // Runtime-composed keys: literal fragments follow the charset.
    stats.counter(std::string("dsa.stall.") + cause);
    stats.sampler(pre + "arrivals");
}

void
sameSiteTwice(pktbuf::StatRegistry &stats)
{
    // The same *site* re-executed (loops, multiple calls) is not a
    // duplicate registration -- only distinct source sites are.
    for (int i = 0; i < 2; ++i)
        stats.counter("loop.reentries").inc();
}
