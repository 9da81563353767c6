/**
 * @file
 * Traffic-pattern vocabulary shared by the switch (src/switch) and
 * the crossbar (src/crossbar).  The switch reads a pattern over its
 * ports, the crossbar over its outputs (see crossbar_sim.hh); this
 * header only names the patterns.
 *
 * In the switch, a pattern decides how the aggregate offered load is
 * split across N ports and which per-port arrival process each port
 * runs:
 *
 *  - uniform:     every port offers the same Bernoulli load;
 *  - hotspot:     k "hot" ports absorb a configurable fraction of
 *                 the switch's total arrivals, the rest share the
 *                 remainder (output-hotspot congestion);
 *  - incast:      long on/off bursts converge on one victim port
 *                 while the other ports stay lightly loaded (the
 *                 classic datacenter incast shape);
 *  - permutation: each port's arrivals round-robin over a fixed
 *                 affinity stripe of its VOQs, the stripe offset
 *                 drawn from a seeded permutation (a fixed
 *                 crossbar-permutation's port -> queue map).
 *
 * Pattern resolution is pure arithmetic on (pattern, port, ports,
 * load, master seed): no global state, so any port's workload can be
 * rebuilt in isolation -- the property behind the switch layer's
 * port-order-independence guarantee.
 */

#ifndef PKTBUF_FABRIC_TRAFFIC_HH
#define PKTBUF_FABRIC_TRAFFIC_HH

#include <string>

namespace pktbuf::fabric
{

/** How a fabric's aggregate traffic is spread over its ports. */
enum class TrafficPattern
{
    Uniform,      //!< same Bernoulli load on every port
    Hotspot,      //!< k hot ports take hotFraction of all arrivals
    Incast,       //!< bursts converge on one victim port
    Permutation,  //!< fixed port -> queue-stripe affinity map
};

/** @return the lower-case token ("uniform", "hotspot", ...). */
std::string toString(TrafficPattern p);

/**
 * Parse a pattern token.
 * @param token one of "uniform", "hotspot", "incast", "permutation"
 * @param out   receives the pattern on success
 * @return false when the token names no pattern
 */
bool parseTrafficPattern(const std::string &token, TrafficPattern &out);

} // namespace pktbuf::fabric

#endif // PKTBUF_FABRIC_TRAFFIC_HH
