#include "traffic.hh"

namespace pktbuf::fabric
{

std::string
toString(TrafficPattern p)
{
    switch (p) {
      case TrafficPattern::Uniform:
        return "uniform";
      case TrafficPattern::Hotspot:
        return "hotspot";
      case TrafficPattern::Incast:
        return "incast";
      case TrafficPattern::Permutation:
        return "permutation";
    }
    return "?";
}

bool
parseTrafficPattern(const std::string &token, TrafficPattern &out)
{
    if (token == "uniform") {
        out = TrafficPattern::Uniform;
    } else if (token == "hotspot") {
        out = TrafficPattern::Hotspot;
    } else if (token == "incast") {
        out = TrafficPattern::Incast;
    } else if (token == "permutation") {
        out = TrafficPattern::Permutation;
    } else {
        return false;
    }
    return true;
}

} // namespace pktbuf::fabric
