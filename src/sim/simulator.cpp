#include "sim/simulator.hpp"

namespace arrowdq {

// Instantiate both slot widths here once; consumers link against these
// instead of re-instantiating the template per translation unit.
template class BasicSimulator<48>;  // Simulator
template class BasicSimulator<16>;  // CompactSimulator

}  // namespace arrowdq
