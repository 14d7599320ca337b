// The single wall-clock read in the DR-BW tree.  Everything else is stamped
// with the simulated cycle clock or a deterministic sequence number; this
// helper exists only for the explicit --timing=wall opt-in, whose output is
// marked non-golden.  The obs-wallclock line rule bans chrono clocks
// everywhere outside this file (benches excepted).
#include "drbw/obs/trace.hpp"

#include <chrono>

namespace drbw::obs {

std::uint64_t wall_now_micros() {
  // drbw-analyze: allow(obs-wallclock) sole wall-time source, kWall opt-in only
  using WallClock = std::chrono::steady_clock;
  static const WallClock::time_point origin = WallClock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(WallClock::now() -
                                                            origin)
          .count());
}

}  // namespace drbw::obs
