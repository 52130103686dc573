// The paper's four evaluation scenarios (Section 4.1).
//
// Each scenario is a complete physical-world description: WavePoint
// placement, walls and attenuation zones, the mobile's checkpointed path,
// channel tuning, and interfering users.  Geometry and parameters are
// chosen so the distilled traces have the shape and dynamic range of the
// paper's Figures 2-5:
//   Porter     - inter-building walk; variable signal, latency spikes,
//                loss mostly under 10%;
//   Flagstaff  - outdoor walk at the edge of coverage; low but steady
//                signal, good latency, the worst loss late in the path;
//   Wean       - office -> elevator -> classroom; catastrophic loss and a
//                latency peak during the elevator ride;
//   Chatterbox - stationary host in a room with five SynRGen users; high
//                signal but degraded latency/bandwidth from contention.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "wireless/channel.hpp"
#include "wireless/mobility.hpp"

namespace tracemod::scenarios {

struct Scenario {
  std::string name;
  std::vector<wireless::Wall> walls;
  std::vector<wireless::Zone> zones;
  std::vector<wireless::Vec2> wavepoint_positions;
  std::vector<wireless::MobilityModel::Waypoint> path;
  wireless::SignalConfig signal;
  wireless::ChannelConfig channel;
  int interferers = 0;  ///< SynRGen users on separate laptops
  /// How long a trace-collection traversal records (>= path duration).
  sim::Duration collection_duration{};

  wireless::MobilityModel mobility() const {
    return wireless::MobilityModel(path);
  }
};

Scenario porter();
Scenario flagstaff();
Scenario wean();
Scenario chatterbox();

/// All four, in the paper's order.
std::vector<Scenario> all_scenarios();

/// The scenario in `list` whose name matches `name` ignoring case, or
/// null ("porter" finds "Porter").
const Scenario* find_scenario(const std::vector<Scenario>& list,
                              std::string_view name);

}  // namespace tracemod::scenarios
