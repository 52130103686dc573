#include "scenarios/scenario.hpp"

#include <algorithm>
#include <cctype>

namespace tracemod::scenarios {

using wireless::MobilityModel;
using wireless::Vec2;
using wireless::Wall;
using wireless::Zone;

namespace {
MobilityModel::Waypoint wp(const char* label, double x, double y,
                           double speed = 1.4, sim::Duration pause = {}) {
  return MobilityModel::Waypoint{label, Vec2{x, y}, speed, pause};
}
}  // namespace

Scenario porter() {
  Scenario s;
  s.name = "Porter";
  // Wean Hall lobby (x < 40), outdoor patio (40..105), Porter Hall (x > 105)
  // with two interior walls deepening the building.
  s.walls = {
      Wall{{40, -15}, {40, 25}, 8.0},    // Wean exterior
      Wall{{105, -15}, {105, 25}, 8.0},  // Porter exterior
      Wall{{125, -15}, {125, 25}, 3.0},  // Porter interior
      Wall{{150, -15}, {150, 25}, 3.0},  // Porter interior, deeper
  };
  s.wavepoint_positions = {{20, 10}, {72, -10}, {112, 8}};
  s.path = {
      wp("x0", 5, 0, 1.4, sim::seconds(10)),  // Wean main lobby
      wp("x1", 45, 0),                        // exit onto the patio
      wp("x2", 65, 0),
      wp("x3", 90, 0),                        // patio end
      wp("x4", 110, 0),                       // Porter entrance
      wp("x5", 140, 0),
      wp("x6", 165, 0, 1.4, sim::seconds(10)),
  };
  s.signal.shadow_sigma_db = 2.5;  // busy indoor/outdoor boundary
  s.channel.slot = sim::microseconds(600);
  // Co-channel interference bursts: correlated errors that survive the
  // link-layer retries, producing Porter's occasional loss and the
  // retry-driven latency spikes of Figure 2.
  s.channel.burst_extra_err = 0.45;
  s.channel.burst_mean_on = sim::milliseconds(500);
  s.channel.burst_mean_off = sim::seconds(8);
  // WavePoint handoffs at the building boundaries: the driver defers
  // frames for the outage, releasing them in a burst afterwards.
  s.channel.handoff_outage = sim::milliseconds(200);
  s.collection_duration = MobilityModel(s.path).duration() + sim::seconds(10);
  return s;
}

Scenario flagstaff() {
  Scenario s;
  s.name = "Flagstaff";
  // Entirely outdoors in Schenley Park; WavePoints are inside buildings
  // along the north edge (one exterior wall in every path).
  s.walls = {
      Wall{{-20, 5}, {260, 5}, 5.0},
  };
  s.wavepoint_positions = {{20, 10}, {105, 12}, {190, 15}, {270, 18}};
  s.path = {
      wp("y0", 0, 0, 1.4, sim::seconds(5)),  // leaving Porter Hall
      wp("y1", 45, -12),
      wp("y2", 85, -15),
      wp("y3", 125, -15),
      wp("y4", 165, -18),
      wp("y5", 205, -22),  // Schenley Park edge done; around Flagstaff Hill
      wp("y6", 235, -35),
      wp("y7", 255, -45),
      wp("y8", 280, -58),
      wp("y9", 295, -64, 1.4, sim::seconds(5)),
  };
  s.signal.shadow_sigma_db = 1.2;  // open terrain: steadier shadowing
  // Outdoors: clean, uncontended channel at the edge of range.  Fewer
  // link-layer retries give up fast -- latency stays low while loss
  // climbs; the clean channel sustains a slightly better byte rate.
  s.channel.max_retries = 2;
  s.channel.slot = sim::microseconds(400);
  s.channel.effective_rate_bps = 2.0e6;
  s.collection_duration = MobilityModel(s.path).duration() + sim::seconds(10);
  return s;
}

Scenario wean() {
  Scenario s;
  s.name = "Wean";
  // Office with known-poor connectivity, a hallway, the elevator (a deep
  // attenuation zone), and the walk to the classroom near a second
  // WavePoint ("three floors up" collapses to the second WavePoint's cell).
  s.walls = {
      Wall{{10, 4}, {50, 4}, 4.0},  // hallway wall shielding the WavePoint
  };
  s.zones = {
      Zone{{0, 0}, 6.0, 6.0},      // the office
      Zone{{55, 0}, 3.5, 13.0},    // the elevator shaft
  };
  s.wavepoint_positions = {{30, 8}, {95, 8}};
  s.path = {
      wp("z0", 0, 0, 1.4, sim::seconds(15)),   // graduate student office
      wp("z1", 15, 0),
      wp("z2", 30, 0),
      wp("z3", 44, 0, 1.4, sim::seconds(35)),  // waiting for the elevator
      wp("z4", 55, 0, 1.4, sim::seconds(30)),  // riding three floors
      wp("z5", 62, 0),                         // stepping out
      wp("z6", 80, 0),
      wp("z7", 100, 0, 1.4, sim::seconds(10)), // the classroom
  };
  s.signal.shadow_sigma_db = 2.0;
  // Deep in the shaft the MAC fights hard before giving up: long retry
  // ladders produce the ~350 ms latency peak of Figure 4.
  s.channel.max_retries = 5;
  s.channel.max_backoff_exp = 8;
  s.channel.slot = sim::microseconds(700);
  s.collection_duration = MobilityModel(s.path).duration() + sim::seconds(10);
  return s;
}

Scenario chatterbox() {
  Scenario s;
  s.name = "Chatterbox";
  // A conference room: strong signal, no motion, five other laptops
  // hammering NFS through the same cell.
  s.wavepoint_positions = {{8, 9}};
  s.path = {wp("s0", 0, 0, 1.0, sim::seconds(300))};
  s.signal.shadow_sigma_db = 1.5;
  s.interferers = 5;
  s.collection_duration = sim::seconds(300);
  return s;
}

std::vector<Scenario> all_scenarios() {
  return {porter(), flagstaff(), wean(), chatterbox()};
}

const Scenario* find_scenario(const std::vector<Scenario>& list,
                              std::string_view name) {
  for (const Scenario& s : list) {
    if (s.name.size() == name.size() &&
        std::equal(s.name.begin(), s.name.end(), name.begin(),
                   [](char a, char b) {
                     return std::tolower(static_cast<unsigned char>(a)) ==
                            std::tolower(static_cast<unsigned char>(b));
                   })) {
      return &s;
    }
  }
  return nullptr;
}

}  // namespace tracemod::scenarios
