// Pinned association behaviour: literal digests recorded on the code before
// the association poll became incremental, so any drift in handoff,
// association, traffic or timing shows up as a changed number.
//   - CampusWorld at 400 hosts x 10 s, seeds 1 and 42, sharded (serial and
//     four scan threads) and flat (cell_size 0);
//   - a direct WirelessChannel roaming fixture at handoff hysteresis 0 dB
//     (and the default 4 dB, and a negative -2 dB), flat and sharded, with
//     mobiles that leave coverage, so every branch of the association rule
//     runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/ethernet.hpp"
#include "scenarios/campus.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"
#include "wireless/mobility.hpp"
#include "wireless/wavelan_device.hpp"
#include "wireless/wavepoint.hpp"

namespace tracemod::scenarios {
namespace {

struct CampusPin {
  std::uint64_t seed;
  unsigned threads;
  double cell_size_m;
  std::uint64_t digest;
};

TEST(AssociationPins, CampusDigestsMatchTheRecordedValues) {
  const CampusPin pins[] = {
      {1, 0, 130.0, 0xa4c3bb3e179ede2bULL},
      {1, 4, 130.0, 0xa4c3bb3e179ede2bULL},
      {42, 0, 130.0, 0xc6421b622c9f1653ULL},
      {42, 4, 130.0, 0xc6421b622c9f1653ULL},
      {1, 0, 0.0, 0xa4c3bb3e179ede2bULL},
      {42, 0, 0.0, 0xc6421b622c9f1653ULL},
  };
  for (const CampusPin& pin : pins) {
    CampusConfig cfg;
    cfg.hosts = 400;
    cfg.horizon = sim::seconds(10);
    cfg.seed = pin.seed;
    cfg.threads = pin.threads;
    cfg.cell_size_m = pin.cell_size_m;
    const CampusResult r = run_campus(cfg);
    SCOPED_TRACE("seed " + std::to_string(pin.seed) + " threads " +
                 std::to_string(pin.threads) + " cell " +
                 std::to_string(pin.cell_size_m));
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.digest, pin.digest) << std::hex << "0x" << r.digest;
  }
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A 3x3 WavePoint grid 100 m apart, and 24 random-waypoint walkers in a
/// box reaching 250 m past it (beyond association range, about 184 m), each
/// sending a small uplink frame every 500 ms.
struct RoamingWorld {
  sim::EventLoop loop;
  wireless::WirelessChannel channel;
  std::vector<std::unique_ptr<net::EthernetSegment>> backbones;
  std::vector<std::unique_ptr<wireless::WavePoint>> wavepoints;
  std::vector<wireless::MobilityModel> paths;
  std::vector<std::unique_ptr<wireless::WaveLanDevice>> radios;

  static wireless::ChannelConfig make_cfg(double hysteresis_db,
                                          double cell_size) {
    wireless::ChannelConfig cfg;
    cfg.handoff_hysteresis_db = hysteresis_db;
    cfg.spatial.cell_size = cell_size;
    cfg.spatial.radio_range_m = 190.0;
    return cfg;
  }

  RoamingWorld(double hysteresis_db, double cell_size)
      : channel(loop,
                wireless::SignalModel(wireless::SignalConfig{}, {}, {},
                                      sim::Rng(5)),
                make_cfg(hysteresis_db, cell_size), sim::Rng(6)) {
    for (int j = 0; j < 3; ++j) {
      for (int i = 0; i < 3; ++i) {
        backbones.push_back(std::make_unique<net::EthernetSegment>(loop));
        wavepoints.push_back(std::make_unique<wireless::WavePoint>(
            channel, *backbones.back(), wireless::Vec2{100.0 * i, 100.0 * j},
            "wp" + std::to_string(j * 3 + i)));
      }
    }
    sim::Rng rng(7);
    wireless::RandomWaypointConfig rw;
    rw.area_min = {-250.0, -250.0};
    rw.area_max = {450.0, 450.0};
    rw.pause_max = sim::seconds(5);
    rw.horizon = sim::seconds(60);
    for (int m = 0; m < 24; ++m) paths.push_back(random_waypoint(rw, rng));
    for (std::size_t m = 0; m < paths.size(); ++m) {
      radios.push_back(std::make_unique<wireless::WaveLanDevice>(
          channel, net::IpAddress(0x0A030000u + static_cast<std::uint32_t>(m)),
          [this, m] { return paths[m].position(loop.now()); },
          "r" + std::to_string(m)));
    }
    channel.start();
  }

  void uplink(std::size_t m) {
    net::Packet pkt = net::make_udp_packet(
        net::IpAddress(0x0A030000u + static_cast<std::uint32_t>(m)),
        net::IpAddress(10, 1, 0, 1), 4000, 4000, 200);
    pkt.id = ++next_id;
    radios[m]->transmit(std::move(pkt));
  }

  /// Runs 60 virtual seconds and digests the association of every radio
  /// every 100 ms, plus the channel's counters.
  std::uint64_t run_digest() {
    for (std::size_t m = 0; m < radios.size(); ++m) {
      for (int k = 0; k < 120; ++k) {
        loop.schedule_at(sim::kEpoch + sim::milliseconds(37 * m + 500 * k),
                         [this, m] { uplink(m); });
      }
    }
    std::uint64_t d = 0xcbf29ce484222325ULL;
    for (int step = 1; step <= 600; ++step) {
      loop.run_until(sim::kEpoch + sim::milliseconds(100 * step));
      for (const auto& radio : radios) {
        const wireless::BaseStation* wp = channel.associated(radio.get());
        std::uint64_t which = 0;
        for (std::size_t w = 0; w < wavepoints.size(); ++w) {
          if (wavepoints[w].get() == wp) which = w + 1;
        }
        d = fnv_mix(d, which);
      }
    }
    const wireless::WirelessChannel::Stats& s = channel.stats();
    for (std::uint64_t v :
         {s.frames_delivered, s.frames_dropped_retries,
          s.frames_dropped_unassociated, s.frames_dropped_handoff,
          s.frames_dropped_backlog, s.retry_attempts, s.handoffs}) {
      d = fnv_mix(d, v);
    }
    return d;
  }

  std::uint64_t next_id = 0;
};

TEST(AssociationPins, RoamingChannelDigestsMatchTheRecordedValues) {
  struct Pin {
    double hysteresis_db;
    double cell_size;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {0.0, 0.0, 0xd6b87d40e0d6ba94ULL},
      {0.0, 100.0, 0x70ba88346fce04b2ULL},
      {4.0, 0.0, 0xb90b326f32ed5bd7ULL},
      {4.0, 100.0, 0x60486c7bb76825cbULL},
      {-2.0, 100.0, 0x70ba88346fce04b2ULL},
  };
  for (const Pin& pin : pins) {
    RoamingWorld world(pin.hysteresis_db, pin.cell_size);
    const std::uint64_t d = world.run_digest();
    SCOPED_TRACE("hysteresis " + std::to_string(pin.hysteresis_db) +
                 " cell " + std::to_string(pin.cell_size));
    EXPECT_GT(world.channel.stats().handoffs, 0u);
    EXPECT_GT(world.channel.stats().frames_dropped_unassociated, 0u);
    EXPECT_EQ(d, pin.digest) << std::hex << "0x" << d;
  }
}

}  // namespace
}  // namespace tracemod::scenarios
