// Parameterized sweeps over the wireless channel's physical behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "net/ethernet.hpp"
#include "net/node.hpp"
#include "wireless/wavelan_device.hpp"
#include "wireless/wavepoint.hpp"

namespace tracemod::wireless {
namespace {

/// Delivered fraction of 200 one-KB uplink frames at a given distance.
double delivered_fraction(double distance_m, std::uint64_t seed) {
  sim::EventLoop loop;
  net::EthernetSegment backbone(loop);
  WirelessChannel channel(loop, SignalModel({}, {}, {}, sim::Rng(seed)),
                          ChannelConfig{}, sim::Rng(seed + 1));
  WavePoint wp(channel, backbone, {0, 0}, "wp");
  net::EthernetDevice sink(backbone, "sink");
  sink.claim_address(net::IpAddress(10, 0, 0, 1));
  WaveLanDevice radio(channel, net::IpAddress(10, 0, 0, 2),
                      [distance_m] { return Vec2{distance_m, 0}; }, "wl");
  channel.start();
  loop.run_for(sim::milliseconds(1));

  int got = 0;
  sink.set_receive_callback([&](net::Packet) { ++got; });
  for (int i = 0; i < 200; ++i) {
    net::Packet p = net::make_udp_packet(net::IpAddress(10, 0, 0, 2),
                                         net::IpAddress(10, 0, 0, 1), 1, 2,
                                         1000);
    p.id = static_cast<std::uint64_t>(i) + 1;
    radio.transmit(std::move(p));
    loop.run_for(sim::milliseconds(50));
  }
  loop.run_for(sim::seconds(2));
  return got / 200.0;
}

class ChannelDistanceSweep : public ::testing::TestWithParam<double> {};

TEST_P(ChannelDistanceSweep, DeliveryDependsOnDistanceBand) {
  const double d = GetParam();
  const double frac = delivered_fraction(d, 11);
  if (d <= 30) {
    EXPECT_GT(frac, 0.97) << "at " << d << " m";
  } else if (d >= 110) {
    EXPECT_LT(frac, 0.60) << "at " << d << " m";
  } else {
    EXPECT_GT(frac, 0.30) << "at " << d << " m";  // transitional band
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, ChannelDistanceSweep,
                         ::testing::Values(5.0, 15.0, 30.0, 55.0, 90.0,
                                           120.0));

TEST(ChannelProperty, DeliveryIsMonotoneAcrossTheBands) {
  const double near = delivered_fraction(10, 21);
  const double mid = delivered_fraction(55, 21);
  const double far = delivered_fraction(110, 21);
  EXPECT_GE(near, mid);
  EXPECT_GE(mid, far);
}

TEST(ChannelProperty, SignalLevelMonotoneInDistance) {
  sim::EventLoop loop;
  net::EthernetSegment backbone(loop);
  WirelessChannel channel(loop, SignalModel({}, {}, {}, sim::Rng(3)),
                          ChannelConfig{}, sim::Rng(4));
  WavePoint wp(channel, backbone, {0, 0}, "wp");
  Vec2 pos{1, 0};
  WaveLanDevice radio(channel, net::IpAddress(10, 0, 0, 2),
                      [&pos] { return pos; }, "wl");
  channel.start();
  loop.run_for(sim::milliseconds(1));

  double prev = 1e9;
  for (double d : {2.0, 8.0, 20.0, 45.0, 80.0, 150.0}) {
    pos = {d, 0};
    // Median-based check: average several (shadowed) samples.
    double sum = 0;
    for (int i = 0; i < 16; ++i) {
      loop.run_for(sim::milliseconds(200));
      sum += channel.signal_info(&radio).level;
    }
    const double level = sum / 16;
    EXPECT_LE(level, prev + 1.0) << "at " << d;  // allow shadow wiggle
    prev = level;
  }
}

/// A base station stand-in that counts position reads: a full association
/// scan reads each candidate's position once, a skipped scan reads none.
class CountingStation : public BaseStation {
 public:
  CountingStation(Vec2 pos, double tx_dbm) : pos_(pos), tx_dbm_(tx_dbm) {}
  Vec2 position() const override {
    ++reads;
    return pos_;
  }
  double tx_power_dbm() const override { return tx_dbm_; }
  void receive_frame(net::Packet) override {}
  std::string label() const override { return "station"; }
  void claim_mobile(net::IpAddress) override {}
  void unclaim_mobile(net::IpAddress) override {}

  mutable std::uint64_t reads = 0;

 private:
  Vec2 pos_;
  double tx_dbm_;
};

/// A radio the test moves by hand.
class MovableRadio : public Transceiver {
 public:
  Vec2 position() const override { return pos; }
  double tx_power_dbm() const override { return 12.0; }
  void receive_frame(net::Packet) override {}
  std::string label() const override { return "radio"; }

  Vec2 pos;
};

/// The association rule evaluated in full at every poll, from the same
/// candidate set: what the incremental poll must reproduce exactly.
/// Returns the association after the poll (and after any handoff).
int full_evaluation(const SignalModel& model, const ChannelConfig& cfg,
                    const CellIndex& index, const std::vector<Vec2>& at,
                    const std::vector<double>& tx, int assoc, Vec2 p) {
  int best = -1;
  double best_rx = -1e9;
  index.for_each_candidate(p, cfg.spatial.radio_range_m, [&](std::uint32_t id) {
    const double rx = model.median_rx_dbm(at[id], tx[id], p);
    if (rx > best_rx) {
      best_rx = rx;
      best = static_cast<int>(id);
    }
  });
  if (best < 0) return assoc;
  if (assoc < 0) return best_rx >= cfg.association_floor_dbm ? best : -1;
  if (best_rx < cfg.association_floor_dbm - 5.0) return -1;
  if (best == assoc) return assoc;
  const auto a = static_cast<std::size_t>(assoc);
  const double cur_rx = model.median_rx_dbm(at[a], tx[a], p);
  return best_rx > cur_rx + cfg.handoff_hysteresis_db ? best : assoc;
}

TEST(ChannelProperty, IncrementalPollMatchesAFullEvaluation) {
  // Property: over random WavePoint layouts, configurations and walks
  // (small steps, strides, jumps, and stops within a metre of a
  // WavePoint), every mobile's association after every poll equals a full
  // evaluation of the rule -- so no skipped scan ever hid a change.
  sim::Rng rng(4242);
  std::uint64_t changes = 0;
  for (int layout = 0; layout < 24; ++layout) {
    SCOPED_TRACE("layout " + std::to_string(layout));
    ChannelConfig cfg;
    const double hysteresis[] = {0.0, 1.5, 4.0, -1.0};
    const double cells[] = {0.0, 70.0, 130.0};
    cfg.handoff_hysteresis_db = hysteresis[layout % 4];
    cfg.spatial.cell_size = cells[layout % 3];
    cfg.spatial.radio_range_m = 190.0;
    const SignalModel oracle_model({}, {}, {}, sim::Rng(1));
    sim::EventLoop loop;
    WirelessChannel channel(loop, SignalModel({}, {}, {}, sim::Rng(1)), cfg,
                            sim::Rng(2));
    CellIndex index(cfg.spatial.cell_size);
    std::vector<Vec2> at;
    std::vector<double> tx;
    std::vector<std::unique_ptr<CountingStation>> stations;
    const auto n_stations = rng.uniform_int(1, 10);
    for (std::int64_t w = 0; w < n_stations; ++w) {
      at.push_back({rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)});
      tx.push_back(rng.uniform(10.0, 24.0));
      index.insert(static_cast<std::uint32_t>(w), at.back());
      stations.push_back(
          std::make_unique<CountingStation>(at.back(), tx.back()));
      channel.add_wavepoint(stations.back().get());
    }
    std::vector<MovableRadio> radios(6);
    std::vector<int> expected(radios.size(), -1);
    for (std::size_t m = 0; m < radios.size(); ++m) {
      radios[m].pos = {rng.uniform(-250.0, 650.0), rng.uniform(-250.0, 650.0)};
      channel.add_mobile(&radios[m],
                         net::IpAddress(10, 0, 0, static_cast<int>(m) + 2));
    }
    // Registration reads each station's position once.
    std::uint64_t full_scan_reads = stations.size();
    channel.start();
    for (int poll = 0; poll < 240; ++poll) {
      if (poll > 0) {
        for (MovableRadio& radio : radios) {
          const double mode = rng.uniform();
          const double angle = rng.uniform(0.0, 6.283185307179586);
          const Vec2 heading{std::cos(angle), std::sin(angle)};
          if (mode < 0.93) {
            // Mostly a walk (up to 2.4 m/s), sometimes a stride.
            const double step = rng.uniform(0.0, mode < 0.85 ? 0.6 : 8.0);
            radio.pos = radio.pos + heading * step;
          } else if (mode < 0.97) {
            radio.pos = {rng.uniform(-250.0, 650.0),
                         rng.uniform(-250.0, 650.0)};
          } else {
            const auto w = static_cast<std::size_t>(
                rng.uniform_int(0, n_stations - 1));
            const double reach = rng.uniform(0.0, 0.8);
            radio.pos = at[w] + heading * reach;
          }
        }
      }
      for (std::size_t m = 0; m < radios.size(); ++m) {
        // A full scan reads every candidate and the current station.
        index.for_each_candidate(radios[m].pos, cfg.spatial.radio_range_m,
                                 [&](std::uint32_t) { ++full_scan_reads; });
        if (expected[m] >= 0) ++full_scan_reads;
        const int next = full_evaluation(oracle_model, cfg, index, at, tx,
                                         expected[m], radios[m].pos);
        if (next != expected[m]) ++changes;
        expected[m] = next;
      }
      // Past the poll and any handoff outage, before the next poll.
      loop.run_until(sim::kEpoch + cfg.association_poll * poll +
                     sim::milliseconds(200));
      for (std::size_t m = 0; m < radios.size(); ++m) {
        const BaseStation* want =
            expected[m] < 0
                ? nullptr
                : stations[static_cast<std::size_t>(expected[m])].get();
        ASSERT_EQ(channel.associated(&radios[m]), want)
            << "poll " << poll << " mobile " << m;
      }
    }
    std::uint64_t reads = 0;
    for (const auto& station : stations) reads += station->reads;
    if (cfg.handoff_hysteresis_db < 0.0) {
      // Radius 0: every poll scans in full, exactly as without the cache.
      EXPECT_EQ(reads, full_scan_reads);
    } else {
      // The skipped scans are real: under half the reads of full scans.
      EXPECT_LT(reads, full_scan_reads / 2);
    }
  }
  EXPECT_GT(changes, 500u);
}

}  // namespace
}  // namespace tracemod::wireless
