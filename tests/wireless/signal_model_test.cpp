#include "wireless/signal_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "sim/stats.hpp"

namespace tracemod::wireless {
namespace {

SignalModel plain_model(SignalConfig cfg = {}) {
  return SignalModel(cfg, {}, {}, sim::Rng(1));
}

TEST(SignalModel, PowerFallsWithDistance) {
  auto model = plain_model();
  const double near = model.median_rx_dbm({0, 0}, 15.0, {10, 0});
  const double far = model.median_rx_dbm({0, 0}, 15.0, {100, 0});
  EXPECT_GT(near, far);
  // Log-distance: one decade costs 10*n dB.
  EXPECT_NEAR(near - far, 30.0, 1e-9);
}

TEST(SignalModel, SubMeterClampsToOneMeter) {
  auto model = plain_model();
  EXPECT_DOUBLE_EQ(model.median_rx_dbm({0, 0}, 15.0, {0.1, 0}),
                   model.median_rx_dbm({0, 0}, 15.0, {1.0, 0}));
}

TEST(SignalModel, WallsAndZonesAttenuate) {
  SignalModel model(SignalConfig{}, {Wall{{5, -5}, {5, 5}, 7.0}},
                    {Zone{{10, 0}, 1.0, 12.0}}, sim::Rng(1));
  auto base = plain_model();
  const double open = base.median_rx_dbm({0, 0}, 15.0, {10, 0});
  const double obstructed = model.median_rx_dbm({0, 0}, 15.0, {10, 0});
  EXPECT_NEAR(open - obstructed, 19.0, 1e-9);  // wall 7 + zone 12
}

TEST(SignalModel, SnrIsRelativeToNoiseFloor) {
  SignalConfig cfg;
  cfg.noise_floor_dbm = -92.0;
  auto model = plain_model(cfg);
  EXPECT_DOUBLE_EQ(model.snr_db(-82.0), 10.0);
}

TEST(SignalModel, SignalInfoMapping) {
  auto model = plain_model();
  // Strong in-room link reads well above the noise threshold of 5.
  const SignalInfo strong = model.to_signal_info(-55.0);
  EXPECT_GT(strong.level, 15.0);
  EXPECT_GT(strong.quality, 10.0);
  // Very weak link reads at/below the driver's noise threshold.
  const SignalInfo weak = model.to_signal_info(-84.0);
  EXPECT_LT(weak.level, 5.0);
  // Mapping is monotone.
  EXPECT_GT(model.to_signal_info(-60.0).level,
            model.to_signal_info(-70.0).level);
}

TEST(SignalModel, SignalInfoClamped) {
  auto model = plain_model();
  EXPECT_GE(model.to_signal_info(-200.0).level, 0.0);
  EXPECT_LE(model.to_signal_info(+20.0).level, 40.0);
  EXPECT_LE(model.to_signal_info(+20.0).quality, 15.0);
}

TEST(SignalModel, ShadowingIsBoundedAndCorrelated) {
  SignalConfig cfg;
  cfg.shadow_sigma_db = 3.0;
  cfg.shadow_tau_s = 8.0;
  SignalModel model(cfg, {}, {}, sim::Rng(7));

  // Consecutive 100 ms samples should move slowly (correlation), and the
  // long-run spread should be near the configured sigma.
  double prev = 0.0;
  double max_step = 0.0;
  sim::RunningStats spread;
  for (int i = 1; i <= 5000; ++i) {
    model.rx_dbm({0, 0}, 15.0, {10, 0},
                 sim::kEpoch + sim::milliseconds(100 * i));
    const double s = model.shadow_db();
    max_step = std::max(max_step, std::abs(s - prev));
    prev = s;
    spread.add(s);
  }
  EXPECT_LT(max_step, 4.0);  // no teleporting
  EXPECT_NEAR(spread.stddev(), cfg.shadow_sigma_db, 1.0);
  EXPECT_NEAR(spread.mean(), 0.0, 0.5);
}

TEST(SignalModel, ShadowDoesNotAdvanceBackwards) {
  auto model = plain_model();
  model.rx_dbm({0, 0}, 15.0, {10, 0}, sim::kEpoch + sim::seconds(10));
  const double s = model.shadow_db();
  model.rx_dbm({0, 0}, 15.0, {10, 0}, sim::kEpoch + sim::seconds(5));
  EXPECT_DOUBLE_EQ(model.shadow_db(), s);
}

TEST(SignalModel, FastFadeZeroMean) {
  auto model = plain_model();
  sim::RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(model.fast_fade_db());
  EXPECT_NEAR(s.mean(), 0.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.2);
}

TEST(SignalModel, StableRadiusBoundsEveryReading) {
  // Property: for random transmitter layouts, receiver positions and
  // slacks, no median reading -- and no difference of two readings -- at
  // any point within the returned radius differs from its value at the
  // centre by more than the slack.
  auto model = plain_model();
  sim::Rng rng(2024);
  int checked = 0;
  for (int layout = 0; layout < 200; ++layout) {
    std::vector<Vec2> tx(static_cast<std::size_t>(rng.uniform_int(1, 8)));
    std::vector<double> power;
    for (Vec2& t : tx) {
      t = {rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)};
      power.push_back(rng.uniform(6.0, 24.0));
    }
    const Vec2 p0{rng.uniform(-50.0, 450.0), rng.uniform(-50.0, 450.0)};
    double nearest = 1e300;
    for (const Vec2& t : tx) nearest = std::min(nearest, distance(t, p0));
    const double slack = rng.uniform(0.0, 12.0);
    const double r = model.stable_radius_m(nearest, slack);
    if (nearest < 1.0) {
      EXPECT_EQ(r, 0.0);
      continue;
    }
    ASSERT_GE(r, 0.0);
    ASSERT_LT(r, nearest);
    for (int k = 0; k < 64; ++k) {
      // Half the samples sit on the rim, where the bound is tightest.
      const double angle = rng.uniform(0.0, 6.283185307179586);
      const double reach = k % 2 == 0 ? r : rng.uniform(0.0, r);
      const Vec2 p{p0.x + reach * std::cos(angle),
                   p0.y + reach * std::sin(angle)};
      std::vector<double> drift;
      for (std::size_t i = 0; i < tx.size(); ++i) {
        drift.push_back(model.median_rx_dbm(tx[i], power[i], p) -
                        model.median_rx_dbm(tx[i], power[i], p0));
      }
      for (std::size_t i = 0; i < tx.size(); ++i) {
        EXPECT_LE(std::abs(drift[i]), slack) << "layout " << layout;
        for (std::size_t j = 0; j < i; ++j) {
          EXPECT_LE(std::abs(drift[i] - drift[j]), slack)
              << "layout " << layout;
        }
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 10000);
}

TEST(SignalModel, StableRadiusIsTightForADifference) {
  // The worst case for a difference of two readings: transmitters on both
  // sides at the same distance d, and a move straight at one of them.
  // Moving the full radius stays within the slack; 1% further does not.
  auto model = plain_model();
  for (double d : {5.0, 40.0, 120.0}) {
    for (double slack : {0.1, 1.0, 4.0}) {
      const double r = model.stable_radius_m(d, slack);
      ASSERT_GT(r, 0.0);
      const auto gap_drift = [&](double move) {
        const Vec2 p{move, 0};
        const Vec2 p0{0, 0};
        return (model.median_rx_dbm({d, 0}, 18.0, p) -
                model.median_rx_dbm({-d, 0}, 18.0, p)) -
               (model.median_rx_dbm({d, 0}, 18.0, p0) -
                model.median_rx_dbm({-d, 0}, 18.0, p0));
      };
      EXPECT_LE(gap_drift(r), slack) << "d " << d << " slack " << slack;
      EXPECT_GT(gap_drift(1.01 * r), slack) << "d " << d << " slack " << slack;
    }
  }
}

TEST(SignalModel, StableRadiusIsZeroWhereTheBoundDoesNotHold) {
  auto model = plain_model();
  EXPECT_GT(model.stable_radius_m(50.0, 2.0), 0.0);
  EXPECT_EQ(model.stable_radius_m(0.5, 2.0), 0.0);   // path-loss clamp
  EXPECT_EQ(model.stable_radius_m(50.0, 0.0), 0.0);  // no slack
  EXPECT_EQ(model.stable_radius_m(50.0, -1.0), 0.0);
  // Walls and zones make losses jump at boundaries.
  const SignalModel walled(SignalConfig{}, {Wall{{5, -5}, {5, 5}, 7.0}}, {},
                           sim::Rng(1));
  EXPECT_EQ(walled.stable_radius_m(50.0, 2.0), 0.0);
  const SignalModel zoned(SignalConfig{}, {}, {Zone{{0, 0}, 3.0, 20.0}},
                          sim::Rng(1));
  EXPECT_EQ(zoned.stable_radius_m(50.0, 2.0), 0.0);
  // Nothing read and unlimited slack: nothing can change.
  EXPECT_TRUE(std::isinf(model.stable_radius_m(
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity())));
}

}  // namespace
}  // namespace tracemod::wireless
