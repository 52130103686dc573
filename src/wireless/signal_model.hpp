// Radio propagation and WaveLAN signal reporting.
//
// Log-distance path loss with wall/zone attenuation, slow log-normal
// shadowing (an Ornstein-Uhlenbeck process, so consecutive samples are
// correlated the way real shadowing is), and per-packet fast fading.
// Received power maps onto WaveLAN driver units: signal level (~0-40,
// noise floor at 5 per the paper's figures), signal quality, silence level.
#pragma once

#include "sim/random.hpp"
#include "sim/time.hpp"
#include "wireless/geometry.hpp"

namespace tracemod::wireless {

struct SignalConfig {
  double ref_loss_db = 40.0;       ///< path loss at 1 m, 900 MHz-ish
  double path_exponent = 3.0;      ///< indoor-heavy environment
  double noise_floor_dbm = -92.0;
  double shadow_sigma_db = 3.0;    ///< stationary stddev of shadowing
  double shadow_tau_s = 8.0;       ///< OU relaxation time
  double fast_fade_sigma_db = 2.0; ///< per-packet fading
};

/// WaveLAN-style device readings (paper Section 3.1.1).
struct SignalInfo {
  double level = 0.0;    ///< signal level units; < 5 is background noise
  double quality = 0.0;  ///< 0..15
  double silence = 0.0;  ///< noise reading in the same units as level
};

class SignalModel {
 public:
  SignalModel(SignalConfig cfg, std::vector<Wall> walls, std::vector<Zone> zones,
              sim::Rng rng)
      : cfg_(cfg),
        walls_(std::move(walls)),
        zones_(std::move(zones)),
        rng_(rng) {}

  /// Deterministic median received power (no shadowing/fading).
  double median_rx_dbm(Vec2 from, double tx_dbm, Vec2 to) const;

  /// How far a receiver may move from where it took median_rx_dbm
  /// readings before any of them, or any difference of two of them, can
  /// have changed by slack_db, given that every transmitter it read is at
  /// least nearest_m away.  Over a move of delta, log-distance path loss
  /// raises a reading at distance d by at most 10 n log10(d / (d - delta))
  /// and lowers one by at most 10 n log10((d + delta) / d); a difference
  /// moves by at most their sum, 10 n log10((d + delta) / (d - delta)).
  /// Both shrink as d grows, so nearest_m bounds every reading.  Solving
  /// for delta gives d tanh(slack ln 10 / (20 n)).  A small margin in dB
  /// and metres absorbs rounding.
  /// Returns 0 (no safe move) when the model has walls or zones, whose
  /// losses jump at boundaries; when nearest_m < 1 m, inside the path-loss
  /// clamp; or when slack_db is not above the margin.
  double stable_radius_m(double nearest_m, double slack_db) const;

  /// Received power including the current shadowing state; advances the
  /// shadowing process to time t first.
  double rx_dbm(Vec2 from, double tx_dbm, Vec2 to, sim::TimePoint t);

  /// One per-packet fast-fade draw (dB, zero mean).
  double fast_fade_db() { return rng_.normal(0.0, cfg_.fast_fade_sigma_db); }

  /// Maps received power to WaveLAN units.
  SignalInfo to_signal_info(double rx_dbm) const;

  double snr_db(double rx_dbm) const { return rx_dbm - cfg_.noise_floor_dbm; }
  const SignalConfig& config() const { return cfg_; }

  /// Current shadowing value (tests).
  double shadow_db() const { return shadow_db_; }

 private:
  void advance_shadow(sim::TimePoint t);

  SignalConfig cfg_;
  std::vector<Wall> walls_;
  std::vector<Zone> zones_;
  sim::Rng rng_;
  double shadow_db_ = 0.0;
  sim::TimePoint shadow_at_ = sim::kEpoch;
};

}  // namespace tracemod::wireless
