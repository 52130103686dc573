#include "wireless/channel.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/assert.hpp"
#include "sim/metric_names.hpp"
#include "sim/sim_context.hpp"

namespace tracemod::wireless {

WirelessChannel::WirelessChannel(sim::EventLoop& loop, SignalModel model,
                                 ChannelConfig cfg, sim::Rng rng)
    : loop_(loop),
      model_(std::move(model)),
      cfg_(cfg),
      rng_(rng),
      wp_index_(cfg.spatial.cell_size) {}

void WirelessChannel::add_wavepoint(BaseStation* wp) {
  TM_ASSERT(wp != nullptr);
  // Scan caches assume a fixed WavePoint set once polling runs.
  TM_ASSERT(!started_);
  // WavePoints are fixed infrastructure: index them once at their mounting
  // position.  Ids are registration indices into wavepoints_.
  wp_index_.insert(static_cast<std::uint32_t>(wavepoints_.size()),
                   wp->position());
  wavepoints_.push_back(wp);
}

void WirelessChannel::add_mobile(Transceiver* mobile, net::IpAddress addr) {
  TM_ASSERT(mobile != nullptr);
  // Registration is closed once the channel starts: pending handoff events
  // hold pointers into mobiles_.
  TM_ASSERT(!started_);
  TM_ASSERT(mobile->mobile_slot_ == Transceiver::kNoSlot);
  const auto at = addr_lower_bound(addr);
  TM_ASSERT(at == mobile_by_addr_.end() || at->first != addr);
  // Hosts usually register in address order, which makes this an append.
  mobile_by_addr_.insert(
      at, {addr, static_cast<std::uint32_t>(mobiles_.size())});
  mobile->mobile_slot_ = mobiles_.size();
  mobiles_.push_back(MobileEntry{mobile, nullptr, {}, addr, false});
}

void WirelessChannel::set_telemetry(sim::SimContext& ctx) {
  m_retransmits_ = &ctx.metrics().counter(sim::metric::kWirelessRetransmits);
  m_drops_ = &ctx.metrics().counter(sim::metric::kWirelessDrops);
  m_handoffs_ = &ctx.metrics().counter(sim::metric::kWirelessHandoffs);
  if (ctx.telemetry().enabled()) {
    tel_ = &ctx.telemetry();
    trk_air_ = tel_->track("channel", "air");
  }
}

void WirelessChannel::start() {
  if (started_) return;
  started_ = true;
  scan_cache_.assign(mobiles_.size(), ScanCache{});
  poll_associations();  // immediate first pass, then periodic
  if (cfg_.burst_extra_err > 0.0) schedule_burst_flip();
}

WirelessChannel::MobileEntry* WirelessChannel::find_mobile(
    const Transceiver* radio) {
  return const_cast<MobileEntry*>(std::as_const(*this).find_mobile(radio));
}

const WirelessChannel::MobileEntry* WirelessChannel::find_mobile(
    const Transceiver* radio) const {
  if (radio == nullptr) return nullptr;
  // The slot check also rejects a radio registered with another channel.
  const std::size_t i = radio->mobile_slot_;
  return i < mobiles_.size() && mobiles_[i].radio == radio ? &mobiles_[i]
                                                           : nullptr;
}

WirelessChannel::AddrIndex::const_iterator WirelessChannel::addr_lower_bound(
    net::IpAddress addr) const {
  return std::lower_bound(
      mobile_by_addr_.begin(), mobile_by_addr_.end(), addr,
      [](const auto& entry, net::IpAddress a) { return entry.first < a; });
}

WirelessChannel::MobileEntry* WirelessChannel::find_mobile_by_addr(
    net::IpAddress addr) {
  const auto it = addr_lower_bound(addr);
  return it != mobile_by_addr_.end() && it->first == addr
             ? &mobiles_[it->second]
             : nullptr;
}

BaseStation* WirelessChannel::associated(const Transceiver* mobile) const {
  const MobileEntry* e = find_mobile(mobile);
  return e != nullptr ? e->assoc : nullptr;
}

double WirelessChannel::rate_bps(double snr_db) const {
  const double factor =
      std::clamp(0.58 + 0.035 * (snr_db - 6.0), cfg_.min_rate_factor, 1.0);
  return cfg_.effective_rate_bps * factor;
}

double WirelessChannel::frame_error_prob(double snr_db,
                                         std::uint32_t bytes) const {
  const double p_ref =
      1.0 / (1.0 + std::exp((snr_db - cfg_.frame_err_mid_snr_db) /
                            cfg_.frame_err_width_db));
  const double scaled =
      1.0 - std::pow(1.0 - p_ref, static_cast<double>(bytes) / 1000.0);
  return std::clamp(scaled, 0.0, 1.0);
}

sim::TimePoint WirelessChannel::busy_floor_at(Vec2 pos) {
  covered_scratch_.clear();
  wp_index_.covered_cells(pos, cfg_.spatial.radio_range_m, &covered_scratch_);
  sim::TimePoint floor = sim::kEpoch;
  for (CellIndex::CellKey key : covered_scratch_) {
    auto it = cell_busy_.find(key);
    if (it != cell_busy_.end()) floor = std::max(floor, it->second);
  }
  return floor;
}

void WirelessChannel::occupy_covered(sim::TimePoint until) {
  for (CellIndex::CellKey key : covered_scratch_) {
    sim::TimePoint& busy = cell_busy_[key];
    busy = std::max(busy, until);
  }
}

void WirelessChannel::transmit_from_mobile(Transceiver* mobile,
                                           net::Packet pkt) {
  MobileEntry* entry = find_mobile(mobile);
  TM_ASSERT(entry != nullptr);
  if (entry->in_handoff) {
    // The driver buffers a few frames while the roaming protocol runs.
    if (entry->deferred.size() < cfg_.handoff_defer_cap) {
      entry->deferred.push_back(std::move(pkt));
    } else {
      ++stats_.frames_dropped_handoff;
    }
    return;
  }
  if (entry->assoc == nullptr) {
    ++stats_.frames_dropped_unassociated;
    return;
  }
  if (busy_floor_at(mobile->position()) - loop_.now() > cfg_.backlog_cap) {
    ++stats_.frames_dropped_backlog;
    return;
  }
  start_attempt(Attempt{mobile, entry->assoc, std::move(pkt), 0});
}

void WirelessChannel::transmit_from_wavepoint(BaseStation* wp,
                                              net::Packet pkt) {
  MobileEntry* entry = find_mobile_by_addr(pkt.dst);
  if (entry == nullptr || entry->assoc != wp) {
    ++stats_.frames_dropped_unassociated;
    return;
  }
  if (entry->in_handoff) {
    ++stats_.frames_dropped_handoff;
    return;
  }
  if (busy_floor_at(wp->position()) - loop_.now() > cfg_.backlog_cap) {
    ++stats_.frames_dropped_backlog;
    return;
  }
  start_attempt(Attempt{wp, entry->radio, std::move(pkt), 0});
}

void WirelessChannel::start_attempt(Attempt attempt) {
  // Binary exponential backoff; the first attempt draws from a small window.
  const int exp = std::min(attempt.tries + 1, cfg_.max_backoff_exp);
  const auto slots = rng_.uniform_int(0, (std::int64_t{1} << exp) - 1);
  const sim::Duration backoff = cfg_.slot * slots;

  // Carrier sense covers every cell within radio range of the transmitter
  // (in the flat configuration that is the single global cell, i.e. the
  // seed's scalar busy horizon).
  const sim::TimePoint floor = busy_floor_at(attempt.from->position());
  const sim::TimePoint start =
      std::max(loop_.now(), floor) + cfg_.difs + backoff;
  // Duration uses the median SNR at reservation time: the radio picks its
  // timing before knowing whether the frame will survive.
  const double rx =
      model_.median_rx_dbm(attempt.from->position(),
                           attempt.from->tx_power_dbm(), attempt.to->position());
  const double rate = rate_bps(model_.snr_db(rx));
  const sim::Duration tx_time =
      cfg_.preamble +
      sim::from_seconds(attempt.pkt.wire_size() * 8.0 / rate);
  const sim::TimePoint done = start + tx_time;
  // The reservation keeps every covered cell deferring, so a station just
  // across a cell border still backs off this transmission.
  occupy_covered(done);
  if (tel_ != nullptr) {
    // The reservation window is known now; record the span with its
    // (future) endpoints instead of scheduling anything.
    tel_->recorder().begin(trk_air_, "air.tx", attempt.pkt.id, start,
                           static_cast<double>(attempt.pkt.wire_size()));
    tel_->recorder().end(trk_air_, "air.tx", attempt.pkt.id, done);
  }
  loop_.schedule_at(
      done,
      [this, attempt = std::move(attempt), start]() mutable {
        finish_attempt(std::move(attempt), start);
      },
      "air.finish");
}

void WirelessChannel::finish_attempt(Attempt attempt, sim::TimePoint) {
  const double rx = model_.rx_dbm(attempt.from->position(),
                                  attempt.from->tx_power_dbm(),
                                  attempt.to->position(), loop_.now()) +
                    model_.fast_fade_db();
  double p_err = frame_error_prob(model_.snr_db(rx), attempt.pkt.wire_size());
  if (burst_active_) p_err = std::min(1.0, p_err + cfg_.burst_extra_err);

  if (!rng_.chance(p_err)) {
    ++stats_.frames_delivered;
    // Host/bridge processing happens off the air: it delays delivery but
    // does not hold the channel.
    Transceiver* to = attempt.to;
    loop_.schedule(
        cfg_.processing,
        [to, pkt = std::move(attempt.pkt)]() mutable {
          to->receive_frame(std::move(pkt));
        },
        "air.deliver");
    return;
  }
  if (attempt.tries < cfg_.max_retries) {
    ++attempt.tries;
    ++stats_.retry_attempts;
    if (m_retransmits_ != nullptr) ++*m_retransmits_;
    if (tel_ != nullptr) {
      tel_->recorder().instant(trk_air_, "air.retransmit", attempt.pkt.id,
                               loop_.now(),
                               static_cast<double>(attempt.tries));
    }
    start_attempt(std::move(attempt));
    return;
  }
  ++stats_.frames_dropped_retries;
  if (m_drops_ != nullptr) ++*m_drops_;
  if (tel_ != nullptr) {
    tel_->recorder().instant(trk_air_, "air.drop", attempt.pkt.id,
                             loop_.now());
  }
}

void WirelessChannel::associate(std::size_t i, BaseStation* wp) {
  MobileEntry& entry = mobiles_[i];
  if (entry.assoc != nullptr) entry.assoc->unclaim_mobile(entry.addr);
  entry.assoc = wp;
  if (wp != nullptr) wp->claim_mobile(entry.addr);
  scan_cache_[i].radius = 0.0;  // the next poll scans in full
}

WirelessChannel::ScanResult WirelessChannel::scan_mobile(std::size_t i) const {
  ScanResult scan;
  const MobileEntry& entry = mobiles_[i];
  if (entry.in_handoff) {
    scan.skipped = true;
    return scan;
  }
  scan.pos = entry.radio->position();
  // Inside the safe radius of the last no-op scan, a full scan would
  // provably change nothing (noop_radius); skip it.
  const ScanCache& cache = scan_cache_[i];
  const double cx = scan.pos.x - cache.pos.x;
  const double cy = scan.pos.y - cache.pos.y;
  if (cx * cx + cy * cy < cache.radius * cache.radius) {
    scan.skipped = true;
    return scan;
  }
  double nearest_sq = std::numeric_limits<double>::infinity();
  const auto note_distance = [&](Vec2 at) {
    const double dx = at.x - scan.pos.x;
    const double dy = at.y - scan.pos.y;
    nearest_sq = std::min(nearest_sq, dx * dx + dy * dy);
  };
  // Candidate query: in the flat configuration this visits every WavePoint
  // in registration order (the seed's full scan); sharded, only WavePoints
  // in cells overlapping the interaction disc -- the fix for the old
  // O(mobiles x wavepoints) poll.
  wp_index_.for_each_candidate(
      scan.pos, cfg_.spatial.radio_range_m, [&](std::uint32_t id) {
        BaseStation* wp = wavepoints_[id];
        const Vec2 at = wp->position();
        const double rx =
            model_.median_rx_dbm(at, wp->tx_power_dbm(), scan.pos);
        if (rx > scan.best_rx) {
          scan.best_rx = rx;
          scan.best = wp;
        }
        if (wp != entry.assoc) scan.rival_rx = std::max(scan.rival_rx, rx);
        note_distance(at);
      });
  if (entry.assoc != nullptr) {
    const Vec2 at = entry.assoc->position();
    scan.cur_rx =
        model_.median_rx_dbm(at, entry.assoc->tx_power_dbm(), scan.pos);
    note_distance(at);
  }
  scan.nearest_m = std::sqrt(nearest_sq);
  return scan;
}

double WirelessChannel::noop_radius(const MobileEntry& entry,
                                    const ScanResult& scan) const {
  // With negative hysteresis, "best is the current WavePoint" is a no-op
  // that rests on which reading is largest, not on a margin in dB.
  if (cfg_.handoff_hysteresis_db < 0.0) return 0.0;
  // The no-op's slack: how far the readings may drift, in dB, before
  // apply_scan would act.  No candidate: only the cell span matters.
  double slack_db = std::numeric_limits<double>::infinity();
  if (scan.best != nullptr && entry.assoc == nullptr) {
    // Every candidate stays below the association floor.
    slack_db = cfg_.association_floor_dbm - scan.best_rx;
  } else if (scan.best != nullptr) {
    // The best candidate stays at or above the drop threshold, and no
    // rival overtakes the current WavePoint by more than the hysteresis
    // (the current WavePoint's own reading is cur_rx exactly).
    slack_db = std::min(scan.best_rx - (cfg_.association_floor_dbm - 5.0),
                        scan.cur_rx + cfg_.handoff_hysteresis_db -
                            scan.rival_rx);
  }
  return std::min(
      model_.stable_radius_m(scan.nearest_m, slack_db),
      wp_index_.span_stable_m(scan.pos, cfg_.spatial.radio_range_m));
}

void WirelessChannel::apply_scan(std::size_t i, const ScanResult& scan) {
  if (scan.skipped) return;
  MobileEntry& entry = mobiles_[i];
  // Each no-op below records its safe radius; each action goes through
  // associate() or the handoff, which clear it.
  const auto no_op = [&] {
    scan_cache_[i] = ScanCache{scan.pos, noop_radius(entry, scan)};
  };
  BaseStation* best = scan.best;
  const double best_rx = scan.best_rx;
  if (best == nullptr) return no_op();

  if (entry.assoc == nullptr) {
    if (best_rx >= cfg_.association_floor_dbm) {
      associate(i, best);
    } else {
      no_op();
    }
    return;
  }
  // Out of range of everything: the roaming protocol drops the
  // association entirely (5 dB of hysteresis against flapping).
  if (best_rx < cfg_.association_floor_dbm - 5.0) {
    associate(i, nullptr);
    return;
  }
  if (best == entry.assoc) return no_op();
  if (!(best_rx > scan.cur_rx + cfg_.handoff_hysteresis_db)) return no_op();
  // Roaming protocol: brief outage, then re-association (the paper's
  // WavePoint handoffs).
  entry.assoc->unclaim_mobile(entry.addr);
  entry.assoc = nullptr;
  entry.in_handoff = true;
  scan_cache_[i].radius = 0.0;
  ++stats_.handoffs;
  if (m_handoffs_ != nullptr) ++*m_handoffs_;
  if (tel_ != nullptr) {
    tel_->recorder().begin(trk_air_, "handoff", stats_.handoffs, loop_.now());
    tel_->recorder().end(trk_air_, "handoff", stats_.handoffs,
                         loop_.now() + cfg_.handoff_outage);
  }
  loop_.schedule(
      cfg_.handoff_outage,
      [this, i, best] {
        MobileEntry& moved = mobiles_[i];
        moved.in_handoff = false;
        associate(i, best);
        // Flush the frames the driver held back during the handoff.
        std::vector<net::Packet> held = std::move(moved.deferred);
        moved.deferred.clear();
        for (net::Packet& pkt : held) {
          start_attempt(Attempt{moved.radio, best, std::move(pkt), 0});
        }
      },
      "wireless.handoff");
}

void WirelessChannel::poll_associations() {
  // scan_mobile is pure (positions and median signal only -- no RNG, no
  // scheduling), so the scan phase is order-independent; apply_scan runs
  // serially in registration order either way.  That makes the serial and
  // parallel paths bit-identical, and the flat path identical to the seed's
  // interleaved scan-then-apply loop.
  if (cfg_.spatial.sharded() && parallel_for_ && !mobiles_.empty()) {
    std::vector<ScanResult> scans(mobiles_.size());
    const std::size_t chunk = 256;
    const std::size_t n_chunks = (mobiles_.size() + chunk - 1) / chunk;
    parallel_for_(n_chunks, [&](std::size_t c) {
      const std::size_t lo = c * chunk;
      const std::size_t hi = std::min(lo + chunk, mobiles_.size());
      for (std::size_t i = lo; i < hi; ++i) scans[i] = scan_mobile(i);
    });
    for (std::size_t i = 0; i < mobiles_.size(); ++i) {
      apply_scan(i, scans[i]);
    }
  } else {
    for (std::size_t i = 0; i < mobiles_.size(); ++i) {
      apply_scan(i, scan_mobile(i));
    }
  }
  loop_.schedule(cfg_.association_poll, [this] { poll_associations(); },
                 "wireless.poll");
}

void WirelessChannel::schedule_burst_flip() {
  const double mean = burst_active_ ? sim::to_seconds(cfg_.burst_mean_on)
                                    : sim::to_seconds(cfg_.burst_mean_off);
  loop_.schedule(sim::from_seconds(rng_.exponential(mean)),
                 [this] {
                   burst_active_ = !burst_active_;
                   schedule_burst_flip();
                 },
                 "wireless.burst");
}

SignalInfo WirelessChannel::signal_info(const Transceiver* mobile) {
  const MobileEntry* entry = find_mobile(mobile);
  TM_ASSERT(entry != nullptr);
  if (entry->assoc == nullptr) {
    // No base station in range: the driver reads noise.
    return model_.to_signal_info(model_.config().noise_floor_dbm);
  }
  const double rx =
      model_.rx_dbm(entry->assoc->position(), entry->assoc->tx_power_dbm(),
                    mobile->position(), loop_.now());
  return model_.to_signal_info(rx);
}

}  // namespace tracemod::wireless
