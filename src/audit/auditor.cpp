#include "audit/auditor.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>

#include "core/stream_distiller.hpp"
#include "sim/json.hpp"
#include "sim/metric_names.hpp"
#include "sim/sim_context.hpp"

namespace tracemod::audit {

namespace {

using sim::fmt;

void check(std::vector<std::string>& breaches, const char* what, double value,
           double limit, bool at_least = false) {
  const bool bad = at_least ? value < limit : value > limit;
  if (!bad) return;
  breaches.push_back(std::string(what) + " " + fmt("%.4f", value) +
                     (at_least ? " < " : " > ") + fmt("%.4f", limit));
}

}  // namespace

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kPass: return "pass";
    case Verdict::kBreach: return "breach";
    case Verdict::kUnauditable: return "unauditable";
  }
  return "?";
}

Verdict window_verdict(const core::WindowSummary& window) {
  if (window.damaged || window.shed) return Verdict::kUnauditable;
  return Verdict::kPass;
}

Baseline measure_baseline(const SecondOrderConfig& cfg,
                          sim::Duration run_for) {
  // The calibration run must be clean: no injected pressure or daemon
  // faults, and a sibling seed so it never shares a world with the audited
  // run.
  SecondOrderConfig clean = cfg;
  clean.buffer_pressure = 1.0;
  clean.emulator.daemon_faults = {};
  clean.emulator.seed = cfg.emulator.seed + 1;
  clean.run_for = run_for;
  const SecondOrderResult result =
      collect_second_order(core::ReplayTrace{}, clean);

  // The full eq. (5) pipeline breaks down on the bare Ethernet: the two
  // back-to-back stage-2 probes busy the shared medium exactly when their
  // own replies return, inflating t2 by a full serialization and driving
  // every group's F estimate negative (past the distiller's structural
  // clamp, since the true F is ~zero here).  So estimate directly from the
  // clean observables instead: t1 (the stage-1 probe flies alone, its RTT
  // is undisturbed) and t3 - t2 (the Ethernet requeues the back-to-back
  // pair, so the gap is the physical per-byte serialization cost).
  const auto sent = result.trace.echoes_sent();
  const auto replies = result.trace.echo_replies();
  std::map<std::uint16_t, const trace::PacketRecord*> reply_by_seq;
  for (const trace::PacketRecord& r : replies) reply_by_seq[r.icmp_seq] = &r;
  double s_small = 1e18, s_large = 0.0;
  for (const trace::PacketRecord& e : sent) {
    s_small = std::min(s_small, static_cast<double>(e.ip_bytes));
    s_large = std::max(s_large, static_cast<double>(e.ip_bytes));
  }
  double t1_sum = 0.0, gap_sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i + 2 < sent.size(); ++i) {
    if (static_cast<double>(sent[i].ip_bytes) != s_small) continue;
    if (static_cast<double>(sent[i + 1].ip_bytes) != s_large) continue;
    if (static_cast<double>(sent[i + 2].ip_bytes) != s_large) continue;
    const auto r1 = reply_by_seq.find(sent[i].icmp_seq);
    const auto r2 = reply_by_seq.find(sent[i + 1].icmp_seq);
    const auto r3 = reply_by_seq.find(sent[i + 2].icmp_seq);
    if (r1 == reply_by_seq.end() || r2 == reply_by_seq.end() ||
        r3 == reply_by_seq.end()) {
      continue;
    }
    t1_sum += sim::to_seconds(r1->second->rtt());
    gap_sum += sim::to_seconds(r3->second->rtt() - r2->second->rtt());
    ++n;
  }
  Baseline b;
  if (n == 0 || s_small >= s_large) return b;
  b.per_byte_bottleneck = std::max(0.0, gap_sum / static_cast<double>(n)) /
                          s_large;
  b.latency_s = std::max(
      0.0, t1_sum / (2.0 * static_cast<double>(n)) -
               s_small * b.per_byte_bottleneck);
  b.per_byte_residual = 0.0;
  return b;
}

FidelityReport audit_trace(const core::ReplayTrace& reference,
                           const AuditConfig& cfg, const std::string& label) {
  FidelityReport report;
  report.label = label;
  report.thresholds = cfg.thresholds;
  report.baseline = measure_baseline(cfg.second_order, cfg.baseline_run);

  const SecondOrderResult second =
      collect_second_order(reference, cfg.second_order);
  report.ping = second.ping;
  report.buffer_drops = second.buffer_drops;
  report.lost_records = second.trace.total_lost_records();

  // cfg.divergence.tick is deliberately NOT synced to the emulator's tick:
  // it is the contract granularity, and an emulator running coarser than
  // the contract must read as divergence, not be excused by the model.
  DivergenceConfig div = cfg.divergence;
  // The endpoint-placement term the modulation layer applies to inbound
  // packets, reconstructed exactly as core::Emulator wires it.
  div.inbound_extra_vb =
      8.0 / cfg.second_order.emulator.ethernet.bandwidth_bps -
      cfg.second_order.emulator.modulation.inbound_vb_compensation;
  report.scores = score_divergence(reference, second.trace, report.baseline,
                                   div);

  const DivergenceScores& s = report.scores;
  const FidelityThresholds& th = cfg.thresholds;
  if (s.windows.empty() || s.auditable == 0 ||
      s.auditable_fraction < th.min_auditable) {
    report.verdict = Verdict::kUnauditable;
    report.breaches.push_back(
        "auditable windows " + std::to_string(s.auditable) + "/" +
        std::to_string(s.windows.size()) + " below the " +
        fmt("%.2f", th.min_auditable) +
        " floor (degraded collection, not divergence)");
    return report;
  }
  check(report.breaches, "latency rel err", s.latency_rel_err,
        th.max_latency_rel_err);
  check(report.breaches, "bandwidth rel err", s.bandwidth_rel_err,
        th.max_bandwidth_rel_err);
  check(report.breaches, "loss delta", s.loss_delta, th.max_loss_delta);
  check(report.breaches, "KS(rtt)", s.ks_rtt, th.max_ks_rtt);
  check(report.breaches, "within-tolerance fraction",
        s.within_tolerance_fraction, th.min_within_tolerance,
        /*at_least=*/true);
  report.verdict =
      report.breaches.empty() ? Verdict::kPass : Verdict::kBreach;
  return report;
}

void record_metrics(const FidelityReport& report,
                    sim::MetricsRegistry& metrics) {
  namespace metric = sim::metric;
  metrics.counter(metric::kAuditWindowsTotal) += report.scores.windows.size();
  metrics.counter(metric::kAuditWindowsUnauditable) +=
      report.scores.unauditable;
  metrics.counter(metric::kAuditWindowsWithinTolerance) +=
      report.scores.within_tolerance;
  sim::TimeSeries& lat = metrics.series(metric::kAuditLatencyRelErr);
  sim::TimeSeries& bw = metrics.series(metric::kAuditBandwidthRelErr);
  sim::TimeSeries& loss = metrics.series(metric::kAuditLossDelta);
  for (const WindowScore& w : report.scores.windows) {
    if (!w.auditable()) continue;
    lat.sample(w.mid, w.latency_rel_err);
    bw.sample(w.mid, w.bandwidth_rel_err);
    loss.sample(w.mid, w.loss_delta);
  }
}

sim::TelemetrySnapshot telemetry_snapshot(const FidelityReport& report) {
  namespace metric = sim::metric;
  sim::MetricsRegistry registry;
  record_metrics(report, registry);
  sim::TelemetrySnapshot snap;
  snap.counters = registry.snapshot();
  for (const auto& [name, series] : registry.series_channels()) {
    snap.series.emplace_back(name, series);
  }
  // A counter track so the divergence series chart in ui.perfetto.dev.
  snap.tracks.push_back(sim::Track{"audit", "divergence"});
  const sim::TrackId track = 1;
  for (const WindowScore& w : report.scores.windows) {
    if (!w.auditable()) continue;
    snap.events.push_back({sim::TraceEvent::Phase::kCounter, track,
                           metric::kAuditLatencyRelErr, 0, w.mid,
                           w.latency_rel_err});
    snap.events.push_back({sim::TraceEvent::Phase::kCounter, track,
                           metric::kAuditBandwidthRelErr, 0, w.mid,
                           w.bandwidth_rel_err});
    snap.events.push_back({sim::TraceEvent::Phase::kCounter, track,
                           metric::kAuditLossDelta, 0, w.mid, w.loss_delta});
  }
  return snap;
}

void write_fidelity_report(std::ostream& out, const FidelityReport& report) {
  const DivergenceScores& s = report.scores;
  out << "== fidelity audit";
  if (!report.label.empty()) out << ": " << report.label;
  out << " ==\n";
  out << "verdict: " << to_string(report.verdict) << "\n";
  out << "baseline (physical testbed): F0=" << fmt("%.3f", report.baseline.latency_s * 1e3)
      << "ms Vb0=" << fmt("%.3f", report.baseline.per_byte_bottleneck * 1e6)
      << "us/B Vr0=" << fmt("%.3f", report.baseline.per_byte_residual * 1e6)
      << "us/B\n";
  out << "windows: " << s.auditable << " auditable, " << s.unauditable
      << " unauditable (" << report.lost_records
      << " records lost to overruns), "
      << fmt("%.1f", s.within_tolerance_fraction * 100.0)
      << "% within tolerance\n";
  out << "aggregate divergence (recovered vs reference):\n";
  out << "  latency rel err   " << fmt("%.4f", s.latency_rel_err)
      << "  (max " << fmt("%.4f", report.thresholds.max_latency_rel_err)
      << ")\n";
  out << "  bandwidth rel err " << fmt("%.4f", s.bandwidth_rel_err)
      << "  (max " << fmt("%.4f", report.thresholds.max_bandwidth_rel_err)
      << ")\n";
  out << "  loss delta        " << fmt("%.4f", s.loss_delta) << "  (max "
      << fmt("%.4f", report.thresholds.max_loss_delta) << ")\n";
  out << "  KS(rtt)           " << fmt("%.4f", s.ks_rtt) << "  (max "
      << fmt("%.4f", report.thresholds.max_ks_rtt) << ", n=" << s.rtt_samples
      << ")\n";
  for (const std::string& b : report.breaches) {
    out << "breach: " << b << "\n";
  }
}

void write_fidelity_json(std::ostream& out, const FidelityReport& report) {
  sim::JsonWriter w(out);
  write_fidelity_json(w, report);
}

void write_fidelity_json(sim::JsonWriter& w, const FidelityReport& report) {
  const DivergenceScores& s = report.scores;
  const FidelityThresholds& t = report.thresholds;
  w.begin_document("tracemod-fidelity-v1", sim::json::kLines1)
      .member("label", report.label)
      .member("verdict", to_string(report.verdict));
  w.begin_object("baseline")
      .member("latency_s", report.baseline.latency_s, "%.9g")
      .member("vb_s_per_byte", report.baseline.per_byte_bottleneck, "%.9g")
      .member("vr_s_per_byte", report.baseline.per_byte_residual, "%.9g")
      .end_object();
  w.begin_object("aggregate")
      .member("latency_rel_err", s.latency_rel_err, "%.6g")
      .member("bandwidth_rel_err", s.bandwidth_rel_err, "%.6g")
      .member("loss_delta", s.loss_delta, "%.6g")
      .member("ks_rtt", s.ks_rtt, "%.6g")
      .member("within_tolerance_fraction", s.within_tolerance_fraction, "%.6g")
      .member("auditable_fraction", s.auditable_fraction, "%.6g")
      .member("rtt_samples", s.rtt_samples)
      .end_object();
  w.begin_object("thresholds")
      .member("max_latency_rel_err", t.max_latency_rel_err, "%.6g")
      .member("max_bandwidth_rel_err", t.max_bandwidth_rel_err, "%.6g")
      .member("max_loss_delta", t.max_loss_delta, "%.6g")
      .member("max_ks_rtt", t.max_ks_rtt, "%.6g")
      .member("min_within_tolerance", t.min_within_tolerance, "%.6g")
      .member("min_auditable", t.min_auditable, "%.6g")
      .end_object();
  w.begin_object("windows")
      .member("total", s.windows.size())
      .member("auditable", s.auditable)
      .member("unauditable", s.unauditable)
      .member("within_tolerance", s.within_tolerance)
      .member("lost_records", report.lost_records)
      .end_object();
  w.begin_array("series", sim::json::kBlock2);
  for (const WindowScore& win : s.windows) {
    w.begin_object()
        .member("t_s", sim::to_seconds(win.mid), "%.3f")
        .member("auditable", win.auditable())
        .member("latency_rel_err", win.latency_rel_err, "%.6g")
        .member("bandwidth_rel_err", win.bandwidth_rel_err, "%.6g")
        .member("loss_delta", win.loss_delta, "%.6g")
        .end_object();
  }
  w.end_array().begin_array("breaches");
  for (const std::string& b : report.breaches) w.value(b);
  w.end_array().end_object();
}

}  // namespace tracemod::audit
