// The fidelity auditor: verdicts over the closed collection loop.
//
// Ties the loop together: measure the physical testbed's baseline with the
// same instruments (un-modulated run), run a second-order collection over
// the reference trace (second_order.hpp), score the divergence
// (divergence.hpp), and judge the aggregates against thresholds derived
// from the paper's Section 5 accuracy discussion.  The result is a
// FidelityReport: a verdict (pass / breach / unauditable), the per-window
// and aggregate scores, and every breached threshold spelled out.
//
// Reports surface through three sinks: a human-readable section
// (write_fidelity_report), a machine-readable JSON verdict
// (write_fidelity_json, consumed by CI's audit gate), and the telemetry
// pipeline -- record_metrics() feeds a MetricsRegistry under the audit.*
// names in sim/metric_names.hpp, and telemetry_snapshot() packages the
// divergence time-series for the Perfetto / Prometheus exporters.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "audit/divergence.hpp"
#include "audit/second_order.hpp"
#include "sim/json.hpp"
#include "sim/telemetry.hpp"

namespace tracemod::core {
struct WindowSummary;
}

namespace tracemod::audit {

/// Aggregate ceilings.  The calibration anchors are the paper's Section 5
/// evaluation (end-to-end results within ~5% of live) and the measured
/// behaviour of this audit instrument on the shipped Porter pipeline: a
/// faithful 10 ms-tick emulation re-distills to ~0.39 median latency
/// relative error (the +-half-tick release noise is amplified through
/// eq. (5) by s1/(2*(s2-s1)) and the distiller's media-access correction
/// folds only positive deviations into F), ~0 median bandwidth error
/// against the tick-quantized expectation, and ~0.34 KS distance -- while
/// an emulator running a doubled tick measures 2.0 / 1.0 / 0.76.  The
/// defaults sit between those bands: a faithful run passes with margin,
/// a contract-tick violation breaches on every axis.
struct FidelityThresholds {
  double max_latency_rel_err = 0.60;
  double max_bandwidth_rel_err = 0.25;
  double max_loss_delta = 0.05;
  double max_ks_rtt = 0.50;
  double min_within_tolerance = 0.60;
  /// Below this auditable fraction the run is judged unauditable rather
  /// than divergent (degraded collection is not a modulation defect).
  double min_auditable = 0.50;
};

enum class Verdict : std::uint8_t { kPass = 0, kBreach = 1, kUnauditable = 2 };
const char* to_string(Verdict v);

/// Verdict for one streaming-distillation corpus window
/// (core/stream_distiller.hpp).  Salvaged damage and budget shedding are
/// collection degradation, not modulation defects, so a damaged or shed
/// window is kUnauditable -- never kBreach -- and a clean window passes.
Verdict window_verdict(const core::WindowSummary& window);

/// The opt-in face experiments see (scenarios::ExperimentConfig::audit).
struct AuditOptions {
  bool enabled = false;
  FidelityThresholds thresholds{};
};

struct AuditConfig {
  SecondOrderConfig second_order{};
  DivergenceConfig divergence{};
  FidelityThresholds thresholds{};
  /// Length of the baseline-calibration run (empty reference trace).
  sim::Duration baseline_run = sim::seconds(30);
};

struct FidelityReport {
  std::string label;
  Verdict verdict = Verdict::kUnauditable;
  std::vector<std::string> breaches;  ///< one line per breached threshold
  FidelityThresholds thresholds{};
  Baseline baseline{};
  DivergenceScores scores;
  trace::PingWorkload::Stats ping{};
  std::uint64_t lost_records = 0;  ///< records lost to buffer overruns
  std::uint64_t buffer_drops = 0;  ///< injected-pressure rejections

  bool passed() const { return verdict == Verdict::kPass; }
};

/// Calibration: runs the identical probe/tap/distill instruments over the
/// un-modulated testbed and returns the physical contribution to recovered
/// parameters.  Deterministic for a given config.
Baseline measure_baseline(const SecondOrderConfig& cfg,
                          sim::Duration run_for = sim::seconds(30));

/// Runs the full closed loop over one reference trace.
FidelityReport audit_trace(const core::ReplayTrace& reference,
                           const AuditConfig& cfg = {},
                           const std::string& label = "");

/// Feeds the report's counters and divergence series into a metrics
/// registry under the audit.* names (sim/metric_names.hpp).
void record_metrics(const FidelityReport& report,
                    sim::MetricsRegistry& metrics);

/// Packages the report as a telemetry snapshot -- audit.* counters and
/// divergence time-series plus an "audit/divergence" counter track -- so
/// the standard Perfetto / Prometheus / report exporters carry fidelity
/// data alongside trial telemetry.
sim::TelemetrySnapshot telemetry_snapshot(const FidelityReport& report);

/// Human-readable verdict section.
void write_fidelity_report(std::ostream& out, const FidelityReport& report);

/// Machine-readable verdict (schema "tracemod-fidelity-v1"), as a whole
/// document or as one value of an enclosing document.
void write_fidelity_json(std::ostream& out, const FidelityReport& report);
void write_fidelity_json(sim::JsonWriter& w, const FidelityReport& report);

}  // namespace tracemod::audit
