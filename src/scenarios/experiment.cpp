#include "scenarios/experiment.hpp"

#include <cmath>
#include <cstdio>
#include <optional>

#include "sim/perf/perf.hpp"
#include "sim/stats.hpp"

namespace tracemod::scenarios {

double measure_compensation_vb() { return core::Emulator::measure_physical_vb(); }

namespace {

/// The wall-clock watchdog engages only under supervision; a disabled
/// config keeps benchmark runs free of host-clock reads.
WatchdogConfig benchmark_watchdog(const ExperimentConfig& cfg) {
  WatchdogConfig wd;
  if (cfg.supervision.enabled) wd.wall_budget_s = cfg.supervision.wall_budget_s;
  wd.status = cfg.status;
  return wd;
}

}  // namespace

BenchmarkOutcome run_live_trial(const Scenario& scenario, BenchmarkKind kind,
                                const ExperimentConfig& cfg, int trial) {
  LiveTestbedConfig bed_cfg;
  bed_cfg.telemetry = cfg.telemetry;
  LiveTestbed bed(scenario, cfg.base_seed + static_cast<std::uint64_t>(trial),
                  bed_cfg);
  // The world's own perf profiler observes its dispatches for the run.
  std::optional<sim::perf::PerfSession> perf;
  if (cfg.telemetry.enabled) {
    perf.emplace(bed.context().telemetry().profiler());
  }
  BenchmarkOutcome out = run_benchmark(kind, bed.mobile(), bed.server(),
                                       bed.server_addr(), bed.loop(),
                                       cfg.supervision.virtual_budget,
                                       benchmark_watchdog(cfg));
  if (cfg.telemetry.enabled) {
    out.telemetry = std::make_shared<sim::TelemetrySnapshot>(
        sim::capture_telemetry(bed.context()));
  }
  return out;
}

core::ReplayTrace collect_replay_trace(const Scenario& scenario,
                                       const ExperimentConfig& cfg,
                                       int trial) {
  // Collection runs interleave with live trials in the paper; distinct
  // seeds keep the traversals independent.
  const std::uint64_t seed =
      cfg.base_seed + 500 + static_cast<std::uint64_t>(trial);
  core::Distiller distiller;
  return distiller.distill(collect_raw_trace(scenario, seed, cfg.status));
}

BenchmarkOutcome run_modulated_trial(const core::ReplayTrace& trace,
                                     BenchmarkKind kind,
                                     const ExperimentConfig& cfg, int trial) {
  return run_modulated_benchmark(
      trace, kind, cfg.base_seed + 900 + static_cast<std::uint64_t>(trial),
      cfg.tick, cfg.compensate ? cfg.compensation_vb : 0.0, cfg.telemetry,
      cfg.supervision.virtual_budget, benchmark_watchdog(cfg));
}

BenchmarkOutcome run_ethernet_trial(BenchmarkKind kind,
                                    const ExperimentConfig& cfg, int trial) {
  // An empty replay trace leaves the modulation layer transparent: this
  // is the bare isolated Ethernet.
  return run_modulated_benchmark(
      core::ReplayTrace{}, kind,
      cfg.base_seed + 1300 + static_cast<std::uint64_t>(trial), cfg.tick, 0.0,
      cfg.telemetry, cfg.supervision.virtual_budget, benchmark_watchdog(cfg));
}

audit::FidelityReport run_trace_audit(const core::ReplayTrace& trace,
                                      const ExperimentConfig& cfg, int trial,
                                      const std::string& label) {
  audit::AuditConfig acfg;
  acfg.second_order.emulator.seed =
      cfg.base_seed + 1700 + static_cast<std::uint64_t>(trial);
  acfg.second_order.emulator.modulation.tick = cfg.tick;
  // The audit measures the *uncompensated* modulation contract, even when
  // trials run with delay compensation.  Compensation is an
  // endpoint-placement correction for benchmark traffic crossing the
  // physical testbed path; under the probe workload it makes the inbound
  // reply spacing straddle the round-to-nearest tick boundary (the shared
  // bottleneck queue compresses replies to ~s2*Vb apart), so recovered Vb
  // turns phase-bimodal and stops measuring the emulated bottleneck.  The
  // tick, the trace, and the seeds still come from the trial config, so a
  // misconfigured quantum or a corrupt trace is still caught.
  acfg.second_order.emulator.modulation.inbound_vb_compensation = 0.0;
  acfg.thresholds = cfg.audit.thresholds;
  return audit::audit_trace(trace, acfg, label);
}

std::vector<BenchmarkOutcome> run_live_trials(const Scenario& scenario,
                                              BenchmarkKind kind,
                                              const ExperimentConfig& cfg) {
  std::vector<BenchmarkOutcome> outcomes;
  for (int t = 0; t < cfg.trials; ++t) {
    outcomes.push_back(run_live_trial(scenario, kind, cfg, t));
  }
  return outcomes;
}

trace::CollectedTrace collect_raw_trace(const Scenario& scenario,
                                        std::uint64_t seed,
                                        sim::status::StatusBoard* status) {
  LiveTestbed bed(scenario, seed);
  return bed.collect_trace(status);
}

std::vector<core::ReplayTrace> collect_replay_traces(
    const Scenario& scenario, const ExperimentConfig& cfg) {
  std::vector<core::ReplayTrace> traces;
  for (int t = 0; t < cfg.trials; ++t) {
    traces.push_back(collect_replay_trace(scenario, cfg, t));
  }
  return traces;
}

BenchmarkOutcome run_modulated_benchmark(
    const core::ReplayTrace& trace, BenchmarkKind kind, std::uint64_t seed,
    sim::Duration tick, double inbound_vb_compensation,
    const sim::TelemetryConfig& telemetry, sim::Duration timeout,
    const WatchdogConfig& watchdog) {
  core::EmulatorConfig ecfg;
  ecfg.seed = seed;
  ecfg.modulation.tick = tick;
  ecfg.modulation.inbound_vb_compensation = inbound_vb_compensation;
  ecfg.telemetry = telemetry;
  core::Emulator emulator(trace, ecfg);
  std::optional<sim::perf::PerfSession> perf;
  if (telemetry.enabled) {
    perf.emplace(emulator.context().telemetry().profiler());
  }
  BenchmarkOutcome out =
      run_benchmark(kind, emulator.mobile(), emulator.server(),
                    ecfg.server_addr, emulator.loop(), timeout, watchdog);
  if (telemetry.enabled) {
    out.telemetry = std::make_shared<sim::TelemetrySnapshot>(
        sim::capture_telemetry(emulator.context()));
  }
  return out;
}

std::vector<BenchmarkOutcome> run_modulated_trials(
    const std::vector<core::ReplayTrace>& traces, BenchmarkKind kind,
    const ExperimentConfig& cfg) {
  std::vector<BenchmarkOutcome> outcomes;
  int t = 0;
  for (const core::ReplayTrace& trace : traces) {
    outcomes.push_back(run_modulated_trial(trace, kind, cfg, t++));
  }
  return outcomes;
}

std::vector<BenchmarkOutcome> run_ethernet_trials(
    BenchmarkKind kind, const ExperimentConfig& cfg) {
  std::vector<BenchmarkOutcome> outcomes;
  for (int t = 0; t < cfg.trials; ++t) {
    outcomes.push_back(run_ethernet_trial(kind, cfg, t));
  }
  return outcomes;
}

std::vector<audit::FidelityReport> run_trace_audits(
    const std::vector<core::ReplayTrace>& traces, const ExperimentConfig& cfg,
    const std::string& label_prefix) {
  std::vector<audit::FidelityReport> reports;
  int t = 0;
  for (const core::ReplayTrace& trace : traces) {
    const std::string label = label_prefix.empty()
                                  ? "trial" + std::to_string(t)
                                  : label_prefix + "/trial" + std::to_string(t);
    reports.push_back(run_trace_audit(trace, cfg, t, label));
    ++t;
  }
  return reports;
}

std::vector<sim::LabeledTelemetry> labeled_telemetry(
    const std::vector<BenchmarkOutcome>& outcomes, const std::string& prefix) {
  std::vector<sim::LabeledTelemetry> out;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].telemetry == nullptr) continue;
    out.push_back(sim::LabeledTelemetry{
        prefix + "/trial" + std::to_string(i), outcomes[i].telemetry});
  }
  return out;
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  s.mean = sim::mean_of(values);
  s.stddev = sim::stddev_of(values);
  return s;
}

Summary summarize_elapsed(const std::vector<BenchmarkOutcome>& outcomes) {
  std::vector<double> values;
  for (const auto& o : outcomes) values.push_back(o.elapsed_s);
  return summarize(values);
}

std::string cell(const Summary& s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f (%.2f)", s.mean, s.stddev);
  return buf;
}

bool within_error(const Summary& a, const Summary& b) {
  return std::abs(a.mean - b.mean) <= a.stddev + b.stddev;
}

double off_by_factor(const Summary& a, const Summary& b) {
  const double sd_sum = a.stddev + b.stddev;
  if (sd_sum <= 0.0) return std::abs(a.mean - b.mean) > 0 ? 1e9 : 0.0;
  return std::abs(a.mean - b.mean) / sd_sum;
}

std::string check_label(const Summary& a, const Summary& b) {
  if (within_error(a, b)) return "within error";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "off by %.2fx sd-sum", off_by_factor(a, b));
  return buf;
}

}  // namespace tracemod::scenarios
