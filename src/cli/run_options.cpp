#include "cli/run_options.hpp"

#include <cstdio>
#include <sstream>

#include "sim/io/durable.hpp"

namespace tracemod::cli {

bool arm_status(const Args& args, const std::string& driver,
                sim::status::StatusBoard* board) {
  std::string prefix;
  if (!args.str(kStatusFlag.name, &prefix)) return true;
  sim::status::StatusBoard::Config cfg;
  cfg.path = prefix + ".status";
  cfg.driver = driver;
  const std::string path = cfg.path;
  if (!board->configure(std::move(cfg))) {
    std::fprintf(stderr, "%s: cannot write status file '%s'\n",
                 driver.c_str(), path.c_str());
    return false;
  }
  std::printf("status: -> %s (poll with `tracemod status %s`)\n",
              path.c_str(), path.c_str());
  return true;
}

void write_fidelity_trajectory(
    std::ostream& out, const std::vector<audit::FidelityReport>& reports) {
  sim::JsonWriter w(out);
  w.begin_document("tracemod-fidelity-trajectory-v1", sim::json::kLines0)
      .begin_array("reports", sim::json::kDocuments);
  for (const audit::FidelityReport& r : reports) {
    audit::write_fidelity_json(w, r);
  }
  w.end_array().end_object();
}

RunOptions::RunOptions(const Args& args, const std::string& driver,
                       scenarios::ExperimentConfig& cfg) {
  if (const std::string* path = args.value(kAuditFlag.name)) {
    audit_path_ = path->empty() ? "BENCH_fidelity.json" : *path;
    cfg.audit.enabled = true;
  }
  if (args.str(kTelemetryFlag.name, &telemetry_prefix_)) {
    cfg.telemetry.enabled = true;
  }
  armed_ = arm_status(args, driver, &board_);
  if (board_.enabled()) cfg.status = &board_;
}

void RunOptions::add_audits(const std::vector<audit::FidelityReport>& reports,
                            const std::string& prefix) {
  for (audit::FidelityReport r : reports) {
    if (!prefix.empty()) r.label = prefix + "/" + r.label;
    audits_.push_back(std::move(r));
  }
}

void RunOptions::add_telemetry(
    const std::vector<scenarios::BenchmarkOutcome>& outcomes,
    const std::string& prefix) {
  for (auto& s : scenarios::labeled_telemetry(outcomes, prefix)) {
    snaps_.push_back(std::move(s));
  }
}

void RunOptions::set_units(const std::string& label, double total) {
  board_.set_units(label, total);
  board_.publish_now();
}

void RunOptions::step() {
  board_.add_units_done(1);
  board_.maybe_publish();
}

int RunOptions::write_artifacts() const {
  std::size_t breach = 0;
  if (auditing()) {
    std::size_t pass = 0, unauditable = 0;
    std::printf("\n%-25s %-12s | %8s %8s %8s %8s %6s\n", "audit", "verdict",
                "lat.err", "bw.err", "loss.d", "ks.rtt", "within");
    for (const audit::FidelityReport& r : audits_) {
      const auto& s = r.scores;
      std::printf("%-25s %-12s | %8.3f %8.3f %8.4f %8.3f %5.0f%%\n",
                  r.label.c_str(), audit::to_string(r.verdict),
                  s.latency_rel_err, s.bandwidth_rel_err, s.loss_delta,
                  s.ks_rtt, 100.0 * s.within_tolerance_fraction);
      for (const std::string& b : r.breaches) {
        std::printf("%-25s   breach: %s\n", "", b.c_str());
      }
      switch (r.verdict) {
        case audit::Verdict::kPass: ++pass; break;
        case audit::Verdict::kBreach: ++breach; break;
        case audit::Verdict::kUnauditable: ++unauditable; break;
      }
    }
    std::printf("audit: %zu pass, %zu breach, %zu unauditable\n", pass,
                breach, unauditable);
    std::ostringstream out;
    write_fidelity_trajectory(out, audits_);
    if (!sim::io::write_artifact_or_complain(audit_path_, out.str())) {
      return kExitIo;
    }
    std::printf("fidelity trajectory: -> %s\n", audit_path_.c_str());
  }
  if (!telemetry_prefix_.empty()) {
    const std::string json_path = telemetry_prefix_ + ".perfetto.json";
    const std::string metrics_path = telemetry_prefix_ + ".metrics.txt";
    std::ostringstream json;
    std::ostringstream metrics;
    sim::write_chrome_trace(json, snaps_);
    sim::write_metrics_text(metrics, snaps_);
    if (!sim::io::write_artifact_or_complain(json_path, json.str()) ||
        !sim::io::write_artifact_or_complain(metrics_path, metrics.str())) {
      return kExitIo;
    }
    std::printf("\ntelemetry: %zu snapshot(s) -> %s (load in "
                "ui.perfetto.dev) and %s\n",
                snaps_.size(), json_path.c_str(), metrics_path.c_str());
  }
  return breach > 0 ? kExitAudit : kExitOk;
}

int RunOptions::finish(int exit_code) {
  board_.finish(exit_code);
  return exit_code;
}

}  // namespace tracemod::cli
