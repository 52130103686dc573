// The run options experiment drivers share: --audit[=FILE],
// --telemetry PREFIX and --status PREFIX.  sweep and the fig6/7/8 benches
// construct one RunOptions; tracemod's campus, perf and `distill
// --stream` use arm_status() alone.
//
// An absent flag leaves the ExperimentConfig untouched, so the run is
// bit-identical to one without the option.  A present flag:
//   --audit[=FILE]     audits every collected trace in its own world; at
//                      the end a verdict table prints and the reports go
//                      to FILE (default BENCH_fidelity.json) as a
//                      tracemod-fidelity-trajectory-v1 document;
//   --telemetry PREFIX records telemetry in every trial world; the
//                      snapshots merge, in the order they were added,
//                      into PREFIX.perfetto.json and PREFIX.metrics.txt;
//   --status PREFIX    publishes crash-safe tracemod-status-v1 snapshots
//                      to PREFIX.status (DESIGN.md section 14).
// Exit codes (README table): an unwritable status file is kExitIo before
// any work; a failed artifact write is kExitIo; a breached audit is
// kExitAudit.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "cli/flags.hpp"
#include "scenarios/experiment.hpp"
#include "sim/status/status.hpp"

namespace tracemod::cli {

inline constexpr Flag kAuditFlag{"--audit", Flag::kOptional, "FILE"};
inline constexpr Flag kTelemetryFlag{"--telemetry", Flag::kValue, "PREFIX"};
inline constexpr Flag kStatusFlag{"--status", Flag::kValue, "PREFIX"};

/// Arms `board` when --status PREFIX was given and says where it
/// publishes.  Returns false after diagnosing when the status file cannot
/// be written; the driver then exits kExitIo before any work.
bool arm_status(const Args& args, const std::string& driver,
                sim::status::StatusBoard* board);

/// The tracemod-fidelity-trajectory-v1 document: every report, in order.
void write_fidelity_trajectory(
    std::ostream& out, const std::vector<audit::FidelityReport>& reports);

class RunOptions {
 public:
  /// Reads the three flags and arms `cfg` to match.
  RunOptions(const Args& args, const std::string& driver,
             scenarios::ExperimentConfig& cfg);

  /// False when --status was given but its file cannot be written.
  bool armed() const { return armed_; }
  bool auditing() const { return !audit_path_.empty(); }

  /// Accumulates reports, labelled "<prefix>/<label>" when prefix is set.
  void add_audits(const std::vector<audit::FidelityReport>& reports,
                  const std::string& prefix);
  /// Accumulates the outcomes' snapshots labelled "<prefix>/trial<i>";
  /// outcomes without telemetry are skipped.
  void add_telemetry(const std::vector<scenarios::BenchmarkOutcome>& outcomes,
                     const std::string& prefix);

  /// Progress for drivers that count their own units.
  void set_units(const std::string& label, double total);
  void phase(const std::string& name) { board_.set_phase(name); }
  void step();

  /// Prints the verdict table and writes the trajectory, then writes the
  /// telemetry exports; each step runs only when its flag was given.
  /// Returns kExitIo on the first failed write, else kExitAudit when any
  /// report breached, else kExitOk.
  int write_artifacts() const;

  /// Publishes the terminal status snapshot; returns exit_code.
  int finish(int exit_code);

 private:
  std::string audit_path_;
  std::string telemetry_prefix_;
  std::vector<audit::FidelityReport> audits_;
  std::vector<sim::LabeledTelemetry> snaps_;
  sim::status::StatusBoard board_;
  bool armed_ = true;
};

}  // namespace tracemod::cli
