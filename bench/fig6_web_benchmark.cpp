// Figure 6: Elapsed Times for the World Wide Web Benchmark.
//
// Web reference traces are replayed as fast as possible against a private
// server: four live trials per scenario, four collected traces distilled
// and replayed for four modulated trials, plus the bare-Ethernet row.
// The paper's accuracy criterion: the difference between real and
// modulated means is within the sum of their standard deviations.
#include "cli/run_options.hpp"
#include "report.hpp"
#include "scenarios/parallel_runner.hpp"

#include "build_guard.hpp"

using namespace tracemod;
using namespace tracemod::scenarios;

namespace {
struct PaperRow {
  const char* scenario;
  double real_mean, real_sd, mod_mean, mod_sd;
};
constexpr PaperRow kPaper[] = {
    {"Wean", 161.47, 7.82, 160.04, 2.60},
    {"Porter", 159.83, 5.07, 150.65, 5.83},
    {"Flagstaff", 157.82, 6.58, 148.64, 9.61},
    {"Chatterbox", 169.07, 17.63, 157.62, 10.18},
};
constexpr double kPaperEthernet = 140.30;
constexpr double kPaperEthernetSd = 3.07;
}  // namespace

int main(int argc, char** argv) {
  tracemod::bench::require_release_build(argc, argv);
  const cli::Args args =
      cli::parse_main(argc, argv,
                      {cli::kAllowDebug, cli::kAuditFlag, cli::kTelemetryFlag,
                       cli::kStatusFlag});
  if (!args.ok()) return cli::kExitUsage;
  ExperimentConfig cfg;
  cli::RunOptions run(args, "fig6-web", cfg);
  if (!run.armed()) return cli::kExitIo;
  bench::heading("Figure 6: Elapsed Times for World Wide Web Benchmark",
                 "mean (stddev) seconds over 4 trials");
  run.set_units("scenarios", static_cast<double>(all_scenarios().size() + 1));
  cfg.compensation_vb = measure_compensation_vb();
  ParallelRunner runner;
  bench::rowf("%-11s | %18s %18s | %18s %18s | %s", "scenario", "real(s)",
              "modulated(s)", "paper real", "paper mod", "check");

  for (const Scenario& s : all_scenarios()) {
    run.phase(s.name);
    const auto c = runner.experiment(s, BenchmarkKind::kWeb, cfg);
    run.step();
    run.add_telemetry(c.live, s.name + "/live");
    run.add_telemetry(c.modulated, s.name + "/mod");
    run.add_audits(c.audits, s.name);
    const Summary r = summarize_elapsed(c.live);
    const Summary m = summarize_elapsed(c.modulated);
    const PaperRow* p = nullptr;
    for (const auto& row : kPaper) {
      if (s.name == row.scenario) p = &row;
    }
    bench::rowf("%-11s | %18s %18s | %9.2f (%5.2f) %9.2f (%5.2f) | %s",
                s.name.c_str(), cell(r).c_str(), cell(m).c_str(),
                p->real_mean, p->real_sd, p->mod_mean, p->mod_sd,
                check_label(r, m).c_str());
  }
  run.phase("ethernet");
  const auto eth_trials = runner.ethernet_trials(BenchmarkKind::kWeb, cfg);
  run.step();
  run.add_telemetry(eth_trials, "ethernet");
  const Summary eth = summarize_elapsed(eth_trials);
  bench::rowf("%-11s | %18s %18s | %9.2f (%5.2f) %18s |", "Ethernet",
              cell(eth).c_str(), "-", kPaperEthernet, kPaperEthernetSd, "-");
  bench::rowf(
      "\nExpected shape: all four scenarios within error; every wireless\n"
      "scenario slower than Ethernet; Chatterbox the most variable.");
  return run.finish(run.write_artifacts());
}
