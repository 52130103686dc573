// Figure 2: Porter traces (inter-building travel).
//
// Four traversals of the Porter scenario: Wean Hall lobby (x0) -> outdoor
// patio (x1-x3) -> Porter Hall (x4-x6).  At each location the paper plots
// the range of observations across trials; we print that range per
// checkpoint interval.
//
// Paper's shape: signal highly variable initially, improving across the
// patio, falling off through Porter Hall and turning variable near x5;
// latency typically 1.5-10 ms with spikes toward 100 ms; bandwidth
// typically 1.4-1.6 Mb/s with dips toward 900 kb/s; loss usually < 10%,
// worst early on the patio and at the end of Porter Hall.
#include "scenario_figure.hpp"

#include "build_guard.hpp"
#include "cli/flags.hpp"

using namespace tracemod;

int main(int argc, char** argv) {
  tracemod::bench::require_release_build(argc, argv);
  if (!cli::parse_main(argc, argv, {cli::kAllowDebug}).ok()) {
    return cli::kExitUsage;
  }
  bench::heading("Figure 2: Porter Traces",
                 "ranges across 4 trials per checkpoint interval");
  const auto scenario = scenarios::porter();
  const auto trials = bench::collect_trials(scenario, 4, 20'000);
  bench::print_path_figure(scenario, trials);

  std::size_t total_groups = 0, corrected = 0;
  for (const auto& t : trials) {
    core::Distiller d;
    d.distill(t.raw);
    total_groups += d.stats().groups_total;
    corrected += d.stats().groups_corrected;
  }
  bench::rowf("\n%zu ping groups across trials, %zu corrected (%.1f%%)",
              total_groups, corrected,
              100.0 * static_cast<double>(corrected) /
                  static_cast<double>(std::max<std::size_t>(total_groups, 1)));
  return 0;
}
