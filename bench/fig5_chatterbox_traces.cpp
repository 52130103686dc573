// Figure 5: Chatterbox traces (busy conference room).
//
// The collection host sits still in a room with five other laptops running
// a SynRGen edit-debug workload against NFS over the same cell.  No
// motion, so the figure reports distributions rather than paths.
//
// Paper's shape: signal level consistently high (typically ~18); despite
// that, latency and bandwidth are poorer than the other scenarios because
// of contention; loss rates reasonable.
#include "scenario_figure.hpp"

#include "build_guard.hpp"
#include "cli/flags.hpp"

using namespace tracemod;

int main(int argc, char** argv) {
  tracemod::bench::require_release_build(argc, argv);
  if (!cli::parse_main(argc, argv, {cli::kAllowDebug}).ok()) {
    return cli::kExitUsage;
  }
  bench::heading("Figure 5: Chatterbox Traces",
                 "distributions across 4 trials (stationary host, "
                 "5 SynRGen interferers)");
  const auto scenario = scenarios::chatterbox();
  const auto trials = bench::collect_trials(scenario, 4, 50'000);
  bench::print_histogram_figure(trials);
  return 0;
}
