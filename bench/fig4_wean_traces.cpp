// Figure 4: Wean traces (traveling to classroom).
//
// Office with known poor connectivity (z0), hallway to the elevator
// (z0-z3), waiting (z3-z4), riding three floors (z4-z5), walking to the
// classroom (z5-z7).
//
// Paper's shape: signal variable but acceptable on the walk, quite good
// while waiting, dropping precipitously in the elevator, good again after;
// latency good except for a ~350 ms peak during the ride; bandwidth
// somewhat lower than Porter; loss low except during the ride, where it is
// atrocious.
#include "scenario_figure.hpp"

#include "build_guard.hpp"
#include "cli/flags.hpp"

using namespace tracemod;

int main(int argc, char** argv) {
  tracemod::bench::require_release_build(argc, argv);
  if (!cli::parse_main(argc, argv, {cli::kAllowDebug}).ok()) {
    return cli::kExitUsage;
  }
  bench::heading("Figure 4: Wean Traces",
                 "ranges across 4 trials per checkpoint interval\n"
                 "(z3..z4 = waiting for the elevator, z4..z5 = riding it)");
  const auto scenario = scenarios::wean();
  const auto trials = bench::collect_trials(scenario, 4, 40'000);
  bench::print_path_figure(scenario, trials);
  return 0;
}
