// Figure 3: Flagstaff traces (outdoor travel).
//
// Four traversals leaving Porter Hall (y0-y1), along Schenley Park
// (y1-y5), then around Flagstaff Hill (y5-y9), always outdoors.
//
// Paper's shape: signal somewhat below Porter, falling sharply on entering
// the park and staying roughly constant at a low level; latency better
// than Porter overall; average bandwidth somewhat better than Porter;
// loss significantly worse than Porter, particularly late in the path.
#include "scenario_figure.hpp"

#include "build_guard.hpp"
#include "cli/flags.hpp"

using namespace tracemod;

int main(int argc, char** argv) {
  tracemod::bench::require_release_build(argc, argv);
  if (!cli::parse_main(argc, argv, {cli::kAllowDebug}).ok()) {
    return cli::kExitUsage;
  }
  bench::heading("Figure 3: Flagstaff Traces",
                 "ranges across 4 trials per checkpoint interval");
  const auto scenario = scenarios::flagstaff();
  const auto trials = bench::collect_trials(scenario, 4, 30'000);
  bench::print_path_figure(scenario, trials);
  return 0;
}
