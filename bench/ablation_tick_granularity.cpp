// Ablation: scheduling granularity (paper Section 3.3 / 5.4).
//
// The modulation layer schedules packet releases on clock ticks; delays
// under half a tick send immediately.  This sweep replays one Wean trace
// under tick resolutions from ideal (0) to 50 ms and reports the Andrew
// phases and an FTP transfer.  The paper's conjecture: the 10 ms NetBSD
// tick under-delays the short NFS status checks (ScanDir/ReadAll) but
// barely touches bulk transfers; coarser ticks make both worse.
#include "report.hpp"
#include "scenarios/experiment.hpp"

#include "build_guard.hpp"
#include "cli/flags.hpp"

using namespace tracemod;
using namespace tracemod::scenarios;

int main(int argc, char** argv) {
  tracemod::bench::require_release_build(argc, argv);
  if (!cli::parse_main(argc, argv, {cli::kAllowDebug}).ok()) {
    return cli::kExitUsage;
  }
  bench::heading("Ablation: modulation scheduling granularity",
                 "one Wean replay trace; tick resolution swept");

  ExperimentConfig cfg;
  const auto scenario = wean();
  core::Distiller distiller;
  const core::ReplayTrace trace =
      distiller.distill(collect_raw_trace(scenario, 60'000));
  const double comp = measure_compensation_vb();

  // Live reference for the same seed family.
  {
    LiveTestbed bed(scenario, 60'001);
    const auto live = run_benchmark(BenchmarkKind::kAndrew, bed.mobile(),
                                    bed.server(), bed.server_addr(),
                                    bed.loop());
    bench::rowf("%-12s scandir=%6.2fs readall=%6.2fs total=%7.2fs (live ref)",
                "live", live.andrew.scandir_s, live.andrew.readall_s,
                live.andrew.total_s);
  }

  bench::rowf("%-12s %10s %10s %10s | %10s %14s %14s", "tick", "scandir(s)",
              "readall(s)", "total(s)", "ftp(s)", "sub-tick pkts",
              "scheduled pkts");
  for (const auto tick_ms : {0, 1, 10, 50}) {
    const sim::Duration tick = sim::milliseconds(tick_ms);
    const auto andrew = run_modulated_benchmark(
        trace, BenchmarkKind::kAndrew, 61'000 + tick_ms, tick, comp);
    const auto ftp = run_modulated_benchmark(
        trace, BenchmarkKind::kFtpRecv, 62'000 + tick_ms, tick, comp);
    char label[32];
    std::snprintf(label, sizeof(label), tick_ms == 0 ? "ideal" : "%d ms",
                  tick_ms);
    bench::rowf("%-12s %10.2f %10.2f %10.2f | %10.2f", label,
                andrew.andrew.scandir_s, andrew.andrew.readall_s,
                andrew.andrew.total_s, ftp.elapsed_s);
  }
  bench::rowf(
      "\nExpected shape: ScanDir/ReadAll grow toward the live reference as\n"
      "the tick shrinks (an ideal clock schedules every short delay); FTP\n"
      "is insensitive because its delays are far above every threshold.");
  return 0;
}
