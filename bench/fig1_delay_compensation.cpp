// Figure 1: Effect of Delay Compensation.
//
// Replays a synthetic trace whose performance is close to a WaveLAN device
// and runs FTP transfers of varying sizes, both directions:
//   - Store (outbound): unaffected by compensation;
//   - Fetch without compensation: the endpoint-placement artifact charges
//     inbound traffic the physical network's serialization on top of the
//     emulated bottleneck, so throughput is visibly lower;
//   - Fetch with compensation: the measured physical per-byte cost is
//     subtracted, pulling fetch back to store.
// A second sweep over a much slower synthetic network confirms that the
// compensation constant depends only on the modulation setup, not on the
// traced network (the paper's validation of that claim).
#include <vector>

#include "apps/ftp.hpp"
#include "core/emulator.hpp"
#include "report.hpp"

#include "build_guard.hpp"
#include "cli/flags.hpp"

using namespace tracemod;

namespace {

double run_ftp(const core::ReplayTrace& trace, std::uint64_t bytes,
               bool fetch, bool compensate, double comp_vb,
               std::uint64_t seed) {
  core::EmulatorConfig cfg;
  cfg.seed = seed;
  cfg.loop_trace = true;  // transfers outlast the synthetic trace
  cfg.modulation.inbound_vb_compensation = compensate ? comp_vb : 0.0;
  core::Emulator emulator(trace, cfg);

  apps::FtpServer server(emulator.server());
  apps::FtpClient client(emulator.mobile(), {cfg.server_addr, 21});
  double elapsed = -1.0;
  bool done = false;
  auto cb = [&](apps::FtpResult r) {
    elapsed = r.ok ? sim::to_seconds(r.elapsed) : -1.0;
    done = true;
  };
  if (fetch) {
    client.fetch(bytes, cb);
  } else {
    client.store(bytes, cb);
  }
  while (!done && emulator.loop().step()) {
  }
  return elapsed;
}

void sweep(const char* label, const core::ReplayTrace& trace,
           double comp_vb) {
  bench::rowf("%s", label);
  bench::rowf("%8s %12s %16s %16s %10s", "size(MB)", "store(s)",
              "fetch-uncomp(s)", "fetch-comp(s)", "comp/store");
  for (std::uint64_t mb : {1, 2, 4, 6, 8, 10}) {
    const std::uint64_t bytes = mb * 1000 * 1000;
    const double store = run_ftp(trace, bytes, false, false, comp_vb, 11 + mb);
    const double fetch_u = run_ftp(trace, bytes, true, false, comp_vb, 22 + mb);
    const double fetch_c = run_ftp(trace, bytes, true, true, comp_vb, 33 + mb);
    bench::rowf("%8llu %12.2f %16.2f %16.2f %9.2f%%",
                static_cast<unsigned long long>(mb), store, fetch_u, fetch_c,
                100.0 * fetch_c / store);
  }
}

}  // namespace

int main(int argc, char** argv) {
  tracemod::bench::require_release_build(argc, argv);
  if (!cli::parse_main(argc, argv, {cli::kAllowDebug}).ok()) {
    return cli::kExitUsage;
  }
  bench::heading(
      "Figure 1: Effect of Delay Compensation",
      "FTP elapsed times over a synthetic trace; a perfect realization of "
      "the\ndelay model would give identical Fetch and Store curves.");

  const double comp_vb = core::Emulator::measure_physical_vb();
  bench::rowf("measured physical network Vb: %.3f us/byte "
              "(10 Mb/s Ethernet ~ 0.8 us/byte)",
              comp_vb * 1e6);

  // The paper's synthetic trace: performance close to a WaveLAN device.
  // Loss is left out so the curves isolate the delay asymmetry, as in the
  // paper's smooth Figure 1.
  sweep("\n-- WaveLAN-like synthetic trace (1.5 Mb/s, 3 ms, no loss) --",
        core::ReplayTrace::constant(sim::seconds(60), sim::seconds(1), 0.003,
                                    1.5e6, 0.0),
        comp_vb);

  // Validation that compensation is independent of the traced network:
  // a much slower network, same compensation constant.
  sweep("\n-- much slower synthetic trace (250 kb/s, 20 ms, no loss) --",
        core::ReplayTrace::constant(sim::seconds(60), sim::seconds(1), 0.020,
                                    250e3, 0.0),
        comp_vb);

  bench::rowf("\nExpected shape (paper): uncompensated fetch visibly below "
              "store;\ncompensated fetch ~ store; the effect shrinks on the "
              "slow network\n(physical Vb is a smaller fraction of the "
              "emulated Vb).");
  return 0;
}
