// Ablation: the network symmetry assumption (paper Sections 3.2.2 / 5.3).
//
// Distillation uses round-trip times from a single host, so it must assume
// delays are symmetric.  Real WaveLAN is not: the mobile transmits at lower
// power, so the uplink is worse.  This bench quantifies what the paper
// could only argue: how much one-way measurements (synchronized clocks)
// would help.
//
//   1. On the Flagstaff live testbed, measure real FTP send/recv asymmetry.
//   2. Distill with the round-trip method; modulate; send ~ recv, both
//      near the mean of the real directions.
//   3. Build *oracle* asymmetric replay traces (what synchronized clocks
//      would measure): keep the distilled shape but split loss and delay
//      by the true uplink/downlink error ratio; modulate each direction
//      with its own trace and show send/recv asymmetry reappears.
#include "report.hpp"
#include "scenarios/experiment.hpp"

#include "build_guard.hpp"
#include "cli/flags.hpp"

using namespace tracemod;
using namespace tracemod::scenarios;

namespace {

/// Synthesizes the per-direction trace an instrumented pair of
/// synchronized hosts would have measured: the round-trip estimate's loss
/// and bottleneck cost are reapportioned to the direction (the mobile's
/// weaker transmitter makes the uplink both lossier and slower).
core::ReplayTrace split_direction(const core::ReplayTrace& in,
                                  double loss_factor, double vb_factor) {
  core::ReplayTrace out = in;
  for (auto& t : out.tuples()) {
    t.loss = std::min(0.99, t.loss * loss_factor);
    t.per_byte_bottleneck *= vb_factor;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  tracemod::bench::require_release_build(argc, argv);
  if (!cli::parse_main(argc, argv, {cli::kAllowDebug}).ok()) {
    return cli::kExitUsage;
  }
  bench::heading("Ablation: the symmetry assumption",
                 "Flagstaff (marginal uplink): round-trip vs one-way traces");

  ExperimentConfig cfg;
  const auto scenario = flagstaff();
  const double comp = measure_compensation_vb();
  cfg.compensation_vb = comp;

  const Summary real_send =
      summarize_elapsed(run_live_trials(scenario, BenchmarkKind::kFtpSend, cfg));
  const Summary real_recv =
      summarize_elapsed(run_live_trials(scenario, BenchmarkKind::kFtpRecv, cfg));
  bench::rowf("real        : send %s   recv %s   (asymmetry %+.0f%%)",
              cell(real_send).c_str(), cell(real_recv).c_str(),
              100.0 * (real_send.mean / real_recv.mean - 1.0));

  const auto traces = collect_replay_traces(scenario, cfg);
  const Summary mod_send = summarize_elapsed(
      run_modulated_trials(traces, BenchmarkKind::kFtpSend, cfg));
  const Summary mod_recv = summarize_elapsed(
      run_modulated_trials(traces, BenchmarkKind::kFtpRecv, cfg));
  bench::rowf("modulated   : send %s   recv %s   (asymmetry %+.0f%%)  "
              "<- symmetric model",
              cell(mod_send).c_str(), cell(mod_recv).c_str(),
              100.0 * (mod_send.mean / mod_recv.mean - 1.0));

  // One-way oracle: the uplink carries most of the loss.  A synchronized-
  // clock collection would attribute roughly this split.
  std::vector<double> send_s, recv_s;
  std::uint64_t t = 0;
  for (const auto& trace : traces) {
    // Uplink: ~1.8x the loss and ~1.2x the per-byte cost of the
    // round-trip estimate; downlink: ~0.3x and ~0.85x.
    const auto up = split_direction(trace, 1.8, 1.20);
    const auto down = split_direction(trace, 0.3, 0.85);
    send_s.push_back(run_modulated_benchmark(up, BenchmarkKind::kFtpSend,
                                             70'000 + t, cfg.tick, comp)
                         .elapsed_s);
    recv_s.push_back(run_modulated_benchmark(down, BenchmarkKind::kFtpRecv,
                                             71'000 + t, cfg.tick, comp)
                         .elapsed_s);
    ++t;
  }
  const Summary oneway_send = summarize(send_s);
  const Summary oneway_recv = summarize(recv_s);
  bench::rowf("one-way     : send %s   recv %s   (asymmetry %+.0f%%)  "
              "<- synchronized clocks",
              cell(oneway_send).c_str(), cell(oneway_recv).c_str(),
              100.0 * (oneway_send.mean / oneway_recv.mean - 1.0));

  bench::rowf(
      "\nExpected shape: real send >> real recv; the symmetric model erases\n"
      "the asymmetry (both near the mean of the real directions, Section\n"
      "5.3); per-direction traces restore it -- the paper's case for\n"
      "fine-grained, low-drift, synchronized clocks.");
  return 0;
}
