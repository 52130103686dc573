// The live wireless testbed: what the paper's experimenters walked around
// campus with.
//
// Builds, for a given scenario and trial seed: the signal model and shared
// wireless channel, the WavePoints bridging to a campus Ethernet, the
// mobile host (WaveLAN device under a trace tap, drifting clock), the
// wired server, and any SynRGen interferer laptops.  Both trace-collection
// traversals and live benchmark runs use this testbed; only the traffic on
// top differs.
#pragma once

#include <memory>
#include <vector>

#include "apps/nfs.hpp"
#include "apps/synrgen.hpp"
#include "net/ethernet.hpp"
#include "scenarios/scenario.hpp"
#include "sim/clock_model.hpp"
#include "sim/sim_context.hpp"
#include "sim/status/status.hpp"
#include "trace/ping.hpp"
#include "trace/trace_tap.hpp"
#include "transport/host.hpp"
#include "wireless/wavelan_device.hpp"
#include "wireless/wavepoint.hpp"

namespace tracemod::scenarios {

struct LiveTestbedConfig {
  transport::TcpConfig tcp{};
  /// The collection host's clock imperfection (paper Section 3.2.2).
  sim::ClockModel::Config mobile_clock{50.0 /*ppm*/, {},
                                       sim::microseconds(20)};
  net::IpAddress mobile_addr = net::IpAddress(10, 1, 0, 2);
  net::IpAddress server_addr = net::IpAddress(10, 1, 0, 1);
  /// Observability (sim/telemetry.hpp); disabled by default, in which case
  /// the testbed behaves bit-identically to a build without it.
  sim::TelemetryConfig telemetry{};
};

class LiveTestbed {
 public:
  LiveTestbed(const Scenario& scenario, std::uint64_t seed,
              LiveTestbedConfig cfg = {});

  sim::SimContext& context() { return ctx_; }
  sim::EventLoop& loop() { return ctx_.loop(); }
  transport::Host& mobile() { return *mobile_; }
  transport::Host& server() { return *server_; }
  net::IpAddress server_addr() const { return cfg_.server_addr; }
  const wireless::MobilityModel& mobility() const { return mobility_; }
  wireless::WirelessChannel& channel() { return *channel_; }
  trace::TraceTap& tap() { return *tap_; }
  sim::ClockModel& mobile_clock() { return clock_; }
  const Scenario& scenario() const { return scenario_; }

  /// Runs the paper's collection traversal: ping workload + trace tap for
  /// the scenario's collection duration.  Returns the collected trace.
  /// An enabled `status` board is told the traversal's dispatches when it
  /// ends; a null or disabled one costs one branch.
  trace::CollectedTrace collect_trace(
      sim::status::StatusBoard* status = nullptr);

 private:
  Scenario scenario_;
  LiveTestbedConfig cfg_;
  sim::SimContext ctx_;  ///< this testbed's isolated simulation context
  sim::ClockModel clock_;
  wireless::MobilityModel mobility_;
  std::unique_ptr<wireless::WirelessChannel> channel_;
  std::unique_ptr<net::EthernetSegment> backbone_;
  std::vector<std::unique_ptr<wireless::WavePoint>> wavepoints_;
  std::unique_ptr<transport::Host> mobile_;
  std::unique_ptr<transport::Host> server_;
  trace::TraceTap* tap_ = nullptr;  // owned by the mobile's node

  // Chatterbox interferers.
  std::unique_ptr<apps::NfsServer> interferer_nfs_;
  std::vector<std::unique_ptr<transport::Host>> interferer_hosts_;
  std::vector<std::unique_ptr<apps::SynRGenUser>> interferer_users_;
};

}  // namespace tracemod::scenarios
