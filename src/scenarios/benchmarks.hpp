// Benchmark runners (paper Section 4.2).
//
// Each runner stands up the needed server on the server host, drives the
// client, and runs the event loop until the benchmark completes.  The same
// code runs against a live wireless testbed and a modulated Ethernet one --
// the transparency the paper's methodology promises.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "apps/andrew.hpp"
#include "net/ip_address.hpp"
#include "sim/event_loop.hpp"
#include "sim/status/status.hpp"
#include "sim/telemetry.hpp"
#include "transport/host.hpp"

namespace tracemod::scenarios {

enum class BenchmarkKind { kWeb, kFtpSend, kFtpRecv, kAndrew };

const char* to_string(BenchmarkKind kind);
/// The inverse of to_string; nullopt for an unknown name.
std::optional<BenchmarkKind> parse_benchmark_kind(std::string_view name);

struct BenchmarkOutcome {
  bool ok = false;
  /// True when the benchmark's completion callback fired.  A false value
  /// means the outcome is partial (deadline, watchdog, or drained event
  /// queue) and must never be reported as a clean result.
  bool completed = false;
  /// The virtual-time budget expired before completion.
  bool timed_out = false;
  /// The wall-clock stuck-trial watchdog abandoned the run.
  bool wall_stuck = false;
  double elapsed_s = 0.0;
  apps::AndrewResult andrew;  ///< populated for kAndrew only
  /// The trial's captured telemetry; null unless the trial ran with
  /// telemetry enabled.  Shared so outcomes stay cheap to copy.
  std::shared_ptr<const sim::TelemetrySnapshot> telemetry;
};

/// Wall-clock stuck-trial watchdog for a benchmark run.  The event loop's
/// own dispatch acts as the heartbeat: every wall_check_interval dispatches
/// the host clock is compared against the budget, so a world that stops
/// advancing virtual time (a zero-delay livelock) is still abandoned -- no
/// extra threads per trial.  wall_budget_s == 0 disables the watchdog and
/// keeps the run free of host-clock reads (bit-identical wall behaviour).
struct WatchdogConfig {
  double wall_budget_s = 0.0;
  std::uint64_t wall_check_interval = 4096;
  /// Live status board fed by the same dispatch heartbeat (events
  /// dispatched + the world's virtual clock, every wall_check_interval
  /// dispatches).  Null (the default) keeps the loop free of status code;
  /// non-null adds only host-clock reads and never touches virtual time.
  sim::status::StatusBoard* status = nullptr;
};

/// Why a benchmark's event-loop drive returned.
enum class RunStatus {
  kCompleted,        ///< the done flag was set
  kDrained,          ///< event queue empty before completion
  kVirtualDeadline,  ///< virtual-time budget expired
  kWallStuck,        ///< wall-clock watchdog fired
};

const char* to_string(RunStatus status);

/// Steps the loop until `done` is set, the virtual deadline passes, the
/// queue drains, or the wall-clock watchdog fires.  (Plain run_until would
/// simulate hours of idle interferer traffic after the benchmark finishes.)
/// With the watchdog disabled, the dispatch sequence is identical to the
/// historical deadline loop.
RunStatus run_event_loop_until(sim::EventLoop& loop, const bool& done,
                               sim::Duration timeout,
                               const WatchdogConfig& watchdog = {});

/// Workload seeds are fixed so every trial replays the identical workload
/// (the paper replays the same Web reference traces and the same source
/// tree); only the network varies between trials.
inline constexpr std::uint64_t kWorkloadSeed = 7777;

/// FTP transfers 10 MB disk-to-disk, as in Figure 7.
inline constexpr std::uint64_t kFtpBytes = 10ull * 1000 * 1000;

/// Number of objects in the replayed Web reference traces (five users'
/// search tasks).
inline constexpr std::size_t kWebObjects = 550;

BenchmarkOutcome run_benchmark(BenchmarkKind kind, transport::Host& client,
                               transport::Host& server_host,
                               net::IpAddress server_addr,
                               sim::EventLoop& loop,
                               sim::Duration timeout = sim::seconds(7200),
                               const WatchdogConfig& watchdog = {});

}  // namespace tracemod::scenarios
