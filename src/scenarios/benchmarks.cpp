#include "scenarios/benchmarks.hpp"

#include <chrono>
#include <optional>

#include "apps/ftp.hpp"
#include "apps/web.hpp"

namespace tracemod::scenarios {

const char* to_string(BenchmarkKind kind) {
  switch (kind) {
    case BenchmarkKind::kWeb: return "web";
    case BenchmarkKind::kFtpSend: return "ftp-send";
    case BenchmarkKind::kFtpRecv: return "ftp-recv";
    case BenchmarkKind::kAndrew: return "andrew";
  }
  return "?";
}

std::optional<BenchmarkKind> parse_benchmark_kind(std::string_view name) {
  for (const BenchmarkKind k : {BenchmarkKind::kWeb, BenchmarkKind::kFtpSend,
                                BenchmarkKind::kFtpRecv,
                                BenchmarkKind::kAndrew}) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

const char* to_string(RunStatus status) {
  switch (status) {
    case RunStatus::kCompleted: return "completed";
    case RunStatus::kDrained: return "drained";
    case RunStatus::kVirtualDeadline: return "virtual-deadline";
    case RunStatus::kWallStuck: return "wall-stuck";
  }
  return "?";
}

RunStatus run_event_loop_until(sim::EventLoop& loop, const bool& done,
                               sim::Duration timeout,
                               const WatchdogConfig& watchdog) {
  const sim::TimePoint deadline = loop.now() + timeout;
  const bool wall = watchdog.wall_budget_s > 0.0;
  sim::status::StatusBoard* status =
      watchdog.status != nullptr && watchdog.status->enabled()
          ? watchdog.status
          : nullptr;
  // One combined heartbeat predicate: with neither the watchdog nor status
  // enabled the loop body is branch-for-branch the historical one, so
  // status-off runs dispatch the identical sequence.
  const bool beat = wall || status != nullptr;
  const std::uint64_t interval =
      watchdog.wall_check_interval > 0 ? watchdog.wall_check_interval : 1;
  const auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t steps = 0;
  std::uint64_t reported = 0;
  // Reconciles the heartbeat's stride-granular accounting with the loop's
  // true end state, so the final published snapshot is exact.
  const auto leave = [&](RunStatus st) {
    if (status != nullptr && steps > reported) {
      status->note_dispatch(steps - reported, sim::to_seconds(loop.now()));
    }
    return st;
  };
  while (!done) {
    if (loop.now() >= deadline) return leave(RunStatus::kVirtualDeadline);
    if (!loop.step()) return leave(RunStatus::kDrained);
    if (beat) ++steps;
    if (beat && steps % interval == 0) {
      if (status != nullptr) {
        status->note_dispatch(steps - reported, sim::to_seconds(loop.now()));
        reported = steps;
      }
      if (wall) {
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - wall_start;
        if (elapsed.count() > watchdog.wall_budget_s) {
          return leave(RunStatus::kWallStuck);
        }
      }
    }
  }
  return leave(RunStatus::kCompleted);
}

BenchmarkOutcome run_benchmark(BenchmarkKind kind, transport::Host& client,
                               transport::Host& server_host,
                               net::IpAddress server_addr,
                               sim::EventLoop& loop, sim::Duration timeout,
                               const WatchdogConfig& watchdog) {
  BenchmarkOutcome outcome;
  bool done = false;
  RunStatus status = RunStatus::kDrained;

  switch (kind) {
    case BenchmarkKind::kWeb: {
      apps::WebServer server(server_host, 80);
      sim::Rng trace_rng(kWorkloadSeed);
      apps::WebBenchmark bench(client, net::Endpoint{server_addr, 80},
                               apps::make_search_task_trace(trace_rng,
                                                            kWebObjects));
      bench.start([&](apps::WebBenchmark::Result r) {
        outcome.ok = r.ok;
        outcome.elapsed_s = sim::to_seconds(r.elapsed);
        done = true;
      });
      status = run_event_loop_until(loop, done, timeout, watchdog);
      break;
    }
    case BenchmarkKind::kFtpSend:
    case BenchmarkKind::kFtpRecv: {
      apps::FtpServer server(server_host);
      apps::FtpClient ftp(client, net::Endpoint{server_addr, 21});
      auto on_done = [&](apps::FtpResult r) {
        outcome.ok = r.ok;
        outcome.elapsed_s = sim::to_seconds(r.elapsed);
        done = true;
      };
      if (kind == BenchmarkKind::kFtpSend) {
        ftp.store(kFtpBytes, on_done);
      } else {
        ftp.fetch(kFtpBytes, on_done);
      }
      status = run_event_loop_until(loop, done, timeout, watchdog);
      break;
    }
    case BenchmarkKind::kAndrew: {
      apps::AndrewConfig cfg;
      apps::NfsServer server(server_host, 2049);
      apps::populate_andrew_tree(server, cfg, kWorkloadSeed);
      apps::AndrewBenchmark bench(client, net::Endpoint{server_addr, 2049},
                                  cfg, kWorkloadSeed);
      bench.start([&](apps::AndrewResult r) {
        outcome.ok = r.ok;
        outcome.elapsed_s = r.total_s;
        outcome.andrew = r;
        done = true;
      });
      status = run_event_loop_until(loop, done, timeout, watchdog);
      break;
    }
  }
  outcome.completed = status == RunStatus::kCompleted;
  outcome.timed_out = status == RunStatus::kVirtualDeadline;
  outcome.wall_stuck = status == RunStatus::kWallStuck;
  return outcome;
}

}  // namespace tracemod::scenarios
