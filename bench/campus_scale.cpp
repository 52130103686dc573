// Campus scaling curve: events/sec versus host count on the sharded
// medium.  Emits BENCH_campus.json (schema tracemod-campus-bench-v1) so CI
// can track the curve and assert sub-quadratic scaling, the acceptance
// bar for the spatial-shard refactor (DESIGN.md section 11).
//
// Usage: campus_scale [--sizes 100,1000,10000] [--seconds S] [--threads T]
//                     [--out BENCH_campus.json]
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "report.hpp"
#include "scenarios/campus.hpp"
#include "sim/io/durable.hpp"
#include "version.hpp"

#include "build_guard.hpp"
#include "cli/flags.hpp"

using namespace tracemod;

namespace {

struct Point {
  std::size_t hosts = 0;
  scenarios::CampusResult result;
};

/// Least-squares slope of log(wall) against log(hosts): the empirical
/// scaling exponent.  Quadratic contention would push this toward 2;
/// the sharded medium should hold it well under that.
double scaling_exponent(const std::vector<Point>& pts) {
  if (pts.size() < 2) return 0.0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const Point& p : pts) {
    const double x = std::log(static_cast<double>(p.hosts));
    const double y = std::log(std::max(p.result.wall_s, 1e-9));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double n = static_cast<double>(pts.size());
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

bool write_json(const std::string& path, const std::vector<Point>& pts,
                double seconds, unsigned threads) {
  std::ostringstream out;
  out << "{\n"
      << "  \"schema\": \"tracemod-campus-bench-v1\",\n"
      << "  \"tool_version\": \"" << kToolVersion << "\",\n"
      << "  \"virtual_seconds\": " << seconds << ",\n"
      << "  \"threads\": " << threads << ",\n"
      << "  \"scaling_exponent\": " << scaling_exponent(pts) << ",\n"
      << "  \"points\": [\n";
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const scenarios::CampusResult& r = pts[i].result;
    out << "    {\"hosts\": " << pts[i].hosts
        << ", \"ok\": " << (r.ok ? "true" : "false")
        << ", \"wavepoints\": " << r.wavepoints
        << ", \"events\": " << r.events
        << ", \"frames_delivered\": " << r.frames_delivered
        << ", \"handoffs\": " << r.handoffs
        << ", \"wall_s\": " << r.wall_s
        << ", \"events_per_sec\": " << r.events_per_sec << "}"
        << (i + 1 < pts.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return sim::io::write_artifact_or_complain(path, out.str());
}

}  // namespace

int main(int argc, char** argv) {
  tracemod::bench::require_release_build(argc, argv);
  cli::Args args = cli::parse_main(argc, argv,
                                   {cli::kAllowDebug,
                                    {"--sizes", cli::Flag::kValue, "N,..."},
                                    {"--seconds", cli::Flag::kValue, "S"},
                                    {"--threads", cli::Flag::kValue, "T"},
                                    {"--out", cli::Flag::kValue, "FILE"}});
  std::vector<std::size_t> sizes = {100, 1000, 10000};
  double seconds = 30.0;
  unsigned threads = 0;
  std::string out_path = "BENCH_campus.json";
  std::string list;
  if (args.str("--sizes", &list)) {
    sizes.clear();
    for (const std::string& tok : cli::split(list, ',')) {
      std::size_t n = 0;
      if (!cli::parse_integer(tok, std::size_t{1},
                              std::numeric_limits<std::size_t>::max(), &n)) {
        args.fail("--sizes needs host counts >= 1, got '" + tok + "'");
        break;
      }
      sizes.push_back(n);
    }
  }
  args.number("--seconds", &seconds);
  args.threads("--threads", &threads);
  args.str("--out", &out_path);
  if (!args.ok()) return cli::kExitUsage;

  bench::heading("Campus scaling: events/sec vs hosts",
                 "sharded medium, " + std::to_string(seconds) +
                     " virtual seconds per point");
  bench::rowf("%8s %6s %12s %10s %12s %9s", "hosts", "wps", "events",
              "wall s", "events/s", "status");
  std::vector<Point> pts;
  bool all_ok = true;
  for (std::size_t n : sizes) {
    scenarios::CampusConfig cfg;
    cfg.hosts = n;
    cfg.horizon = sim::from_seconds(seconds);
    cfg.threads = threads;
    Point p;
    p.hosts = n;
    p.result = scenarios::run_campus(cfg);
    all_ok = all_ok && p.result.ok;
    bench::rowf("%8zu %6zu %12llu %10.2f %12.0f %9s", n, p.result.wavepoints,
                static_cast<unsigned long long>(p.result.events),
                p.result.wall_s, p.result.events_per_sec,
                p.result.ok ? "ok" : "STALLED");
    pts.push_back(p);
  }
  const double expo = scaling_exponent(pts);
  bench::rowf("scaling exponent (log wall / log hosts): %.2f  [%s]", expo,
              expo < 1.8 ? "sub-quadratic" : "QUADRATIC-ISH");
  if (!write_json(out_path, pts, seconds, threads)) return 2;
  bench::rowf("wrote %s", out_path.c_str());
  return all_ok ? 0 : 1;
}
