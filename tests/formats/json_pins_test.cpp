// Byte pins for the library JSON writers: the sweep result, the fidelity
// verdict and trajectory, the perf report and the status document.  Each
// writer is fed fixed in-memory values, so a pin moves only when the
// emitted bytes do.
// The tool version is masked before hashing (a version bump is not a
// layout change); everything else, down to whitespace and number
// formatting, is pinned as a size and an FNV-1a 64 digest, or literally
// where the document is short.  A failure means downstream JSON readers
// would see different bytes: it is never fixed by re-recording alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "cli/run_options.hpp"
#include "scenarios/experiment.hpp"
#include "scenarios/supervisor.hpp"
#include "sim/perf/report.hpp"
#include "sim/status/status.hpp"
#include "version.hpp"

namespace tracemod {
namespace {

/// Replaces every occurrence of the tool version with "X.Y.Z".
std::string mask_version(std::string s) {
  const std::string v = kToolVersion;
  for (std::size_t at = s.find(v); at != std::string::npos;
       at = s.find(v, at)) {
    s.replace(at, v.size(), "X.Y.Z");
  }
  return s;
}

std::string fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// --- tracemod-sweep-v1 ------------------------------------------------------

scenarios::BenchmarkOutcome outcome(double elapsed_s, bool completed) {
  scenarios::BenchmarkOutcome o;
  o.ok = completed;
  o.completed = completed;
  o.timed_out = !completed;
  o.elapsed_s = elapsed_s;
  return o;
}

TEST(JsonPins, SweepJson) {
  using namespace scenarios;
  ExperimentConfig cfg;
  cfg.base_seed = 1997;
  cfg.trials = 2;
  cfg.supervision.enabled = true;
  cfg.supervision.max_retries = 1;

  TrialError err;
  err.kind = TrialErrorKind::kTimedOut;
  err.message = "virtual-time budget (1.000000 s) expired \"quoted\"";
  err.seed = 10'001;
  err.scenario = "Wean";
  err.benchmark = "web";
  err.phase = "live";
  err.trial = 1;
  err.attempts = 2;

  SweepResult result;
  CellResult cell;
  cell.scenario = "Wean";
  cell.kind = BenchmarkKind::kWeb;
  cell.live = {outcome(161.25, true), outcome(3.5, false)};
  cell.modulated = {outcome(160.125, true), outcome(158.0625, true)};
  cell.errors.push_back(err);
  cell.trials_retried = 1;
  result.cells.push_back(cell);
  CellResult resumed;
  resumed.scenario = "Porter";
  resumed.kind = BenchmarkKind::kWeb;
  resumed.resumed = true;
  resumed.live = {outcome(159.5, true), outcome(160.5, true)};
  resumed.modulated = {outcome(150.25, true), outcome(151.75, true)};
  result.cells.push_back(resumed);
  result.ethernet = {{outcome(140.25, true), outcome(140.375, true)}};
  result.supervision.errors.push_back(err);
  result.supervision.trials_failed = 1;
  result.supervision.trials_retried = 1;
  result.supervision.trials_timed_out = 1;

  std::ostringstream out;
  write_sweep_json(out, result, cfg, {BenchmarkKind::kWeb});
  const std::string bytes = mask_version(out.str());
  EXPECT_EQ(bytes.size(), 2269u);
  EXPECT_EQ(fnv1a64(bytes), "7adfc2ed652b3236");
}

// --- tracemod-fidelity-v1 ---------------------------------------------------

audit::FidelityReport sample_report() {
  audit::FidelityReport r;
  r.label = "Wean/trace0";
  r.verdict = audit::Verdict::kBreach;
  r.breaches = {"latency_rel_err 0.71 > 0.60", "ks_rtt \"high\""};
  r.baseline = {0.00125, 8.0e-7, 1.5e-8};
  audit::DivergenceScores& s = r.scores;
  s.latency_rel_err = 0.7125;
  s.bandwidth_rel_err = 0.1875;
  s.loss_delta = 0.0123;
  s.ks_rtt = 0.3333333;
  s.within_tolerance_fraction = 0.5;
  s.auditable_fraction = 0.75;
  s.rtt_samples = 321;
  s.auditable = 3;
  s.unauditable = 1;
  s.within_tolerance = 2;
  for (int i = 0; i < 4; ++i) {
    audit::WindowScore w;
    w.mid = sim::kEpoch + sim::milliseconds(2500 + 5000 * i);
    w.state = i == 2 ? audit::WindowState::kLostRecords
                     : audit::WindowState::kScored;
    w.latency_rel_err = 0.1 * (i + 1);
    w.bandwidth_rel_err = 0.05 * i;
    w.loss_delta = -0.01 * i;
    s.windows.push_back(w);
  }
  r.lost_records = 7;
  return r;
}

TEST(JsonPins, FidelityJson) {
  std::ostringstream out;
  audit::write_fidelity_json(out, sample_report());
  const std::string bytes = mask_version(out.str());
  EXPECT_EQ(bytes.size(), 1198u);
  EXPECT_EQ(fnv1a64(bytes), "2d010aee24f78272");
}

// --- tracemod-fidelity-trajectory-v1 ----------------------------------------

TEST(JsonPins, FidelityTrajectoryJson) {
  audit::FidelityReport second = sample_report();
  second.label = "Porter/trace1";
  second.verdict = audit::Verdict::kPass;
  second.breaches.clear();
  std::ostringstream out;
  cli::write_fidelity_trajectory(out, {sample_report(), second});
  const std::string bytes = mask_version(out.str());
  EXPECT_EQ(bytes.size(), 2440u);
  EXPECT_EQ(fnv1a64(bytes), "3805b81ed1e82f10");

  std::ostringstream empty;
  cli::write_fidelity_trajectory(empty, {});
  EXPECT_EQ(mask_version(empty.str()),
            "{\n\"schema\": \"tracemod-fidelity-trajectory-v1\",\n"
            "\"tool_version\": \"X.Y.Z\",\n\"reports\": [\n]\n}\n");
}

// --- tracemod-perf-v1 -------------------------------------------------------

TEST(JsonPins, PerfJson) {
  using namespace sim::perf;
  PerfSnapshot snap;
  snap.wall_s = 0.125;
  snap.dispatched = 40'000;
  snap.allocs.allocs = 80'123;
  snap.allocs.frees = 80'001;
  snap.allocs.bytes_allocated = 9'876'543;
  snap.sampling_stride = 4;
  snap.domains = {{Domain::kEventLoop, 40'000, 0.0625, 70'000, 5'000'000},
                  {Domain::kModulation, 12'000, 0.015625, 123, 45'678}};
  PerfPath a;
  a.path = "event_loop;tcp.timer";
  a.count = 30'000;
  a.est_self_s = 0.05;
  a.est_total_s = 0.0625;
  a.self_allocs = 60'000;
  a.self_alloc_bytes = 4'000'000;
  PerfPath b;
  b.path = "event_loop;modulation \"queue\"";
  b.count = 12'000;
  b.est_self_s = 0.015625;
  b.est_total_s = 0.02;
  b.self_allocs = 123;
  b.self_alloc_bytes = 45'678;
  snap.paths = {a, b, a};
  std::ostringstream out;
  write_perf_json(out, snap, "pipeline-porter-ftp-recv", 600.5, 2,
                  "\"digest\": \"00000000deadbeef\"");
  const std::string bytes = mask_version(out.str());
  EXPECT_EQ(bytes.size(), 938u);
  EXPECT_EQ(fnv1a64(bytes), "fb26a14daf7d1cb2");
}

// --- tracemod-status-v1 -----------------------------------------------------

sim::status::StatusSnapshot sample_status() {
  sim::status::StatusSnapshot s;
  s.tool_version = "0.9.0";
  s.driver = "sweep";
  s.phase = "bench:Wean/web";
  s.units_label = "trials";
  s.seq = 17;
  s.pid = 4242;
  s.published_unix_ms = 1754600000123ull;
  s.units_done = 9.0;
  s.units_total = 24.0;
  s.events_dispatched = 1234567;
  s.retries = 3;
  s.errors = 1;
  s.windows_distilled = 88;
  s.windows_shed = 2;
  s.records_streamed = 99991;
  s.sim_seconds = 512.25;
  s.wall_seconds = 1.75;
  s.sim_per_wall = 292.71;
  return s;
}

/// Every member before eta_seconds, as sample_status() serializes them.
const std::string kStatusHead = R"({"schema": "tracemod-status-v1",
 "tool_version": "0.9.0",
 "driver": "sweep",
 "phase": "bench:Wean/web",
 "seq": 17,
 "pid": 4242,
 "published_unix_ms": 1754600000123,
 "units": {"label": "trials", "done": 9, "total": 24},
 "events_dispatched": 1234567,
 "retries": 3,
 "errors": 1,
 "windows_distilled": 88,
 "windows_shed": 2,
 "records_streamed": 99991,
 "sim_seconds": 512.25,
 "wall_seconds": 1.75,
 "sim_per_wall": 292.70999999999998,
)";

TEST(JsonPins, StatusJsonRunning) {
  // eta unknown, not finished: both fields serialize as null.
  std::ostringstream out;
  sim::status::write_status_json(out, sample_status());
  EXPECT_EQ(out.str(), kStatusHead + R"( "eta_seconds": null,
 "finished": false,
 "exit_code": null}
)");
}

TEST(JsonPins, StatusJsonFinished) {
  sim::status::StatusSnapshot s = sample_status();
  s.eta_seconds = 2.9;
  s.finished = true;
  s.exit_code = 5;
  std::ostringstream out;
  sim::status::write_status_json(out, s);
  EXPECT_EQ(out.str(), kStatusHead + R"( "eta_seconds": 2.8999999999999999,
 "finished": true,
 "exit_code": 5}
)");
}

}  // namespace
}  // namespace tracemod
