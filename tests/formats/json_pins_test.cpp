// Byte pins for the JSON writers: the sweep result, the fidelity verdict
// and trajectory, the perf report and its counter tracks, the status
// document, the Chrome trace export, and the `tracemod distill --json` and
// `tracemod campus --json` documents.  Each library writer is fed fixed
// in-memory values and each tracemod document comes from a fixed,
// deterministic run, so a pin moves only when the emitted bytes do.  Every
// pinned document must also pass a strict JSON parse (json_strict.hpp).
// The tool version is masked before hashing (a version bump is not a
// layout change); everything else, down to whitespace and number
// formatting, is pinned as a size and an FNV-1a 64 digest, or literally
// where the document is short.  A failure means downstream JSON readers
// would see different bytes: it is never fixed by re-recording alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "formats/json_strict.hpp"

#include "audit/auditor.hpp"
#include "cli/run_options.hpp"
#include "scenarios/experiment.hpp"
#include "scenarios/supervisor.hpp"
#include "sim/perf/report.hpp"
#include "sim/status/status.hpp"
#include "sim/telemetry.hpp"
#include "trace/records.hpp"
#include "trace/trace_io.hpp"
#include "tracemod_cli.hpp"
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

/// Asserts that `doc` is strictly valid JSON and returns it unchanged.
std::string parsed(const std::string& doc) {
  EXPECT_EQ(testing_json::strict_json_error(doc), "") << doc;
  return doc;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Replaces the value of every `"key": <number>` member with 0, for
/// members that carry wall-clock time.
std::string mask_number(std::string s, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  for (std::size_t at = s.find(tag); at != std::string::npos;
       at = s.find(tag, at + 1)) {
    const std::size_t start = at + tag.size();
    const std::size_t end = s.find_first_of(",}\n", start);
    s.replace(start, end - start, "0");
  }
  return s;
}

std::string tmp(const std::string& name) {
  return testing::TempDir() + "json_pins_" + name;
}

// --- the validator itself ---------------------------------------------------

TEST(JsonPins, StrictValidatorRejectsWhatJsonForbids) {
  using testing_json::strict_json_error;
  EXPECT_EQ(strict_json_error(R"({"a": [1, -2.5e-3, true, false, null]})"),
            "");
  EXPECT_EQ(strict_json_error("\"\\u0001\\t\\\"\"\n"), "");
  for (const char* bad :
       {"{\"x\": -nan}", "{\"x\": nan}", "{\"x\": inf}", "[1,]",
        "{\"a\": 1,}", "[01]", "[.5]", "[+1]", "\"a\x01b\"", "\"\\x\"",
        "{} {}", "[", "{\"a\" 1}", "[1 2]"}) {
    EXPECT_NE(strict_json_error(bad), "") << bad;
  }
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
  const std::string bytes = parsed(mask_version(out.str()));
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
  const std::string bytes = parsed(mask_version(out.str()));
  EXPECT_EQ(bytes.size(), 1198u);
  EXPECT_EQ(fnv1a64(bytes), "2d010aee24f78272");
}

TEST(JsonPins, FidelityJsonWithEmptySeries) {
  // No windows: the series array keeps its blank line, "[\n\n  ]".
  audit::FidelityReport r = sample_report();
  r.scores.windows.clear();
  r.breaches.clear();
  std::ostringstream out;
  audit::write_fidelity_json(out, r);
  const std::string bytes = parsed(mask_version(out.str()));
  EXPECT_NE(bytes.find("\"series\": [\n\n  ],\n  \"breaches\": []\n}\n"),
            std::string::npos)
      << bytes;
  EXPECT_EQ(bytes.size(), 712u);
  EXPECT_EQ(fnv1a64(bytes), "8f92703808d7ea9a");
}

// --- tracemod-fidelity-trajectory-v1 ----------------------------------------

TEST(JsonPins, FidelityTrajectoryJson) {
  audit::FidelityReport second = sample_report();
  second.label = "Porter/trace1";
  second.verdict = audit::Verdict::kPass;
  second.breaches.clear();
  std::ostringstream out;
  cli::write_fidelity_trajectory(out, {sample_report(), second});
  const std::string bytes = parsed(mask_version(out.str()));
  EXPECT_EQ(bytes.size(), 2440u);
  EXPECT_EQ(fnv1a64(bytes), "3805b81ed1e82f10");

  std::ostringstream empty;
  cli::write_fidelity_trajectory(empty, {});
  EXPECT_EQ(parsed(mask_version(empty.str())),
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
                  "00000000deadbeef");
  const std::string bytes = parsed(mask_version(out.str()));
  EXPECT_EQ(bytes.size(), 938u);
  EXPECT_EQ(fnv1a64(bytes), "fb26a14daf7d1cb2");
}

// --- Perfetto counter tracks (write_perf_chrome) ----------------------------

TEST(JsonPins, PerfChrome) {
  using namespace sim::perf;
  PerfSnapshot snap;
  PerfProfiler::CounterSample s;
  s.wall_s = 0.0015;
  s.dispatched = 1'000;
  s.heap_live_bytes = 65'536;
  s.queue_depth = 12;
  snap.samples.push_back(s);
  s.dispatched = 1'500;  // same wall instant: no events_per_sec point
  snap.samples.push_back(s);
  s.wall_s = 0.0031234567;
  s.dispatched = 4'321;
  s.heap_live_bytes = 1'234'567'890;
  s.queue_depth = 0;
  snap.samples.push_back(s);
  std::ostringstream out;
  write_perf_chrome(out, snap);
  const std::string bytes = parsed(out.str());
  EXPECT_EQ(bytes.size(), 1101u);
  EXPECT_EQ(fnv1a64(bytes), "c7370b65697e24aa");

  std::ostringstream empty;
  write_perf_chrome(empty, PerfSnapshot{});
  EXPECT_EQ(parsed(empty.str()),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\n]}\n");
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
  EXPECT_EQ(parsed(out.str()), kStatusHead + R"( "eta_seconds": null,
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
  EXPECT_EQ(parsed(out.str()), kStatusHead + R"( "eta_seconds": 2.8999999999999999,
 "finished": true,
 "exit_code": 5}
)");
}

// --- Chrome trace export (write_chrome_trace) --------------------------------

std::shared_ptr<sim::TelemetrySnapshot> sample_telemetry(const char* node) {
  using sim::TraceEvent;
  auto snap = std::make_shared<sim::TelemetrySnapshot>();
  snap->tracks = {{node, "ip"}, {node, "modulation"}, {"server", "eth"}};
  snap->events = {
      {TraceEvent::Phase::kBegin, 1, "pkt", 7, sim::kEpoch, 1500.0},
      {TraceEvent::Phase::kCounter, 2, "queue \"depth\"", 0,
       sim::kEpoch + sim::nanoseconds(1'234'567), 4.0},
      {TraceEvent::Phase::kEnd, 1, "pkt", 7, sim::kEpoch + sim::milliseconds(3),
       0.0},
      {TraceEvent::Phase::kInstant, 3, "eth.drop", 8,
       sim::kEpoch + sim::microseconds(250), 0.125},
      {TraceEvent::Phase::kInstant, 9, "off-track", 9, sim::kEpoch, 0.0},
  };
  return snap;
}

TEST(JsonPins, ChromeTraceOneSnapshot) {
  std::ostringstream out;
  sim::write_chrome_trace(out, *sample_telemetry("mobile"));
  const std::string bytes = parsed(out.str());
  EXPECT_EQ(bytes.size(), 766u);
  EXPECT_EQ(fnv1a64(bytes), "dc44c2cc3c2dec3f");

  std::ostringstream empty;
  sim::write_chrome_trace(empty, sim::TelemetrySnapshot{});
  EXPECT_EQ(parsed(empty.str()),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\n]}\n");
}

TEST(JsonPins, ChromeTraceLabeledMerge) {
  // A leading snapshot with no tracks and a null one write nothing; the
  // later snapshots continue the one traceEvents array, and the label with
  // control characters is escaped.
  std::vector<sim::LabeledTelemetry> snaps{
      {"lead", std::make_shared<sim::TelemetrySnapshot>()},
      {"trial0", sample_telemetry("mobile")},
      {"gone", nullptr},
      {"ctl\x01\t\"x\"", sample_telemetry("laptop")}};
  std::ostringstream out;
  sim::write_chrome_trace(out, snaps);
  const std::string bytes = parsed(out.str());
  EXPECT_NE(bytes.find("ctl\\u0001\\t\\\"x\\\"/laptop"), std::string::npos)
      << bytes;
  EXPECT_EQ(bytes.size(), 1538u);
  EXPECT_EQ(fnv1a64(bytes), "1e980d6ecfac8738");
}

// --- tracemod-distill-v1 and tracemod-campus-v1 (tracemod --json) ----------

/// Thirty one-second groups of three echo/reply pairs (small, large,
/// large), the shape the distiller turns into one tuple per window step.
trace::CollectedTrace ping_trace() {
  trace::CollectedTrace t;
  std::uint16_t seq = 0;
  for (int g = 0; g < 30; ++g) {
    const sim::TimePoint sent = sim::kEpoch + sim::seconds(g);
    for (int i = 0; i < 3; ++i) {
      trace::PacketRecord echo;
      echo.at = sent;
      echo.dir = trace::PacketDirection::kOutgoing;
      echo.protocol = net::Protocol::kIcmp;
      echo.icmp_kind = trace::IcmpKind::kEcho;
      echo.icmp_seq = seq++;
      echo.ip_bytes = i == 0 ? 60 : 1052;
      t.records.emplace_back(echo);
      trace::PacketRecord reply = echo;
      reply.dir = trace::PacketDirection::kIncoming;
      reply.icmp_kind = trace::IcmpKind::kEchoReply;
      reply.echo_origin = sent;
      reply.at = sent + sim::microseconds(900 + 14'000 * i + 500 * (g % 4));
      t.records.emplace_back(reply);
    }
  }
  return t;
}

TEST(JsonPins, DistillJson) {
  const std::string in = tmp("distill.trace");
  const std::string json = tmp("distill.json");
  trace::save_trace(in, ping_trace());
  ASSERT_EQ(cli::run({"distill", in, tmp("distill.replay"), "--stream",
                      "--json", json}),
            0);
  const std::string bytes = parsed(mask_version(read_file(json)));
  EXPECT_EQ(bytes.size(), 368u);
  EXPECT_EQ(fnv1a64(bytes), "14a2a37358d3f822") << bytes;
}

TEST(JsonPins, CampusJson) {
  const std::string json = tmp("campus.json");
  ASSERT_EQ(cli::run({"campus", "--hosts", "20", "--seconds", "2", "--json",
                      json}),
            0);
  const std::string bytes = parsed(mask_number(
      mask_number(mask_version(read_file(json)), "wall_s"),
      "events_per_sec"));
  EXPECT_EQ(bytes.size(), 415u);
  EXPECT_EQ(fnv1a64(bytes), "f4502498c9111d05") << bytes;
}

}  // namespace
}  // namespace tracemod
