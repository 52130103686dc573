// The status plane's zero-perturbation contract at the pipeline level
// (DESIGN.md section 14): enabling a StatusBoard must not move a single
// virtual-time result.  Campus runs pin this with digest equality, sweep
// trials with bitwise elapsed-time equality, and the published snapshot
// must agree with the driver's own result counters.
#include "sim/status/status.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "scenarios/campus.hpp"
#include "scenarios/experiment.hpp"
#include "scenarios/supervisor.hpp"
#include "trace/trace_io.hpp"

namespace tracemod::scenarios {
namespace {

std::string tmp(const std::string& name) {
  return testing::TempDir() + "tracemod_status_pipeline_" + name;
}

sim::status::StatusBoard::Config board_config(const std::string& name) {
  sim::status::StatusBoard::Config cfg;
  cfg.path = tmp(name);
  cfg.driver = "test";
  cfg.min_publish_interval_s = 0.0;
  return cfg;
}

TEST(StatusPipeline, CampusDigestIsIdenticalWithStatusOn) {
  CampusConfig cfg;
  cfg.hosts = 200;
  cfg.horizon = sim::seconds(5);
  cfg.seed = 1234;
  const CampusResult off = run_campus(cfg);
  ASSERT_TRUE(off.ok);

  sim::status::StatusBoard board;
  ASSERT_TRUE(board.configure(board_config("campus.status")));
  cfg.watchdog.status = &board;
  const CampusResult on = run_campus(cfg);
  ASSERT_TRUE(on.ok);

  // Virtual-time identity: same digest, same event count, same handoffs.
  EXPECT_EQ(off.digest, on.digest);
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.handoffs, on.handoffs);
  EXPECT_EQ(off.frames_delivered, on.frames_delivered);

  // The board tracked the run: the virtual horizon is the progress axis
  // and the heartbeat flushed the exact final event count.
  const sim::status::StatusSnapshot snap = board.peek();
  EXPECT_EQ(snap.units_label, "sim-seconds");
  EXPECT_EQ(snap.units_total, 5.0);
  EXPECT_EQ(snap.units_done, 5.0);
  EXPECT_EQ(snap.events_dispatched, on.events);
  EXPECT_EQ(snap.sim_seconds, 5.0);

  // And the file on disk is a readable CRC-valid snapshot.
  const auto read = sim::status::read_status_file(board.path());
  ASSERT_EQ(read.status, sim::status::StatusReadStatus::kOk) << read.message;
  EXPECT_GE(read.snapshot.seq, 1u);
}

TEST(StatusPipeline, SupervisedSweepTrialsAreBitIdenticalWithStatusOn) {
  const std::vector<Scenario> sc = {wean()};
  const std::vector<BenchmarkKind> kinds = {BenchmarkKind::kWeb};
  ExperimentConfig cfg;
  cfg.trials = 1;
  cfg.compensation_vb = measure_compensation_vb();
  cfg.supervision.enabled = true;

  const SweepResult off = run_supervised_sweep(nullptr, sc, kinds, cfg);

  sim::status::StatusBoard board;
  ASSERT_TRUE(board.configure(board_config("sweep.status")));
  cfg.status = &board;
  const SweepResult on = run_supervised_sweep(nullptr, sc, kinds, cfg);

  ASSERT_EQ(off.cells.size(), on.cells.size());
  for (std::size_t i = 0; i < off.cells.size(); ++i) {
    ASSERT_EQ(off.cells[i].live.size(), on.cells[i].live.size());
    for (std::size_t t = 0; t < off.cells[i].live.size(); ++t) {
      EXPECT_EQ(std::memcmp(&off.cells[i].live[t].elapsed_s,
                            &on.cells[i].live[t].elapsed_s, sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(&off.cells[i].modulated[t].elapsed_s,
                            &on.cells[i].modulated[t].elapsed_s,
                            sizeof(double)),
                0);
    }
  }
  for (std::size_t k = 0; k < off.ethernet.size(); ++k) {
    for (std::size_t t = 0; t < off.ethernet[k].size(); ++t) {
      EXPECT_EQ(std::memcmp(&off.ethernet[k][t].elapsed_s,
                            &on.ethernet[k][t].elapsed_s, sizeof(double)),
                0);
    }
  }

  // Progress accounting closed the books: every unit the pre-pass counted
  // was marked done, with no retries or errors on a clean matrix.
  const sim::status::StatusSnapshot snap = board.peek();
  EXPECT_EQ(snap.units_label, "trials");
  EXPECT_GT(snap.units_total, 0.0);
  EXPECT_EQ(snap.units_done, snap.units_total);
  EXPECT_EQ(snap.retries, 0u);
  EXPECT_EQ(snap.errors, 0u);
  EXPECT_GT(snap.events_dispatched, 0u);
}

TEST(StatusPipeline, DegradedSweepCountsItsErrorsOnTheBoard) {
  const std::vector<Scenario> sc = {wean()};
  const std::vector<BenchmarkKind> kinds = {BenchmarkKind::kWeb};
  ExperimentConfig cfg;
  cfg.trials = 2;
  cfg.compensation_vb = measure_compensation_vb();
  cfg.supervision.enabled = true;
  cfg.supervision.max_retries = 1;
  InjectedTrialFault fault;
  fault.scenario = "wean";
  fault.benchmark = "web";
  fault.phase = "live";
  fault.trial = 0;
  cfg.supervision.inject.push_back(fault);  // exhausts its retry

  sim::status::StatusBoard board;
  ASSERT_TRUE(board.configure(board_config("degraded.status")));
  cfg.status = &board;
  const SweepResult result = run_supervised_sweep(nullptr, sc, kinds, cfg);
  ASSERT_TRUE(result.supervision.degraded());

  const sim::status::StatusSnapshot snap = board.peek();
  EXPECT_EQ(snap.errors, result.supervision.trials_failed);
  EXPECT_EQ(snap.retries, result.supervision.trials_retried);
  // A failed trial still counts as a finished unit; the sweep completed.
  EXPECT_EQ(snap.units_done, snap.units_total);
}

TEST(StatusPipeline, CollectionUnitsReportTheirDispatches) {
  // A serial sweep with no benchmark kinds but auditing on runs exactly
  // one collection traversal (the first finished unit) and one audit, and
  // only the collection dispatches on a status-reporting loop.  A snapshot
  // that counts the collection as done must count its events too.
  const std::vector<Scenario> sc = {wean()};
  ExperimentConfig cfg;
  cfg.trials = 1;
  cfg.audit.enabled = true;

  sim::status::StatusBoard board;
  ASSERT_TRUE(board.configure(board_config("collect.status")));
  cfg.status = &board;
  const SweepResult result = run_supervised_sweep(nullptr, sc, {}, cfg);
  ASSERT_FALSE(result.supervision.degraded());

  // The same traversal with status off, counted directly on its own loop.
  const std::uint64_t seed = cfg.base_seed + 500;
  LiveTestbed bed(wean(), seed);
  const std::uint64_t before = bed.loop().dispatched();
  const trace::CollectedTrace off = bed.collect_trace();
  const std::uint64_t collected = bed.loop().dispatched() - before;
  ASSERT_GT(collected, 0u);

  const auto read = sim::status::read_status_file(board.path());
  ASSERT_EQ(read.status, sim::status::StatusReadStatus::kOk) << read.message;
  EXPECT_EQ(read.snapshot.units_total, 2.0);
  EXPECT_EQ(read.snapshot.units_done, 2.0);
  EXPECT_EQ(read.snapshot.events_dispatched, collected);
  EXPECT_GT(read.snapshot.sim_seconds, 0.0);

  // Reporting moved no virtual-time result: status on collects the very
  // bytes status off does.
  std::ostringstream off_bytes;
  std::ostringstream on_bytes;
  trace::write_trace(off_bytes, off);
  trace::write_trace(on_bytes, collect_raw_trace(wean(), seed, &board));
  EXPECT_EQ(on_bytes.str(), off_bytes.str());
}

}  // namespace
}  // namespace tracemod::scenarios
