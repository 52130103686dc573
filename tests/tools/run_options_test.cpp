// The run options sweep and the fig6/7/8 benches share
// (src/cli/run_options.hpp): absent flags leave a run untouched, and the
// exit codes follow the README table -- an unwritable status file or a
// failed artifact write is kExitIo, a breached audit kExitAudit.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "cli/run_options.hpp"

namespace tracemod::cli {
namespace {

std::string tmp(const std::string& name) {
  return testing::TempDir() + "run_options_" + name;
}

Args fig_args(const std::vector<std::string>& argv) {
  return parse("fig", argv, {kAuditFlag, kTelemetryFlag, kStatusFlag});
}

TEST(RunOptions, AbsentFlagsLeaveTheConfigUntouched) {
  scenarios::ExperimentConfig cfg;
  RunOptions run(fig_args({}), "fig", cfg);
  EXPECT_TRUE(run.armed());
  EXPECT_FALSE(run.auditing());
  EXPECT_FALSE(cfg.audit.enabled);
  EXPECT_FALSE(cfg.telemetry.enabled);
  EXPECT_EQ(cfg.status, nullptr);
  EXPECT_EQ(run.write_artifacts(), kExitOk);
  EXPECT_EQ(run.finish(kExitOk), kExitOk);
}

TEST(RunOptions, FlagsArmTheConfig) {
  scenarios::ExperimentConfig cfg;
  RunOptions run(fig_args({"--audit=" + tmp("a.json"), "--telemetry",
                           tmp("t"), "--status=" + tmp("s")}),
                 "fig", cfg);
  EXPECT_TRUE(run.armed());
  EXPECT_TRUE(run.auditing());
  EXPECT_TRUE(cfg.audit.enabled);
  EXPECT_TRUE(cfg.telemetry.enabled);
  EXPECT_NE(cfg.status, nullptr);
  EXPECT_EQ(run.finish(kExitOk), kExitOk);
}

TEST(RunOptions, UnwritableStatusFileIsNotArmed) {
  scenarios::ExperimentConfig cfg;
  RunOptions run(
      fig_args({"--status", testing::TempDir() + "no/such/dir/s"}), "fig",
      cfg);
  EXPECT_FALSE(run.armed());
  EXPECT_EQ(cfg.status, nullptr);
}

TEST(RunOptions, FailedArtifactWriteIsAnIoError) {
  const std::string bad = testing::TempDir() + "no/such/dir/x";
  for (const std::vector<std::string>& argv :
       {std::vector<std::string>{"--audit=" + bad},
        std::vector<std::string>{"--telemetry", bad}}) {
    scenarios::ExperimentConfig cfg;
    RunOptions run(fig_args(argv), "fig", cfg);
    EXPECT_EQ(run.write_artifacts(), kExitIo) << argv[0];
  }
}

TEST(RunOptions, BreachedAuditReturnsTheAuditCodeAndPrefixesLabels) {
  const std::string path = tmp("trajectory.json");
  scenarios::ExperimentConfig cfg;
  RunOptions run(fig_args({"--audit=" + path}), "fig", cfg);
  audit::FidelityReport pass;
  pass.label = "trial0";
  pass.verdict = audit::Verdict::kPass;
  audit::FidelityReport breach = pass;
  breach.label = "trial1";
  breach.verdict = audit::Verdict::kBreach;
  breach.breaches = {"latency"};
  run.add_audits({pass}, "Wean");
  EXPECT_EQ(run.write_artifacts(), kExitOk);
  run.add_audits({breach}, "");
  EXPECT_EQ(run.write_artifacts(), kExitAudit);

  std::ifstream in(path);
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(doc.find("\"schema\": \"tracemod-fidelity-trajectory-v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"label\": \"Wean/trial0\""), std::string::npos);
  EXPECT_NE(doc.find("\"label\": \"trial1\""), std::string::npos);
}

}  // namespace
}  // namespace tracemod::cli
