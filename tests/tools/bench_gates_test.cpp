// The bench drivers' exit and document contracts, run as child processes:
// a failed gate exits kExitGate (7), distinct from a usage error (1), and
// campus_scale's document stays strict JSON when its scaling exponent is
// undefined.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "cli/flags.hpp"
#include "formats/json_strict.hpp"

namespace tracemod::cli {
namespace {

std::string tmp(const std::string& name) {
  return testing::TempDir() + "bench_gates_" + name;
}

/// Runs `command` with its output discarded; returns its exit code.
int exit_code(const std::string& command) {
  const int status = std::system((command + " >/dev/null 2>&1").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(BenchGates, PerfGateRegressionIsAGateFailureNotAUsageError) {
  const std::string gate = std::string(TRACEMOD_PERF_GATE_BIN) +
                           " --allow-debug --repeat 1 --baseline " +
                           TRACEMOD_REPO_DIR "/BENCH_perf.json";
  EXPECT_EQ(exit_code(gate + " --drill-slowdown 100"), kExitGate);
  EXPECT_EQ(exit_code(std::string(TRACEMOD_PERF_GATE_BIN) + " --bogus"),
            kExitUsage);
}

TEST(BenchGates, CorpusDistillOverItsRssCapIsAGateFailure) {
  EXPECT_EQ(exit_code(std::string(TRACEMOD_CORPUS_DISTILL_BIN) +
                      " --allow-debug --mb 1 --seconds 600 --rss-cap-mb 1"
                      " --out " + tmp("corpus.json")),
            kExitGate);
  EXPECT_EQ(testing_json::strict_json_error(read_file(tmp("corpus.json"))),
            "");
}

TEST(BenchGates, CampusScaleWithOneHostCountWritesANullExponent) {
  // Two points at one host count leave the log-log slope undefined: the
  // document must still parse, with the exponent null.
  const std::string out = tmp("campus.json");
  ASSERT_EQ(exit_code(std::string(TRACEMOD_CAMPUS_SCALE_BIN) +
                      " --allow-debug --sizes 100,100 --seconds 1 --out " +
                      out),
            kExitOk);
  const std::string doc = read_file(out);
  EXPECT_EQ(testing_json::strict_json_error(doc), "") << doc;
  EXPECT_NE(doc.find("\"scaling_exponent\": null,"), std::string::npos)
      << doc;
}

}  // namespace
}  // namespace tracemod::cli
