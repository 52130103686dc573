#include "scenarios/scenario.hpp"

#include <gtest/gtest.h>

#include "scenarios/benchmarks.hpp"

namespace tracemod::scenarios {
namespace {

TEST(Scenarios, FourScenariosInPaperOrder) {
  const auto all = all_scenarios();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].name, "Porter");
  EXPECT_EQ(all[1].name, "Flagstaff");
  EXPECT_EQ(all[2].name, "Wean");
  EXPECT_EQ(all[3].name, "Chatterbox");
}

TEST(Scenarios, FindScenarioIgnoresCase) {
  const auto all = all_scenarios();
  ASSERT_NE(find_scenario(all, "porter"), nullptr);
  EXPECT_EQ(find_scenario(all, "porter")->name, "Porter");
  EXPECT_EQ(find_scenario(all, "WEAN")->name, "Wean");
  EXPECT_EQ(find_scenario(all, "atlantis"), nullptr);
  EXPECT_EQ(find_scenario(all, "porte"), nullptr);
  EXPECT_EQ(find_scenario(all, ""), nullptr);
}

TEST(Scenarios, BenchmarkKindNamesRoundTrip) {
  for (const BenchmarkKind k : {BenchmarkKind::kWeb, BenchmarkKind::kFtpSend,
                                BenchmarkKind::kFtpRecv,
                                BenchmarkKind::kAndrew}) {
    EXPECT_EQ(parse_benchmark_kind(to_string(k)), k);
  }
  EXPECT_FALSE(parse_benchmark_kind("ftp"));
  EXPECT_FALSE(parse_benchmark_kind("Web"));
  EXPECT_FALSE(parse_benchmark_kind(""));
}

TEST(Scenarios, CheckpointLabelsMatchThePaper) {
  EXPECT_EQ(porter().path.front().label, "x0");
  EXPECT_EQ(porter().path.back().label, "x6");
  EXPECT_EQ(flagstaff().path.front().label, "y0");
  EXPECT_EQ(flagstaff().path.back().label, "y9");
  EXPECT_EQ(wean().path.front().label, "z0");
  EXPECT_EQ(wean().path.back().label, "z7");
}

TEST(Scenarios, CollectionCoversTheWholePath) {
  for (const auto& s : all_scenarios()) {
    EXPECT_GE(s.collection_duration, s.mobility().duration()) << s.name;
  }
}

TEST(Scenarios, OnlyChatterboxHasInterferers) {
  EXPECT_EQ(porter().interferers, 0);
  EXPECT_EQ(flagstaff().interferers, 0);
  EXPECT_EQ(wean().interferers, 0);
  EXPECT_EQ(chatterbox().interferers, 5);
}

TEST(Scenarios, ChatterboxIsStationary) {
  const auto s = chatterbox();
  const auto m = s.mobility();
  const auto p0 = m.position(sim::kEpoch);
  const auto p1 = m.position(sim::kEpoch + sim::seconds(150));
  EXPECT_EQ(p0, p1);
}

TEST(Scenarios, EveryWavePointCoversSomePath) {
  // Each WavePoint should be the nearest base station for some stretch of
  // the path -- otherwise it is dead weight in the scenario definition.
  for (const auto& s : all_scenarios()) {
    if (s.wavepoint_positions.size() < 2) continue;
    const auto m = s.mobility();
    std::vector<bool> nearest(s.wavepoint_positions.size(), false);
    for (double t = 0; t < sim::to_seconds(m.duration()); t += 1.0) {
      const auto pos = m.position(sim::kEpoch + sim::from_seconds(t));
      std::size_t best = 0;
      for (std::size_t w = 1; w < s.wavepoint_positions.size(); ++w) {
        if (wireless::distance(s.wavepoint_positions[w], pos) <
            wireless::distance(s.wavepoint_positions[best], pos)) {
          best = w;
        }
      }
      nearest[best] = true;
    }
    for (std::size_t w = 0; w < nearest.size(); ++w) {
      EXPECT_TRUE(nearest[w]) << s.name << " wavepoint " << w;
    }
  }
}

TEST(Scenarios, WeanElevatorZoneSitsOnThePath) {
  const auto s = wean();
  ASSERT_GE(s.zones.size(), 2u);
  const auto m = s.mobility();
  bool inside_at_some_point = false;
  for (double t = 0; t < sim::to_seconds(m.duration()); t += 0.5) {
    if (s.zones[1].contains(m.position(sim::kEpoch + sim::from_seconds(t)))) {
      inside_at_some_point = true;
    }
  }
  EXPECT_TRUE(inside_at_some_point);
}

}  // namespace
}  // namespace tracemod::scenarios
