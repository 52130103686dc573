#include "wireless/cell_index.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/random.hpp"

namespace tracemod::wireless {
namespace {

std::vector<std::uint32_t> candidates(const CellIndex& idx, Vec2 p,
                                      double radius) {
  std::vector<std::uint32_t> out;
  idx.for_each_candidate(p, radius, [&](std::uint32_t id) { out.push_back(id); });
  return out;
}

TEST(CellIndex, FlatModeVisitsEverythingInRegistrationOrder) {
  CellIndex idx(0.0);
  EXPECT_FALSE(idx.sharded());
  idx.insert(7, {1000.0, 1000.0});
  idx.insert(3, {-500.0, 2.0});
  idx.insert(9, {0.0, 0.0});
  // Radius is irrelevant in flat mode: the whole plane is one cell.
  EXPECT_EQ(candidates(idx, {0, 0}, 1.0),
            (std::vector<std::uint32_t>{7, 3, 9}));
  EXPECT_EQ(idx.occupied_cells(), 1u);
}

TEST(CellIndex, FlatModeCoversTheSingleCell) {
  CellIndex idx(0.0);
  std::vector<CellIndex::CellKey> cells;
  idx.covered_cells({123.0, -456.0}, 130.0, &cells);
  EXPECT_EQ(cells, (std::vector<CellIndex::CellKey>{0}));
}

TEST(CellIndex, ShardedQueryIsARangeSuperset) {
  CellIndex idx(100.0);
  EXPECT_TRUE(idx.sharded());
  idx.insert(0, {50.0, 50.0});     // cell (0,0)
  idx.insert(1, {250.0, 50.0});    // cell (2,0) -- two cells away
  idx.insert(2, {950.0, 950.0});   // far corner
  idx.insert(3, {-50.0, 50.0});    // cell (-1,0), across the origin

  const auto near = candidates(idx, {60.0, 60.0}, 80.0);
  // Entries within radius must appear; the far corner must not.
  EXPECT_NE(std::find(near.begin(), near.end(), 0u), near.end());
  EXPECT_NE(std::find(near.begin(), near.end(), 3u), near.end());
  EXPECT_EQ(std::find(near.begin(), near.end(), 2u), near.end());
}

TEST(CellIndex, ShardedQueryOrderIsDeterministicRowMajor) {
  CellIndex idx(100.0);
  idx.insert(10, {150.0, 150.0});  // cell (1,1)
  idx.insert(11, {50.0, 50.0});    // cell (0,0)
  idx.insert(12, {150.0, 50.0});   // cell (1,0)
  idx.insert(13, {60.0, 55.0});    // cell (0,0), after 11
  // Scan rows bottom-up, cells left-to-right, entries in insertion order.
  EXPECT_EQ(candidates(idx, {100.0, 100.0}, 100.0),
            (std::vector<std::uint32_t>{11, 13, 12, 10}));
}

TEST(CellIndex, UpdateMovesEntriesBetweenCells) {
  CellIndex idx(100.0);
  idx.insert(1, {50.0, 50.0});
  idx.insert(2, {55.0, 50.0});
  EXPECT_EQ(idx.occupied_cells(), 1u);

  idx.update(1, {250.0, 250.0});
  EXPECT_EQ(idx.occupied_cells(), 2u);
  const auto old_cell = candidates(idx, {50.0, 50.0}, 10.0);
  EXPECT_EQ(old_cell, (std::vector<std::uint32_t>{2}));
  const auto new_cell = candidates(idx, {250.0, 250.0}, 10.0);
  EXPECT_EQ(new_cell, (std::vector<std::uint32_t>{1}));

  // No-op move: same cell, order preserved.
  idx.update(2, {60.0, 60.0});
  EXPECT_EQ(candidates(idx, {50.0, 50.0}, 10.0),
            (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(idx.size(), 2u);
}

TEST(CellIndex, CoveredCellsSpanTheDiscBoundingBox) {
  CellIndex idx(100.0);
  std::vector<CellIndex::CellKey> cells;
  // Disc centered mid-cell with radius one cell: 3x3 block.
  idx.covered_cells({150.0, 150.0}, 100.0, &cells);
  EXPECT_EQ(cells.size(), 9u);
  cells.clear();
  // Small disc away from any border: just the home cell.
  idx.covered_cells({150.0, 150.0}, 10.0, &cells);
  EXPECT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0], idx.cell_of({150.0, 150.0}));
}

TEST(CellIndex, AssociationRangeInvertsPathLoss) {
  // d = 10^((tx - ref - floor_rx) / (10 n)); with tx 18 dBm, ref 40 dB,
  // n = 3, floor -90 dBm: 10^(68/30).
  const double d = association_range_m(18.0, 40.0, 3.0, -90.0);
  EXPECT_NEAR(d, std::pow(10.0, 68.0 / 30.0), 1e-9);
  // At the computed distance the link budget exactly meets the floor.
  const double rx = 18.0 - (40.0 + 10.0 * 3.0 * std::log10(d));
  EXPECT_NEAR(rx, -90.0, 1e-9);
  // The 1 m reference clamp.
  EXPECT_EQ(association_range_m(0.0, 80.0, 3.0, -10.0), 1.0);
}

TEST(CellIndex, SpanStableRadiusKeepsTheCandidateSet) {
  // Property: anywhere within span_stable_m of p, a query visits exactly
  // the entries, in exactly the order, it visits at p.
  CellIndex idx(60.0);
  sim::Rng rng(77);
  for (std::uint32_t id = 0; id < 40; ++id) {
    idx.insert(id, {rng.uniform(-100.0, 500.0), rng.uniform(-100.0, 500.0)});
  }
  int moved_cells = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const Vec2 p{rng.uniform(-50.0, 450.0), rng.uniform(-50.0, 450.0)};
    const double radius = rng.uniform(10.0, 150.0);
    const double r = idx.span_stable_m(p, radius);
    ASSERT_GE(r, 0.0);
    ASSERT_LE(r, 30.0);  // half a cell at most
    const std::vector<std::uint32_t> home = candidates(idx, p, radius);
    for (int k = 0; k < 16; ++k) {
      const double angle = rng.uniform(0.0, 6.283185307179586);
      const double reach = k % 2 == 0 ? r : rng.uniform(0.0, r);
      const Vec2 q{p.x + reach * std::cos(angle),
                   p.y + reach * std::sin(angle)};
      EXPECT_EQ(candidates(idx, q, radius), home) << "trial " << trial;
    }
    // Just past the nearest grid line along an axis, the span does change.
    for (Vec2 step : {Vec2{1, 0}, Vec2{-1, 0}, Vec2{0, 1}, Vec2{0, -1}}) {
      std::vector<CellIndex::CellKey> a, b;
      idx.covered_cells(p, radius, &a);
      idx.covered_cells(p + step * (r + 1e-3), radius, &b);
      if (a != b) ++moved_cells;
    }
  }
  EXPECT_GE(moved_cells, 500);  // the radius is tight along some axis
}

TEST(CellIndex, SpanStableRadiusIsUnboundedWhenFlat) {
  const CellIndex idx(0.0);
  EXPECT_TRUE(std::isinf(idx.span_stable_m({12.0, 34.0}, 130.0)));
}

}  // namespace
}  // namespace tracemod::wireless
