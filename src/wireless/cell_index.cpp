#include "wireless/cell_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/assert.hpp"

namespace tracemod::wireless {

double association_range_m(double tx_dbm, double ref_loss_db,
                           double path_exponent, double rx_floor_dbm) {
  // Invert tx - (ref_loss + 10 n log10(d)) = floor for d; clamp at the
  // 1 m reference distance the path-loss model bottoms out at.
  const double exponent = (tx_dbm - ref_loss_db - rx_floor_dbm) /
                          (10.0 * path_exponent);
  return std::max(1.0, std::pow(10.0, exponent));
}

CellIndex::CellKey CellIndex::key_of(std::int64_t ix, std::int64_t iy) const {
  // Pack two 32-bit coordinates; campus geometry is metres-scale, so the
  // truncation can never wrap in practice.
  return (static_cast<CellKey>(static_cast<std::uint32_t>(ix)) << 32) |
         static_cast<CellKey>(static_cast<std::uint32_t>(iy));
}

CellIndex::CellKey CellIndex::cell_of(Vec2 p) const {
  if (!sharded()) return 0;
  return key_of(static_cast<std::int64_t>(std::floor(p.x / cell_size_)),
                static_cast<std::int64_t>(std::floor(p.y / cell_size_)));
}

void CellIndex::insert(std::uint32_t id, Vec2 p) {
  TM_ASSERT(where_.find(id) == where_.end());
  const CellKey key = cell_of(p);
  cells_[key].entries.push_back(id);
  where_.emplace(id, key);
}

void CellIndex::update(std::uint32_t id, Vec2 p) {
  sim::perf::PerfScope perf_scope(sim::perf::Domain::kCellIndex,
                                  "cell.update");
  auto it = where_.find(id);
  TM_ASSERT(it != where_.end());
  const CellKey key = cell_of(p);
  if (key == it->second) return;
  std::vector<std::uint32_t>& old_bucket = cells_[it->second].entries;
  old_bucket.erase(std::find(old_bucket.begin(), old_bucket.end(), id));
  // Re-registration appends: within a cell, order is arrival order, which
  // is deterministic for a deterministic simulation.
  cells_[key].entries.push_back(id);
  it->second = key;
}

void CellIndex::cell_span(Vec2 p, double radius, std::int64_t* x0,
                          std::int64_t* x1, std::int64_t* y0,
                          std::int64_t* y1) const {
  *x0 = static_cast<std::int64_t>(std::floor((p.x - radius) / cell_size_));
  *x1 = static_cast<std::int64_t>(std::floor((p.x + radius) / cell_size_));
  *y0 = static_cast<std::int64_t>(std::floor((p.y - radius) / cell_size_));
  *y1 = static_cast<std::int64_t>(std::floor((p.y + radius) / cell_size_));
}

double CellIndex::span_stable_m(Vec2 p, double radius) const {
  if (!sharded()) return std::numeric_limits<double>::infinity();
  // cell_span floors each bounding-box edge in cell units; the span holds
  // while no edge crosses a grid line.  A move of delta shifts each edge by
  // at most delta.
  constexpr double kMarginM = 1e-6;
  double slack = std::numeric_limits<double>::infinity();
  for (double edge : {p.x - radius, p.x + radius, p.y - radius, p.y + radius}) {
    const double cells = edge / cell_size_;
    const double frac = cells - std::floor(cells);
    slack = std::min(slack, std::min(frac, 1.0 - frac) * cell_size_);
  }
  return std::max(0.0, slack - kMarginM);
}

void CellIndex::covered_cells(Vec2 p, double radius,
                              std::vector<CellKey>* out) const {
  if (!sharded()) {
    out->push_back(0);
    return;
  }
  std::int64_t x0, x1, y0, y1;
  cell_span(p, radius, &x0, &x1, &y0, &y1);
  for (std::int64_t iy = y0; iy <= y1; ++iy) {
    for (std::int64_t ix = x0; ix <= x1; ++ix) {
      out->push_back(key_of(ix, iy));
    }
  }
}

std::size_t CellIndex::occupied_cells() const {
  std::size_t n = 0;
  for (const auto& [key, bucket] : cells_) {
    if (!bucket.entries.empty()) ++n;
  }
  return n;
}

}  // namespace tracemod::wireless
