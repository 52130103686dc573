// Spatial cell index for the sharded wireless medium.
//
// The seed emulated one flat CSMA cell: every transceiver saw every frame,
// handoff scans walked every WavePoint, and contention was effectively
// O(N^2).  A CellIndex partitions the campus plane into a uniform grid of
// square cells so that only transceivers within radio range interact:
//   - station registration buckets entries by cell, preserving insertion
//     order inside each bucket (determinism: queries visit cells in a fixed
//     row-major scan order and entries in registration order, so results
//     are a pure function of the inputs, never of hashing or threads);
//   - disc queries ("everything within range r of p") touch only the cells
//     overlapping the disc's bounding box -- the O(mobiles x wavepoints)
//     handoff scan becomes an O(nearby) candidate query;
//   - cell_size <= 0 selects the degenerate single-cell grid, which makes
//     every query a full scan in insertion order -- byte-identical to the
//     seed's flat medium (the equivalence the regression tests pin).
//
// The index is position-keyed, not ownership-keyed: callers store opaque
// 32-bit ids (registration indices) and refresh positions explicitly, so
// the index never touches caller objects and is safe to query from shard
// workers while no mutation is in flight.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/perf/perf.hpp"
#include "wireless/geometry.hpp"

namespace tracemod::wireless {

/// Grid configuration for the sharded medium.  Embedded in ChannelConfig;
/// the default (cell_size 0) keeps the flat seed behaviour.
struct SpatialConfig {
  /// Square cell edge in metres.  <= 0 disables sharding: the whole plane
  /// is one cell and the medium behaves exactly like the seed's flat
  /// channel.  A good value is the radio interaction range (every disc
  /// query then touches at most 3x3 cells).
  double cell_size = 0.0;

  /// Radio interaction range in metres: the radius inside which stations
  /// contend, interfere, and are handoff candidates.  Transmissions mark
  /// every cell within this range of the transmitter busy, which is what
  /// makes carrier sense correct across cell borders.
  double radio_range_m = 130.0;

  bool sharded() const { return cell_size > 0.0; }
};

/// The maximum distance at which a transmitter at tx_dbm can still clear
/// rx_floor_dbm under the given path-loss parameters with no wall/zone
/// attenuation (an upper bound: obstacles only shorten it).  Campus
/// builders size SpatialConfig::radio_range_m from this so a cell-index
/// candidate query can never hide a WavePoint the flat scan would accept.
double association_range_m(double tx_dbm, double ref_loss_db,
                           double path_exponent, double rx_floor_dbm);

class CellIndex {
 public:
  /// Packed cell coordinate (row-major key derived from ix/iy).
  using CellKey = std::int64_t;

  explicit CellIndex(double cell_size = 0.0) : cell_size_(cell_size) {}

  bool sharded() const { return cell_size_ > 0.0; }
  double cell_size() const { return cell_size_; }

  /// The cell containing p (always key 0 in flat mode).
  CellKey cell_of(Vec2 p) const;

  /// Registers an entry; ids are caller-chosen and must be unique.
  void insert(std::uint32_t id, Vec2 p);

  /// Moves an entry to its current position's cell.  Cheap no-op when the
  /// cell did not change.
  void update(std::uint32_t id, Vec2 p);

  /// Visits every entry whose cell overlaps the disc (p, radius): a
  /// superset of the entries within radius, visited in deterministic order
  /// (cells in row-major scan order over the disc's bounding box, entries
  /// in registration order within each cell).  Flat mode visits everything
  /// in registration order -- the seed's full scan.  `visit(id)` is called
  /// directly (a template, not a type-erased callback): this is the inner
  /// loop of every association scan.
  template <typename Visit>
  void for_each_candidate(Vec2 p, double radius, Visit&& visit) const {
    sim::perf::PerfScope perf_scope(sim::perf::Domain::kCellIndex,
                                    "cell.query");
    if (!sharded()) {
      auto it = cells_.find(0);
      if (it == cells_.end()) return;
      for (std::uint32_t id : it->second.entries) visit(id);
      return;
    }
    std::int64_t x0, x1, y0, y1;
    cell_span(p, radius, &x0, &x1, &y0, &y1);
    for (std::int64_t iy = y0; iy <= y1; ++iy) {
      for (std::int64_t ix = x0; ix <= x1; ++ix) {
        auto it = cells_.find(key_of(ix, iy));
        if (it == cells_.end()) continue;
        for (std::uint32_t id : it->second.entries) visit(id);
      }
    }
  }

  /// How far p may move, in any direction, before the cell span of the
  /// disc (p, radius) -- and with it the set for_each_candidate visits --
  /// can change: the distance from the disc's bounding-box edges to the
  /// nearest grid line, less a small margin against rounding.  Infinite in
  /// flat mode, where the set never depends on p.
  double span_stable_m(Vec2 p, double radius) const;

  /// Appends the keys of every cell overlapping the disc (p, radius) in
  /// the same deterministic scan order.  Flat mode appends the single key.
  void covered_cells(Vec2 p, double radius,
                     std::vector<CellKey>* out) const;

  std::size_t size() const { return where_.size(); }

  /// Number of distinct occupied cells (diagnostics and tests).
  std::size_t occupied_cells() const;

 private:
  struct Bucket {
    std::vector<std::uint32_t> entries;  // registration order
  };

  CellKey key_of(std::int64_t ix, std::int64_t iy) const;
  void cell_span(Vec2 p, double radius, std::int64_t* x0, std::int64_t* x1,
                 std::int64_t* y0, std::int64_t* y1) const;

  double cell_size_;
  std::unordered_map<CellKey, Bucket> cells_;
  std::unordered_map<std::uint32_t, CellKey> where_;
};

}  // namespace tracemod::wireless
