// Snapshots and exporters for the wall-clock perf plane (sim/perf/perf.hpp).
//
// A finished profiling session is captured into a PerfSnapshot -- a plain
// value -- and exported as:
//   - collapsed-stack flamegraph text (flamegraph.pl / speedscope /
//     inferno: one "path self_microseconds" line per call path);
//   - Perfetto counter tracks (Chrome trace JSON "C" events over wall
//     time: events/sec, live heap bytes, event-queue depth);
//   - the `tracemod-perf-v1` hotspot report JSON (top-N self-time paths,
//     allocs/event, events/sec, sim-seconds per wall-second);
//   - a human-readable hotspot table;
//   - the `perf.*` metric family appended onto a TelemetrySnapshot so the
//     standard report/Prometheus exporters carry it (metric_names.hpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/perf/perf.hpp"

namespace tracemod::sim {
struct TelemetrySnapshot;
}

namespace tracemod::sim::perf {

/// One call path, flattened: labels joined with ';' under a domain-name
/// root, e.g. "event_loop;icmp.echo;node.send".
struct PerfPath {
  std::string path;
  Domain leaf_domain = Domain::kOther;
  std::uint64_t count = 0;
  std::uint64_t timed_count = 0;
  /// Sampling-scaled estimates: measured time times count/timed_count.
  double est_total_s = 0.0;
  double est_self_s = 0.0;
  /// Exact allocation attribution (counts are never sampled).
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t self_allocs = 0;
  std::uint64_t self_alloc_bytes = 0;
};

/// Per-domain aggregate of self time and self allocations.
struct PerfDomainStats {
  Domain domain = Domain::kOther;
  std::uint64_t count = 0;
  double est_self_s = 0.0;
  std::uint64_t self_allocs = 0;
  std::uint64_t self_alloc_bytes = 0;
};

struct PerfSnapshot {
  double wall_s = 0.0;               ///< attached wall-clock seconds
  std::uint64_t dispatched = 0;      ///< event-loop dispatches profiled
  AllocTotals allocs;                ///< process alloc delta while attached
  std::uint32_t sampling_stride = 1;
  /// Paths sorted by estimated self time (descending; ties by path).
  std::vector<PerfPath> paths;
  /// Domain aggregates in Domain declaration order (only touched domains).
  std::vector<PerfDomainStats> domains;
  std::vector<PerfProfiler::CounterSample> samples;
  Histogram dispatch_self_us{0.0, 1000.0, 40};

  double events_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(dispatched) / wall_s : 0.0;
  }
  double allocs_per_event() const {
    return dispatched > 0
               ? static_cast<double>(allocs.allocs) /
                     static_cast<double>(dispatched)
               : 0.0;
  }
};

/// Flattens the profiler's call-path tree into a snapshot.  Cheap; call
/// after the workload completes (the session may still be open).
PerfSnapshot capture_perf(const PerfProfiler& profiler);

/// Collapsed-stack flamegraph text: "path self_us" per line, skipping
/// zero-valued stacks.  Feed to flamegraph.pl or paste into speedscope.
void write_flamegraph(std::ostream& out, const PerfSnapshot& snap);

/// Chrome trace JSON whose counter tracks ("C" events over wall-clock
/// microseconds) plot events/sec, live heap bytes, event-queue depth, and
/// cumulative allocations.  Loads in ui.perfetto.dev.
void write_perf_chrome(std::ostream& out, const PerfSnapshot& snap);

/// Human-readable hotspot table: totals line, per-domain aggregate, and
/// the top_n self-time paths.  Wall-clock numbers are printed only when
/// include_wall_time is set so tests can pin the deterministic shape.
void write_perf_report(std::ostream& out, const PerfSnapshot& snap,
                       std::size_t top_n = 10, bool include_wall_time = true);

/// The `tracemod-perf-v1` report: totals, throughput (events/sec,
/// sim-seconds per wall-second), allocs/event, per-domain aggregates, and
/// the top_n hotspots.  `workload` names what ran; `sim_seconds` is the
/// virtual time the workload covered (0 when not applicable); a non-empty
/// `digest` (the campus run's) is written as a "digest" member.
void write_perf_json(std::ostream& out, const PerfSnapshot& snap,
                     const std::string& workload, double sim_seconds,
                     std::size_t top_n = 20, std::string_view digest = {});

/// Appends the perf.* metric family onto a telemetry snapshot so the
/// standard exporters (report, Prometheus text) carry it: counters
/// perf.events_profiled / perf.allocs / perf.frees / perf.alloc_bytes,
/// series perf.events_per_sec / perf.heap_live_bytes /
/// perf.event_queue_depth, histogram perf.dispatch_self_us.
void append_perf_to_telemetry(TelemetrySnapshot& tel,
                              const PerfSnapshot& snap);

}  // namespace tracemod::sim::perf
