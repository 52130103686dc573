#include "sim/perf/report.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "sim/metric_names.hpp"
#include "sim/json.hpp"
#include "sim/telemetry.hpp"
#include "sim/trace_event.hpp"

namespace tracemod::sim::perf {

namespace {

/// "domain;label;label..." for the node at `idx` (root-first).
std::string path_string(const std::vector<PerfProfiler::Node>& nodes,
                        std::uint32_t idx) {
  std::vector<const char*> labels;
  std::int32_t cur = static_cast<std::int32_t>(idx);
  Domain root_domain = Domain::kOther;
  while (cur >= 0) {
    const PerfProfiler::Node& n = nodes[static_cast<std::size_t>(cur)];
    labels.push_back(n.label);
    root_domain = n.domain;
    cur = n.parent;
  }
  std::string out = to_string(root_domain);
  for (auto it = labels.rbegin(); it != labels.rend(); ++it) {
    out += ';';
    out += *it;
  }
  return out;
}

/// Sampling-scaled estimate: measured seconds extrapolated from the timed
/// occurrences to all occurrences.
double scale(double measured_s, std::uint64_t count, std::uint64_t timed) {
  if (timed == 0) return 0.0;
  return measured_s * (static_cast<double>(count) / static_cast<double>(timed));
}

void write_counter_event(JsonWriter& w, const char* name, double ts_us,
                         const char* arg, double value) {
  w.begin_object(json::kCompact)
      .member("name", name)
      .member("ph", "C")
      .member("pid", 1)
      .member("tid", 1)
      .member("ts", ts_us, "%.3f")
      .begin_object("args", json::kCompact)
      .member(arg, value, "%.6g")
      .end_object()
      .end_object();
}

/// Inserts (name, value) into a name-sorted vector, summing on collision.
template <typename T>
void sorted_upsert(std::vector<std::pair<std::string, T>>& vec,
                   const std::string& name, T value) {
  auto it = std::lower_bound(
      vec.begin(), vec.end(), name,
      [](const auto& p, const std::string& n) { return p.first < n; });
  if (it != vec.end() && it->first == name) {
    it->second += value;
  } else {
    vec.insert(it, {name, value});
  }
}

/// Inserts (name, value) into a name-sorted vector, replacing on collision
/// (for histogram/series entries, which do not sum meaningfully).
template <typename T>
void sorted_put(std::vector<std::pair<std::string, T>>& vec,
                const std::string& name, T value) {
  auto it = std::lower_bound(
      vec.begin(), vec.end(), name,
      [](const auto& p, const std::string& n) { return p.first < n; });
  if (it != vec.end() && it->first == name) {
    it->second = std::move(value);
  } else {
    vec.insert(it, {name, std::move(value)});
  }
}

}  // namespace

PerfSnapshot capture_perf(const PerfProfiler& profiler) {
  PerfSnapshot snap;
  snap.wall_s = profiler.attached_wall_s();
  snap.dispatched = profiler.dispatched();
  snap.allocs = profiler.alloc_delta();
  snap.sampling_stride = profiler.config().sampling_stride;
  snap.samples = profiler.samples();
  snap.dispatch_self_us = profiler.dispatch_hist();

  const std::vector<PerfProfiler::Node>& nodes = profiler.nodes();
  snap.paths.reserve(nodes.size());
  double domain_self_s[kDomainCount] = {};
  std::uint64_t domain_count[kDomainCount] = {};
  std::uint64_t domain_allocs[kDomainCount] = {};
  std::uint64_t domain_bytes[kDomainCount] = {};
  for (std::uint32_t i = 0; i < nodes.size(); ++i) {
    const PerfProfiler::Node& n = nodes[i];
    if (n.count == 0) continue;
    PerfPath p;
    p.path = path_string(nodes, i);
    p.leaf_domain = n.domain;
    p.count = n.count;
    p.timed_count = n.timed_count;
    p.est_total_s = scale(n.wall_s, n.count, n.timed_count);
    const double self_s = std::max(0.0, n.wall_s - n.child_s);
    p.est_self_s = scale(self_s, n.count, n.timed_count);
    p.allocs = n.allocs;
    p.alloc_bytes = n.alloc_bytes;
    p.self_allocs = n.allocs - n.child_allocs;
    p.self_alloc_bytes = n.alloc_bytes - n.child_alloc_bytes;
    const auto d = static_cast<std::size_t>(n.domain);
    domain_self_s[d] += p.est_self_s;
    domain_count[d] += p.count;
    domain_allocs[d] += p.self_allocs;
    domain_bytes[d] += p.self_alloc_bytes;
    snap.paths.push_back(std::move(p));
  }
  std::sort(snap.paths.begin(), snap.paths.end(),
            [](const PerfPath& a, const PerfPath& b) {
              if (a.est_self_s != b.est_self_s) {
                return a.est_self_s > b.est_self_s;
              }
              return a.path < b.path;
            });
  for (std::size_t d = 0; d < kDomainCount; ++d) {
    if (domain_count[d] == 0) continue;
    PerfDomainStats s;
    s.domain = static_cast<Domain>(d);
    s.count = domain_count[d];
    s.est_self_s = domain_self_s[d];
    s.self_allocs = domain_allocs[d];
    s.self_alloc_bytes = domain_bytes[d];
    snap.domains.push_back(s);
  }
  return snap;
}

void write_flamegraph(std::ostream& out, const PerfSnapshot& snap) {
  // flamegraph.pl wants integral sample values; self-microseconds keeps
  // sub-millisecond paths visible.
  std::vector<const PerfPath*> by_path;
  by_path.reserve(snap.paths.size());
  for (const PerfPath& p : snap.paths) by_path.push_back(&p);
  std::sort(by_path.begin(), by_path.end(),
            [](const PerfPath* a, const PerfPath* b) {
              return a->path < b->path;
            });
  for (const PerfPath* p : by_path) {
    const auto us = static_cast<std::uint64_t>(std::llround(
        p->est_self_s * 1e6));
    if (us == 0) continue;
    out << p->path << " " << us << "\n";
  }
}

void write_perf_chrome(std::ostream& out, const PerfSnapshot& snap) {
  write_chrome_document(out, [&](JsonWriter& w) {
    double prev_wall = 0.0;
    std::uint64_t prev_dispatched = 0;
    for (const PerfProfiler::CounterSample& s : snap.samples) {
      const double ts_us = s.wall_s * 1e6;
      write_counter_event(w, "perf.events_dispatched", ts_us, "events",
                          static_cast<double>(s.dispatched));
      write_counter_event(w, "perf.heap_live_bytes", ts_us, "bytes",
                          static_cast<double>(s.heap_live_bytes));
      write_counter_event(w, "perf.event_queue_depth", ts_us, "events",
                          static_cast<double>(s.queue_depth));
      const double dt = s.wall_s - prev_wall;
      if (dt > 0.0) {
        write_counter_event(
            w, "perf.events_per_sec", ts_us, "rate",
            static_cast<double>(s.dispatched - prev_dispatched) / dt);
      }
      prev_wall = s.wall_s;
      prev_dispatched = s.dispatched;
    }
  });
}

void write_perf_report(std::ostream& out, const PerfSnapshot& snap,
                       std::size_t top_n, bool include_wall_time) {
  out << "== perf report ==\n";
  out << "[totals] events=" << snap.dispatched;
  if (include_wall_time) {
    out << " wall=" << fmt("%.3f", snap.wall_s) << "s"
        << " events/sec=" << fmt("%.0f", snap.events_per_sec());
  }
  out << " allocs=" << snap.allocs.allocs
      << " allocs/event=" << fmt("%.3f", snap.allocs_per_event())
      << " stride=" << snap.sampling_stride << "\n";
  out << "[domains]\n";
  for (const PerfDomainStats& d : snap.domains) {
    out << "  " << to_string(d.domain) << ": count=" << d.count;
    if (include_wall_time) {
      out << " self=" << fmt("%.3f", d.est_self_s * 1e3) << "ms";
    }
    out << " self-allocs=" << d.self_allocs << " ("
        << d.self_alloc_bytes << " bytes)\n";
  }
  out << "[hotspots]\n";
  std::size_t shown = 0;
  for (const PerfPath& p : snap.paths) {
    if (shown++ >= top_n) break;
    out << "  " << p.path << ": count=" << p.count;
    if (include_wall_time) {
      out << " self=" << fmt("%.3f", p.est_self_s * 1e3) << "ms"
          << " total=" << fmt("%.3f", p.est_total_s * 1e3) << "ms";
    }
    out << " self-allocs=" << p.self_allocs << "\n";
  }
}

void write_perf_json(std::ostream& out, const PerfSnapshot& snap,
                     const std::string& workload, double sim_seconds,
                     std::size_t top_n, std::string_view digest) {
  JsonWriter w(out);
  w.begin_document("tracemod-perf-v1", json::kLines1)
      .member("workload", workload)
      .member("wall_s", snap.wall_s, "%.6f")
      .member("sim_s", sim_seconds, "%.6f")
      .member("sim_per_wall",
              snap.wall_s > 0.0 ? sim_seconds / snap.wall_s : 0.0, "%.6g")
      .member("events", snap.dispatched)
      .member("events_per_sec", snap.events_per_sec(), "%.6g")
      .member("allocs", snap.allocs.allocs)
      .member("frees", snap.allocs.frees)
      .member("alloc_bytes", snap.allocs.bytes_allocated)
      .member("allocs_per_event", snap.allocs_per_event(), "%.6g")
      .member("sampling_stride", snap.sampling_stride);
  if (!digest.empty()) w.member("digest", digest);
  w.begin_array("domains", json::kLines2);
  for (const PerfDomainStats& d : snap.domains) {
    w.begin_object()
        .member("domain", to_string(d.domain))
        .member("count", d.count)
        .member("self_s", d.est_self_s, "%.6f")
        .member("self_allocs", d.self_allocs)
        .member("self_alloc_bytes", d.self_alloc_bytes)
        .end_object();
  }
  w.end_array().begin_array("hotspots", json::kLines2);
  for (std::size_t i = 0; i < std::min(top_n, snap.paths.size()); ++i) {
    const PerfPath& p = snap.paths[i];
    w.begin_object()
        .member("path", p.path)
        .member("count", p.count)
        .member("self_s", p.est_self_s, "%.6f")
        .member("total_s", p.est_total_s, "%.6f")
        .member("self_allocs", p.self_allocs)
        .member("self_alloc_bytes", p.self_alloc_bytes)
        .end_object();
  }
  w.end_array().end_object();
}

void append_perf_to_telemetry(TelemetrySnapshot& tel,
                              const PerfSnapshot& snap) {
  sorted_upsert<std::uint64_t>(tel.counters, metric::kPerfEventsProfiled,
                               snap.dispatched);
  sorted_upsert<std::uint64_t>(tel.counters, metric::kPerfAllocs,
                               snap.allocs.allocs);
  sorted_upsert<std::uint64_t>(tel.counters, metric::kPerfFrees,
                               snap.allocs.frees);
  sorted_upsert<std::uint64_t>(tel.counters, metric::kPerfAllocBytes,
                               snap.allocs.bytes_allocated);

  TimeSeries heap, depth, rate;
  double prev_wall = 0.0;
  std::uint64_t prev_dispatched = 0;
  for (const PerfProfiler::CounterSample& s : snap.samples) {
    heap.sample(s.at, static_cast<double>(s.heap_live_bytes));
    depth.sample(s.at, static_cast<double>(s.queue_depth));
    const double dt = s.wall_s - prev_wall;
    if (dt > 0.0) {
      rate.sample(s.at,
                  static_cast<double>(s.dispatched - prev_dispatched) / dt);
    }
    prev_wall = s.wall_s;
    prev_dispatched = s.dispatched;
  }
  // capture_telemetry emits channels in name order (MetricsRegistry is a
  // std::map); keep that invariant so merged exports stay deterministic.
  sorted_put<TimeSeries>(tel.series, metric::kPerfHeapLiveBytes, heap);
  sorted_put<TimeSeries>(tel.series, metric::kPerfEventQueueDepth, depth);
  sorted_put<TimeSeries>(tel.series, metric::kPerfEventsPerSec, rate);
  sorted_put<Histogram>(tel.histograms, metric::kPerfDispatchSelfUs,
                        snap.dispatch_self_us);
}

}  // namespace tracemod::sim::perf
