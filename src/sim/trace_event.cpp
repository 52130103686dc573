#include "sim/trace_event.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <ostream>

#include "sim/json.hpp"

namespace tracemod::sim {

TrackId FlightRecorder::track(const std::string& node,
                              const std::string& layer) {
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i].node == node && tracks_[i].layer == layer) {
      return static_cast<TrackId>(i + 1);
    }
  }
  tracks_.push_back(Track{node, layer});
  return static_cast<TrackId>(tracks_.size());
}

void write_chrome_document(std::ostream& out,
                           const std::function<void(JsonWriter&)>& events) {
  JsonWriter w(out);
  w.begin_object(json::kCompact)
      .member("displayTimeUnit", "ms")
      .begin_array("traceEvents", json::kBlock0);
  events(w);
  w.end_array().end_object();
}

int write_chrome_trace_events(JsonWriter& w, const std::vector<Track>& tracks,
                              const std::vector<TraceEvent>& events,
                              const std::string& label, int pid_base) {
  // Assign process ids per distinct node (in track order) and thread ids
  // per layer within a node, so the assignment is deterministic.
  std::map<std::string, int> pid_of_node;
  std::vector<int> pid_of_track(tracks.size(), 0);
  std::vector<int> tid_of_track(tracks.size(), 0);
  std::map<std::string, int> tid_next;
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    const int next_pid = pid_base + 1 + static_cast<int>(pid_of_node.size());
    pid_of_track[i] =
        pid_of_node.try_emplace(tracks[i].node, next_pid).first->second;
    tid_of_track[i] = ++tid_next[tracks[i].node];
  }

  // Metadata: name each process and thread.
  auto metadata = [&](int pid, int tid, const char* what,
                      const std::string& name) {
    w.begin_object(json::kCompact)
        .member("ph", "M")
        .member("pid", pid)
        .member("tid", tid)
        .member("name", what)
        .begin_object("args", json::kCompact)
        .member("name", name)
        .end_object()
        .end_object();
  };
  for (const auto& [node, pid] : pid_of_node) {
    metadata(pid, 0, "process_name", label.empty() ? node : label + "/" + node);
  }
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    metadata(pid_of_track[i], tid_of_track[i], "thread_name", tracks[i].layer);
  }

  // Events, sorted by timestamp (stable: recording order breaks ties, so a
  // begin at t always precedes its end at t).
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return events[a].at < events[b].at;
                   });

  for (const std::size_t i : order) {
    const TraceEvent& e = events[i];
    if (e.track == kNoTrack || e.track > tracks.size()) continue;
    // "ts" is virtual-time microseconds, nanosecond precision kept exactly.
    w.begin_object(json::kCompact)
        .member("name", e.name)
        .member("pid", pid_of_track[e.track - 1])
        .member("tid", tid_of_track[e.track - 1])
        .key("ts")
        .thousandths(e.at.time_since_epoch().count());
    switch (e.phase) {
      case TraceEvent::Phase::kBegin:
      case TraceEvent::Phase::kEnd:
        w.member("ph", e.phase == TraceEvent::Phase::kBegin ? "b" : "e")
            .member("cat", "pkt")
            .member("id", std::to_string(e.id));
        if (e.phase == TraceEvent::Phase::kEnd) break;
        w.begin_object("args", json::kCompact)
            .member("bytes", e.value, "%.6g")
            .end_object();
        break;
      case TraceEvent::Phase::kInstant:
        w.member("ph", "i")
            .member("s", "t")
            .begin_object("args", json::kCompact)
            .member("pkt", e.id)
            .member("value", e.value, "%.6g")
            .end_object();
        break;
      case TraceEvent::Phase::kCounter:
        w.member("ph", "C")
            .begin_object("args", json::kCompact)
            .member("value", e.value, "%.6g")
            .end_object();
        break;
    }
    w.end_object();
  }
  return static_cast<int>(pid_of_node.size());
}

}  // namespace tracemod::sim
