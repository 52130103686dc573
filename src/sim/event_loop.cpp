#include "sim/event_loop.hpp"

#include <cstdio>

#include "sim/assert.hpp"
#include "sim/perf/perf.hpp"

namespace tracemod::sim {

std::string format_time(TimePoint t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6fs", to_seconds(t));
  return buf;
}

std::string format_duration(Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6fs", to_seconds(d));
  return buf;
}

EventId EventLoop::schedule_at(TimePoint t, std::function<void()> fn,
                               const char* tag) {
  TM_ASSERT(fn != nullptr);
  if (t < now_) t = now_;  // clamp: scheduling "in the past" fires at now
  const EventId id = next_id_++;
  queue_.push(Entry{t, next_seq_++, id, std::move(fn), tag});
  live_.insert(id);
  if (live_.size() > queue_high_water_) queue_high_water_ = live_.size();
  return id;
}

bool EventLoop::cancel(EventId id) {
  if (id == 0 || live_.erase(id) == 0) return false;
  // The entry (and its captured std::function state) stays in the heap
  // until popped or compacted.  Compact once dead entries dominate, so a
  // component that repeatedly arms and cancels a Timer cannot grow the
  // heap without bound.
  ++dead_in_queue_;
  constexpr std::size_t kCompactionMinEntries = 64;
  if (queue_.size() >= kCompactionMinEntries &&
      dead_in_queue_ > queue_.size() / 2) {
    compact();
  }
  return true;
}

void EventLoop::compact() {
  std::vector<Entry> keep;
  keep.reserve(live_.size());
  while (!queue_.empty()) {
    Entry e = std::move(const_cast<Entry&>(queue_.top()));
    queue_.pop();
    if (live_.count(e.id) != 0) keep.push_back(std::move(e));
  }
  queue_ = decltype(queue_)(Later{}, std::move(keep));
  dead_in_queue_ = 0;
}

bool EventLoop::dispatch_one() {
  while (!queue_.empty()) {
    Entry e = std::move(const_cast<Entry&>(queue_.top()));
    queue_.pop();
    if (live_.erase(e.id) == 0) {  // cancelled
      if (dead_in_queue_ > 0) --dead_in_queue_;
      continue;
    }
    TM_ASSERT(e.at >= now_);
    now_ = e.at;
    ++dispatched_;
    // The wall-clock perf plane observes only (virtual time is untouched
    // and no randomness is drawn); when no profiler is attached to this
    // thread the two hooks cost a TLS load plus a predicted branch.
    perf::PerfProfiler* const pp = perf::current();
    if (pp != nullptr) pp->on_dispatch(now_, live_.size());
    perf::PerfScope scope(pp, perf::Domain::kEventLoop,
                          e.tag != nullptr ? e.tag : "(untagged)");
    e.fn();
    return true;
  }
  return false;
}

bool EventLoop::step() { return dispatch_one(); }

void EventLoop::run() {
  while (dispatch_one()) {
  }
}

void EventLoop::run_until(TimePoint t) {
  while (!queue_.empty()) {
    // Skip over cancelled entries to find the real next event time.
    if (live_.count(queue_.top().id) == 0) {
      queue_.pop();
      if (dead_in_queue_ > 0) --dead_in_queue_;
      continue;
    }
    if (queue_.top().at > t) break;
    dispatch_one();
  }
  if (now_ < t) now_ = t;
}

}  // namespace tracemod::sim
