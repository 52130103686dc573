// Discrete-event scheduler.
//
// EventLoop owns virtual time.  Components schedule callbacks at absolute or
// relative times; run() dispatches them in timestamp order (FIFO among equal
// timestamps).  Scheduling returns an EventId that can be cancelled, which is
// how protocol timers (TCP retransmission, NFS RPC timeouts, ...) are built.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "sim/time.hpp"

namespace tracemod::sim {

/// Opaque handle for a scheduled event.  Value 0 is never issued.
using EventId = std::uint64_t;

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time.  Advances only inside run()/run_until()/step().
  TimePoint now() const { return now_; }

  /// Schedules fn at absolute time t.  Times in the past are clamped to
  /// now().  Returns a cancellable id.  The optional tag (a static string)
  /// names the handler's perf-plane call path ("event_loop;<tag>",
  /// sim/perf/perf.hpp); it has no effect on dispatch.
  EventId schedule_at(TimePoint t, std::function<void()> fn,
                      const char* tag = nullptr);

  /// Schedules fn after the given delay (>= 0).
  EventId schedule(Duration delay, std::function<void()> fn,
                   const char* tag = nullptr) {
    return schedule_at(now_ + delay, std::move(fn), tag);
  }

  /// Cancels a pending event.  Returns false if it already ran, was already
  /// cancelled, or never existed.
  bool cancel(EventId id);

  /// True if the event has been scheduled and has neither run nor been
  /// cancelled.
  bool pending(EventId id) const { return live_.count(id) != 0; }

  /// Runs events until the queue is empty.
  void run();

  /// Runs events with timestamp <= t, then advances the clock to t.
  void run_until(TimePoint t);

  /// Runs events for the given span of virtual time from now().
  void run_for(Duration d) { run_until(now_ + d); }

  /// Dispatches the single next event.  Returns false if the queue is empty.
  bool step();

  /// Number of events dispatched so far (for tests and diagnostics).
  std::uint64_t dispatched() const { return dispatched_; }

  /// Number of events currently pending.
  std::size_t pending_count() const { return live_.size(); }

  /// Number of heap entries, live plus not-yet-compacted dead ones (for
  /// tests and diagnostics).  Bounded by compaction: dead entries never
  /// exceed half the heap once it passes a small minimum size.
  std::size_t queue_size() const { return queue_.size(); }

  /// The most events ever pending at once, counted just after an insert
  /// (cancelled heap entries are not counted).  Deterministic.
  std::size_t queue_high_water() const { return queue_high_water_; }

 private:
  struct Entry {
    TimePoint at;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    EventId id;
    std::function<void()> fn;
    const char* tag;  // perf-plane label; nullptr = untagged
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  bool dispatch_one();
  void compact();

  TimePoint now_ = kEpoch;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_set<EventId> live_;
  EventId next_id_ = 1;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::size_t dead_in_queue_ = 0;
  std::size_t queue_high_water_ = 0;
};

/// RAII one-shot timer bound to an EventLoop.  Used by protocol state
/// machines; destroying the timer cancels any pending callback.
class Timer {
 public:
  explicit Timer(EventLoop& loop) : loop_(loop) {}
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arms the timer to fire after the delay, replacing any pending arm.
  /// The optional tag names the handler as in EventLoop::schedule_at.
  void arm(Duration delay, std::function<void()> fn,
           const char* tag = nullptr) {
    cancel();
    id_ = loop_.schedule(delay,
                         [this, fn = std::move(fn)] {
                           id_ = 0;
                           fn();
                         },
                         tag);
  }

  void cancel() {
    if (id_ != 0) {
      loop_.cancel(id_);
      id_ = 0;
    }
  }

  bool armed() const { return id_ != 0; }

  EventLoop& loop() { return loop_; }

 private:
  EventLoop& loop_;
  EventId id_ = 0;
};

}  // namespace tracemod::sim
