// A fixed reference workload that reads how fast the host runs this
// process right now.
//
// The benchmark runs on shared hosts.  There, other tenants slow this
// process's code for minutes at a time: on the 4-core VM the benchmark was
// defined on, one Andrew live + modulated trial pair took 36 ms on a quiet
// host and 65-70 ms on a busy one, and a quiet host's speed drifted by 20%
// over ten minutes.  Neither steal time nor process CPU time shows it.  So
// the driver times this kernel between operations and divides each host
// time by the slowdown it reads (raised to a per-workload sensitivity, see
// driver.cpp): host times become reference seconds, host seconds at the
// host speed at which one timed run of the kernel takes kReferenceS.
//
// The kernel does the same kinds of work as the program.  A miniature
// discrete-event network simulation: a binary-heap event queue of
// type-erased callbacks, virtual handlers, per-flow hash maps, and packets
// allocated, filled and checksummed on the heap.  Then a walk through 2048
// small distinct functions in a data-dependent order, because the program's
// hot path spans far more code (transport, apps, modulation, wireless) than
// a small loop, and contention for the core's instruction cache and branch
// predictors slows it more.  In a 10-minute log of trials interleaved with
// kernel runs, the two parts together tracked the trials' slowdown more
// closely than either alone (residual sd of log time 0.041, against 0.046
// and 0.052, with the exponent fitted).  The kernel never
// changes with the program, so a faster program reads faster in reference
// seconds too.  Its own allocations are not counted (AllocSuspendGuard).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/perf/alloc_telemetry.hpp"

namespace tracemod::perfbench {

class ReferenceKernel {
 public:
  /// A round figure inside the range of one timed run's host seconds on
  /// the defining VM (0.8-1.2 ms between quiet and busy spells).
  static constexpr double kReferenceS = 1.0e-3;

  ReferenceKernel() {
    sim::perf::AllocSuspendGuard uncounted;
    net_ = std::make_unique<Net>();
    stage_state_.assign(kStageStateWords, 1);
  }

  /// Runs one fixed unit of work; returns its host seconds over
  /// kReferenceS.  Deterministic: the n-th call does the same work in
  /// every process.
  double slowdown() {
    sim::perf::AllocSuspendGuard uncounted;
    // Untimed: brings the kernel's code and state back into the caches the
    // timed operation before it may have flushed.
    net_->run(kWarmEvents);
    walk(kWarmStages);
    const auto t0 = std::chrono::steady_clock::now();
    net_->run(kEventsPerRun);
    walk(kStagesPerRun);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - t0;
    return took.count() / kReferenceS;
  }

 private:
  static constexpr int kWarmEvents = 300;
  static constexpr int kEventsPerRun = 1500;
  static constexpr std::uint32_t kFlows = 64;
  static constexpr int kWarmStages = 4000;
  static constexpr int kStagesPerRun = 20000;
  static constexpr std::size_t kStages = 2048;
  static constexpr std::uint64_t kStageStateWords = 16384;

  // --- the code walk --------------------------------------------------------

  /// One of kStages distinct functions: data-dependent branches and
  /// read-modify-writes of a 128 KiB state array.
  template <std::size_t N>
  [[gnu::noinline]] static std::uint64_t stage(std::uint64_t x,
                                               std::uint64_t* state) {
    for (std::uint64_t k = 0; k < 4; ++k) {
      if ((x >> ((N + k) % 61)) & 1) {
        x = x * (0x9E3779B97F4A7C15ull + N) + k;
      } else {
        x ^= (x >> (N % 13 + 3)) + N * k;
      }
      std::uint64_t& word = state[(x ^ N) & (kStageStateWords - 1)];
      if (word & (1ull << (N % 64))) {
        x += word;
      } else {
        word ^= x;
      }
    }
    return x;
  }

  using Stage = std::uint64_t (*)(std::uint64_t, std::uint64_t*);
  template <std::size_t... I>
  static constexpr std::array<Stage, sizeof...(I)> stage_table(
      std::index_sequence<I...>) {
    return {&stage<I>...};
  }

  void walk(int calls) {
    static constexpr std::array<Stage, kStages> kTable =
        stage_table(std::make_index_sequence<kStages>{});
    for (int i = 0; i < calls; ++i) {
      stage_x_ = kTable[(stage_x_ >> 17) & (kStages - 1)](stage_x_,
                                                          stage_state_.data());
    }
  }

  // --- the network simulation -----------------------------------------------

  struct Packet {
    std::uint32_t flow;
    std::uint32_t seq;
    std::vector<std::uint8_t> payload;
  };
  using PacketPtr = std::shared_ptr<Packet>;

  struct Handler {
    virtual ~Handler() = default;
    virtual void on(PacketPtr p, double t) = 0;
  };

  struct Event {
    double t;
    std::uint64_t seq;
    std::function<void()> fire;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.t > b.t || (a.t == b.t && a.seq > b.seq);
    }
  };

  struct Loop {
    std::priority_queue<Event, std::vector<Event>, Later> queue;
    std::uint64_t seq = 0;
    double now = 0.0;
    std::uint64_t rng = 88172645463325252ull;
    std::uint64_t checksum = 0;

    std::uint64_t draw() {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    }
    void deliver(Handler* to, PacketPtr p, double t) {
      queue.push(Event{t, seq++, [this, to, p] { to->on(p, now); }});
    }
  };

  /// Serializes packets per flow at `bytes_per_s`.
  struct Link : Handler {
    Link(Loop& l, double rate) : loop(l), bytes_per_s(rate) {}
    void on(PacketPtr p, double t) override {
      double& free_at = busy[p->flow];
      free_at = std::max(free_at, t) + p->payload.size() / bytes_per_s;
      loop.deliver(next, p, free_at + 1e-3);
    }
    Loop& loop;
    double bytes_per_s;
    Handler* next = nullptr;
    std::unordered_map<std::uint32_t, double> busy;
  };

  /// Checksums each packet and answers with a 40-byte ack.
  struct Sink : Handler {
    explicit Sink(Loop& l) : loop(l) {}
    void on(PacketPtr p, double t) override {
      std::uint32_t& expected = got[p->flow];
      if (p->seq >= expected) expected = p->seq + 1;
      std::uint64_t h = 0;
      for (std::uint8_t c : p->payload) h = h * 31 + c;
      loop.checksum += h;
      auto ack = std::make_shared<Packet>(Packet{
          p->flow, expected,
          std::vector<std::uint8_t>(40, static_cast<std::uint8_t>(expected))});
      loop.deliver(back, ack, t + 5e-4);
    }
    Loop& loop;
    Handler* back = nullptr;
    std::unordered_map<std::uint32_t, std::uint32_t> got;
  };

  /// Sends a packet of 64-1463 bytes per ack received.
  struct Source : Handler {
    explicit Source(Loop& l) : loop(l) {}
    void send(std::uint32_t flow, double t) {
      std::uint32_t& n = next_seq[flow];
      auto p = std::make_shared<Packet>(Packet{
          flow, n++, std::vector<std::uint8_t>(64 + loop.draw() % 1400)});
      std::memset(p->payload.data(), static_cast<int>(n), p->payload.size());
      out->on(p, t);
    }
    void on(PacketPtr p, double t) override { send(p->flow, t); }
    Loop& loop;
    Handler* out = nullptr;
    std::unordered_map<std::uint32_t, std::uint32_t> next_seq;
  };

  struct Net {
    Net() {
      source.out = &uplink;
      uplink.next = &sink;
      sink.back = &downlink;
      downlink.next = &source;
      for (std::uint32_t f = 0; f < kFlows; ++f) source.send(f, 0.0);
    }
    void run(int events) {
      for (int i = 0; i < events; ++i) {
        Event e = loop.queue.top();
        loop.queue.pop();
        loop.now = e.t;
        e.fire();
      }
    }
    Loop loop;
    Source source{loop};
    Link uplink{loop, 2e5};
    Link downlink{loop, 1e6};
    Sink sink{loop};
  };

  std::unique_ptr<Net> net_;
  std::vector<std::uint64_t> stage_state_;
  std::uint64_t stage_x_ = 1;
};

}  // namespace tracemod::perfbench
