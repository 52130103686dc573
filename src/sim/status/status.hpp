// Live run introspection: a crash-safe status plane for long-running
// simulations.
//
// Long-running drivers (supervised sweeps, campus runs, streaming
// distillation, the fig benchmarks) periodically publish a compact
// snapshot of their progress — phase, units done/total, events dispatched,
// sim-time vs wall-time rate, retry/error counters, an ETA — to a small
// status file that any other process can read while the run executes:
//
//   tracemod status run.status            # render the latest snapshot
//   tracemod status run.status --follow   # tail it live
//   tracemod status run.status --json     # machine-readable
//
// Three properties drive the design:
//
//   1. Crash safety.  Every publish writes the whole snapshot to
//      `<path>.tmp` and atomically renames it over `<path>` (same
//      directory, so POSIX rename atomicity applies).  The payload is
//      CRC32C-tagged like the TMSJ/TMDJ journals, so a torn or damaged
//      file is detectable and the last good snapshot survives SIGKILL as
//      a postmortem of where the run died.
//
//   2. Zero perturbation.  Publishing never touches virtual time: no
//      events are scheduled, no RNG is drawn, and every driver hook sits
//      behind a single `board != nullptr && board->enabled()` branch that
//      predicts perfectly when status is off.  Status-off runs are
//      bit-identical to a build without this subsystem; status-on runs
//      are virtual-time-identical (only host-clock reads and file writes
//      are added), pinned by digest-equality tests.
//
//   3. Non-blocking workers.  Counters are relaxed atomics; the throttled
//      maybe_publish() uses try_lock, so a worker thread never blocks on
//      a slow disk — it just skips the publish and the next heartbeat
//      retries.
//
// On-disk format TMST v1: a CRC-checked envelope around the payload,
// written with the framed-record codec's writer and cursor
// (sim/io/framed.hpp).  Layout and damage policy: DESIGN.md section 15,
// "Framed records".
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace tracemod::sim::status {

/// JSON schema kind emitted by `tracemod status --json`.
inline constexpr const char* kStatusSchema = "tracemod-status-v1";

/// TMST on-disk format version.
inline constexpr std::uint16_t kStatusFormatVersion = 1;

/// One published snapshot of a run's progress.  Counters that a given
/// driver does not use stay zero (a sweep has no windows; a distillation
/// has no trials); `units_*` is the driver's primary progress axis.
struct StatusSnapshot {
  std::string tool_version;  ///< tracemod::kToolVersion of the publisher
  std::string driver;        ///< "sweep" | "campus" | "distill" | "perf" | ...
  std::string phase;         ///< driver-specific phase label
  std::string units_label;   ///< what units_done/total count ("trials", ...)
  std::uint64_t seq = 0;     ///< publish sequence number, starts at 1
  std::uint64_t pid = 0;     ///< publishing process, for liveness checks
  std::uint64_t published_unix_ms = 0;  ///< host clock at publish
  double units_done = 0.0;
  double units_total = 0.0;  ///< 0 = unknown / open-ended
  std::uint64_t events_dispatched = 0;
  std::uint64_t retries = 0;  ///< guarded-trial retry attempts
  std::uint64_t errors = 0;   ///< trials that exhausted retries
  std::uint64_t windows_distilled = 0;
  std::uint64_t windows_shed = 0;
  std::uint64_t records_streamed = 0;
  double sim_seconds = 0.0;   ///< latest heartbeat's virtual clock
  double wall_seconds = 0.0;  ///< host time since the board was configured
  double sim_per_wall = 0.0;  ///< sim_seconds / wall_seconds, 0 = unknown
  double eta_seconds = -1.0;  ///< projected wall time remaining, <0 unknown
  bool finished = false;
  std::int32_t exit_code = -1;  ///< meaningful only when finished
};

/// Serializes a snapshot as a TMST v1 file image (header + CRC + payload).
std::vector<std::uint8_t> encode_status(const StatusSnapshot& snap);

enum class StatusReadStatus {
  kOk,       ///< snapshot decoded and CRC-verified
  kMissing,  ///< no file at the path
  kCorrupt,  ///< torn write, bad magic/version, CRC mismatch, or damage
};

struct StatusReadResult {
  StatusReadStatus status = StatusReadStatus::kMissing;
  std::string message;  ///< human-readable diagnosis for kCorrupt/kMissing
  StatusSnapshot snapshot;
};

/// Reads and verifies a status file.  Never throws: any damage is reported
/// as kCorrupt with a diagnosis, so a postmortem reader can distinguish
/// "run never started" from "snapshot damaged".
StatusReadResult read_status_file(const std::string& path);

/// Decodes a TMST image from memory (same validation as read_status_file).
StatusReadResult decode_status(const std::uint8_t* data, std::size_t size);

/// Writes the `tracemod-status-v1` JSON document for a snapshot.
void write_status_json(std::ostream& out, const StatusSnapshot& snap);

/// Shared, thread-safe progress board.  The driver owns one and hands a
/// pointer to its subsystems; a null pointer (the default everywhere)
/// means status is off and no hook executes any code beyond one branch.
class StatusBoard {
 public:
  struct Config {
    std::string path;    ///< status file; `<path>.tmp` is the staging file
    std::string driver;  ///< snapshot driver label
    double min_publish_interval_s = 0.25;  ///< maybe_publish throttle
  };

  StatusBoard() = default;
  StatusBoard(const StatusBoard&) = delete;
  StatusBoard& operator=(const StatusBoard&) = delete;

  /// Enables the board and publishes snapshot #1 (phase "starting").
  /// Returns false if the status file could not be written, leaving the
  /// board disabled so the run proceeds without status.
  bool configure(Config cfg);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Sets the phase label and publishes immediately (phase changes are
  /// rare and load-bearing for postmortems: "which stage died?").
  void set_phase(const std::string& phase);

  /// Declares the primary progress axis.  total == 0 means open-ended.
  void set_units(const std::string& label, double total);

  /// When set, units_done tracks sim_seconds from heartbeats (single-world
  /// drivers like campus, whose natural axis is the virtual horizon).
  void set_units_follow_sim(bool follow);

  void add_units_done(std::uint64_t n = 1);
  void add_retries(std::uint64_t n);
  void add_errors(std::uint64_t n);
  void add_windows_distilled(std::uint64_t n);
  void add_windows_shed(std::uint64_t n);
  void add_records_streamed(std::uint64_t n);

  /// Event-loop heartbeat hook: accumulates dispatched events and advances
  /// the published virtual clock (monotone max across worlds), then
  /// maybe_publish().  Called from run_event_loop_until every
  /// wall_check_interval dispatches when status is on.
  void note_dispatch(std::uint64_t delta_events, double sim_now_s);

  /// Publishes if at least min_publish_interval_s elapsed since the last
  /// snapshot and the publish lock is free; otherwise returns without
  /// blocking.  Safe from any thread.
  void maybe_publish();

  /// Publishes unconditionally (phase boundaries, final snapshot).
  void publish_now();

  /// Marks the run finished with its exit code and publishes.
  void finish(int exit_code);

  /// Current counters as a snapshot, without writing (tests, drivers).
  StatusSnapshot peek() const;

  std::uint64_t publishes() const {
    return seq_.load(std::memory_order_relaxed);
  }
  std::uint64_t write_failures() const {
    return write_failures_.load(std::memory_order_relaxed);
  }
  const std::string& path() const { return path_; }

 private:
  StatusSnapshot build_snapshot_locked() const;
  void publish_locked();

  std::atomic<bool> enabled_{false};
  std::string path_;
  std::string driver_;
  double min_interval_s_ = 0.25;
  std::chrono::steady_clock::time_point wall_start_{};

  mutable std::mutex mu_;        // phase/label strings + publish I/O
  std::string phase_;
  std::string units_label_;
  double units_total_ = 0.0;
  bool units_follow_sim_ = false;
  bool finished_ = false;
  std::int32_t exit_code_ = -1;

  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> units_done_{0};
  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> windows_distilled_{0};
  std::atomic<std::uint64_t> windows_shed_{0};
  std::atomic<std::uint64_t> records_streamed_{0};
  std::atomic<std::uint64_t> sim_now_bits_{0};  // double bit pattern, max
  std::atomic<std::int64_t> last_publish_ns_{0};
  std::atomic<std::uint64_t> write_failures_{0};
};

}  // namespace tracemod::sim::status
