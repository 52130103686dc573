#include "sim/status/status.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <ostream>
#include <utility>

#include "sim/crc32c.hpp"
#include "sim/io/durable.hpp"
#include "sim/io/framed.hpp"
#include "sim/json.hpp"
#include "version.hpp"

#if defined(_WIN32)
#include <process.h>
#else
#include <unistd.h>
#endif

namespace tracemod::sim::status {

// --- TMST codec -------------------------------------------------------------

namespace {

constexpr char kMagic[4] = {'T', 'M', 'S', 'T'};
constexpr std::size_t kHeaderSize = 4 + 2 + 4 + 4;  // magic|version|len|crc
constexpr std::uint32_t kMaxPayload = 1u << 20;     // snapshots are tiny

std::string encode_payload(const StatusSnapshot& s) {
  std::string out;
  for (const std::string* f : {&s.tool_version, &s.driver, &s.phase,
                               &s.units_label}) {
    io::put_str(out, *f);
  }
  io::put(out, s.seq);
  io::put(out, s.pid);
  io::put(out, s.published_unix_ms);
  io::put(out, s.units_done);
  io::put(out, s.units_total);
  for (const std::uint64_t v : {s.events_dispatched, s.retries, s.errors,
                                s.windows_distilled, s.windows_shed,
                                s.records_streamed}) {
    io::put(out, v);
  }
  for (const double v : {s.sim_seconds, s.wall_seconds, s.sim_per_wall,
                         s.eta_seconds}) {
    io::put(out, v);
  }
  io::put(out, static_cast<std::uint8_t>(s.finished ? 1 : 0));
  io::put(out, static_cast<std::uint32_t>(s.exit_code));
  return out;
}

/// Decodes the payload; nullopt when it is short or has trailing bytes.
std::optional<StatusSnapshot> decode_payload(std::string_view payload) {
  io::Cursor c(payload);
  StatusSnapshot s;
  for (std::string* f : {&s.tool_version, &s.driver, &s.phase,
                         &s.units_label}) {
    *f = c.get_str();
  }
  s.seq = c.get<std::uint64_t>();
  s.pid = c.get<std::uint64_t>();
  s.published_unix_ms = c.get<std::uint64_t>();
  s.units_done = c.get<double>();
  s.units_total = c.get<double>();
  for (std::uint64_t* v : {&s.events_dispatched, &s.retries, &s.errors,
                           &s.windows_distilled, &s.windows_shed,
                           &s.records_streamed}) {
    *v = c.get<std::uint64_t>();
  }
  for (double* v : {&s.sim_seconds, &s.wall_seconds, &s.sim_per_wall,
                    &s.eta_seconds}) {
    *v = c.get<double>();
  }
  s.finished = c.get<std::uint8_t>() != 0;
  s.exit_code = static_cast<std::int32_t>(c.get<std::uint32_t>());
  if (!c.done()) return std::nullopt;
  return s;
}

std::uint64_t current_pid() {
#if defined(_WIN32)
  return static_cast<std::uint64_t>(_getpid());
#else
  return static_cast<std::uint64_t>(::getpid());
#endif
}

std::uint64_t unix_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::vector<std::uint8_t> encode_status(const StatusSnapshot& snap) {
  const std::string payload = encode_payload(snap);
  std::string out(kMagic, sizeof(kMagic));
  io::put(out, kStatusFormatVersion);
  io::put(out, static_cast<std::uint32_t>(payload.size()));
  io::put(out, crc32c(payload.data(), payload.size()));
  out += payload;
  return std::vector<std::uint8_t>(out.begin(), out.end());
}

StatusReadResult decode_status(const std::uint8_t* data, std::size_t size) {
  StatusReadResult r;
  r.status = StatusReadStatus::kCorrupt;
  if (size < kHeaderSize) {
    r.message = "file shorter than the TMST header (torn write?)";
    return r;
  }
  io::Cursor header(data, kHeaderSize);
  if (header.bytes(sizeof(kMagic)) !=
      std::string_view(kMagic, sizeof(kMagic))) {
    r.message = "bad magic: not a TMST status file";
    return r;
  }
  const auto version = header.get<std::uint16_t>();
  if (version != kStatusFormatVersion) {
    r.message = "unsupported TMST version " + std::to_string(version);
    return r;
  }
  const auto len = header.get<std::uint32_t>();
  const auto crc = header.get<std::uint32_t>();
  if (len > kMaxPayload) {
    r.message = "payload length implausible";
    return r;
  }
  if (size != kHeaderSize + len) {
    r.message = "payload truncated: header claims " + std::to_string(len) +
                " bytes, file carries " +
                std::to_string(size - kHeaderSize);
    return r;
  }
  const std::string_view payload(
      reinterpret_cast<const char*>(data) + kHeaderSize, len);
  if (crc32c(payload.data(), payload.size()) != crc) {
    r.message = "CRC mismatch: snapshot payload is damaged";
    return r;
  }
  std::optional<StatusSnapshot> snapshot = decode_payload(payload);
  if (!snapshot) {
    r.message = "status snapshot payload does not decode";
    return r;
  }
  r.snapshot = std::move(*snapshot);
  r.status = StatusReadStatus::kOk;
  return r;
}

StatusReadResult read_status_file(const std::string& path) {
  StatusReadResult r;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    r.status = StatusReadStatus::kMissing;
    r.message = "no status file at " + path;
    return r;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return decode_status(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                       bytes.size());
}

void write_status_json(std::ostream& out, const StatusSnapshot& s) {
  JsonWriter w(out);
  w.begin_object(json::kHanging)
      .member("schema", kStatusSchema)
      .member("tool_version", s.tool_version)
      .member("driver", s.driver)
      .member("phase", s.phase)
      .member("seq", s.seq)
      .member("pid", s.pid)
      .member("published_unix_ms", s.published_unix_ms);
  w.begin_object("units")
      .member("label", s.units_label)
      .member("done", s.units_done)
      .member("total", s.units_total)
      .end_object();
  w.member("events_dispatched", s.events_dispatched)
      .member("retries", s.retries)
      .member("errors", s.errors)
      .member("windows_distilled", s.windows_distilled)
      .member("windows_shed", s.windows_shed)
      .member("records_streamed", s.records_streamed)
      .member("sim_seconds", s.sim_seconds)
      .member("wall_seconds", s.wall_seconds)
      .member("sim_per_wall", s.sim_per_wall)
      // A negative ETA means unknown; NaN is written as null.
      .member("eta_seconds", s.eta_seconds >= 0.0 ? s.eta_seconds : NAN)
      .member("finished", s.finished)
      .key("exit_code");
  s.finished ? w.value(s.exit_code) : w.null();
  w.end_object();
}

// --- StatusBoard ------------------------------------------------------------

bool StatusBoard::configure(Config cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  path_ = std::move(cfg.path);
  driver_ = std::move(cfg.driver);
  min_interval_s_ = cfg.min_publish_interval_s;
  wall_start_ = std::chrono::steady_clock::now();
  phase_ = "starting";
  enabled_.store(true, std::memory_order_relaxed);
  publish_locked();
  if (write_failures_.load(std::memory_order_relaxed) > 0) {
    enabled_.store(false, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void StatusBoard::set_phase(const std::string& phase) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  phase_ = phase;
  publish_locked();
}

void StatusBoard::set_units(const std::string& label, double total) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  units_label_ = label;
  units_total_ = total;
}

void StatusBoard::set_units_follow_sim(bool follow) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  units_follow_sim_ = follow;
}

void StatusBoard::add_units_done(std::uint64_t n) {
  units_done_.fetch_add(n, std::memory_order_relaxed);
}
void StatusBoard::add_retries(std::uint64_t n) {
  retries_.fetch_add(n, std::memory_order_relaxed);
}
void StatusBoard::add_errors(std::uint64_t n) {
  errors_.fetch_add(n, std::memory_order_relaxed);
}
void StatusBoard::add_windows_distilled(std::uint64_t n) {
  windows_distilled_.fetch_add(n, std::memory_order_relaxed);
}
void StatusBoard::add_windows_shed(std::uint64_t n) {
  windows_shed_.fetch_add(n, std::memory_order_relaxed);
}
void StatusBoard::add_records_streamed(std::uint64_t n) {
  records_streamed_.fetch_add(n, std::memory_order_relaxed);
}

void StatusBoard::note_dispatch(std::uint64_t delta_events,
                                double sim_now_s) {
  events_.fetch_add(delta_events, std::memory_order_relaxed);
  // Monotone max across concurrently heartbeating worlds: the published
  // virtual clock never runs backwards.
  std::uint64_t cur = sim_now_bits_.load(std::memory_order_relaxed);
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(sim_now_s);
  while (sim_now_s > std::bit_cast<double>(cur) &&
         !sim_now_bits_.compare_exchange_weak(cur, bits,
                                              std::memory_order_relaxed)) {
  }
  maybe_publish();
}

void StatusBoard::maybe_publish() {
  if (!enabled()) return;
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start_)
          .count();
  const std::int64_t interval_ns =
      static_cast<std::int64_t>(min_interval_s_ * 1e9);
  if (now_ns - last_publish_ns_.load(std::memory_order_relaxed) <
      interval_ns) {
    return;
  }
  // try_lock, not lock: a worker thread must never block on a slow disk.
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;
  if (now_ns - last_publish_ns_.load(std::memory_order_relaxed) <
      interval_ns) {
    return;  // lost the race to a concurrent publisher
  }
  publish_locked();
}

void StatusBoard::publish_now() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  publish_locked();
}

void StatusBoard::finish(int exit_code) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  finished_ = true;
  exit_code_ = exit_code;
  if (phase_ != "finished") phase_ = "finished";
  publish_locked();
}

StatusSnapshot StatusBoard::peek() const {
  std::lock_guard<std::mutex> lock(mu_);
  return build_snapshot_locked();
}

StatusSnapshot StatusBoard::build_snapshot_locked() const {
  StatusSnapshot s;
  s.tool_version = kToolVersion;
  s.driver = driver_;
  s.phase = phase_;
  s.units_label = units_label_;
  s.seq = seq_.load(std::memory_order_relaxed) + 1;
  s.pid = current_pid();
  s.published_unix_ms = unix_now_ms();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start_;
  s.wall_seconds = wall.count();
  s.sim_seconds =
      std::bit_cast<double>(sim_now_bits_.load(std::memory_order_relaxed));
  s.units_total = units_total_;
  s.units_done = units_follow_sim_
                     ? (units_total_ > 0.0
                            ? std::min(s.sim_seconds, units_total_)
                            : s.sim_seconds)
                     : static_cast<double>(
                           units_done_.load(std::memory_order_relaxed));
  s.events_dispatched = events_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.windows_distilled = windows_distilled_.load(std::memory_order_relaxed);
  s.windows_shed = windows_shed_.load(std::memory_order_relaxed);
  s.records_streamed = records_streamed_.load(std::memory_order_relaxed);
  if (s.wall_seconds > 0.0 && s.sim_seconds > 0.0) {
    s.sim_per_wall = s.sim_seconds / s.wall_seconds;
  }
  s.finished = finished_;
  s.exit_code = exit_code_;
  if (finished_) {
    s.eta_seconds = 0.0;
  } else if (s.units_total > 0.0 && s.units_done > 0.0 &&
             s.units_done <= s.units_total) {
    s.eta_seconds =
        s.wall_seconds * (s.units_total - s.units_done) / s.units_done;
  }
  return s;
}

void StatusBoard::publish_locked() {
  const StatusSnapshot snap = build_snapshot_locked();
  const std::vector<std::uint8_t> image = encode_status(snap);
  // Atomic replace via a pid/seq-unique tmp: readers see either the
  // previous complete snapshot or this one, never a mix, two boards
  // publishing to one path never clobber each other's tmp, and tmp files
  // orphaned by a killed run are swept on the next writer's open.
  // Degradation policy: a failed publish drops this snapshot (counted in
  // status.publish_failed) and the run continues -- the status plane must
  // never abort or block the work it is describing.
  const io::IoResult r =
      io::write_file_atomic(path_, std::string_view(reinterpret_cast<const char*>(
                                                        image.data()),
                                                    image.size()));
  if (!r.ok) {
    write_failures_.fetch_add(1, std::memory_order_relaxed);
    io::io_counters().status_publish_failures.fetch_add(
        1, std::memory_order_relaxed);
    return;
  }
  seq_.fetch_add(1, std::memory_order_relaxed);
  last_publish_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - wall_start_)
                             .count(),
                         std::memory_order_relaxed);
}

}  // namespace tracemod::sim::status
