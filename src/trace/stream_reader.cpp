#include "trace/stream_reader.hpp"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "sim/metric_names.hpp"
#include "sim/sim_context.hpp"
#include "trace/frame_format.hpp"

namespace tracemod::trace {

namespace io = sim::io;

namespace {

/// Read granularity.  The buffer never grows past roughly one chunk plus
/// two maximum frames, no matter how large the stream is.
constexpr std::size_t kReadChunk = 256 * 1024;

/// Largest on-disk v1 record: packet tag byte + 40 payload bytes.
constexpr std::size_t kMaxV1RecordBytes = 41;

/// The stream writer's batch: one write() per this many bytes of frames.
constexpr std::size_t kWriteBatch = 64 * 1024;

/// True when a whole frame that checksums starts at bytes[pos].
bool frame_validates(std::string_view bytes, std::size_t pos) {
  return io::scan_frame(bytes, pos, wire::kMaxRecordPayload).status ==
         io::FrameScan::kOk;
}

}  // namespace

// --- construction -----------------------------------------------------------

TraceStreamReader::TraceStreamReader(std::istream& in,
                                     const TraceReadOptions& options)
    : in_(&in), opts_(options) {
  report_.mode = options.mode;

  // Probe the stream size when seekable; read_trace_ex uses it to clamp the
  // reservation exactly the way the slurping reader's remaining-byte count
  // did.
  const std::streampos start = in_->tellg();
  if (start != std::streampos(-1)) {
    in_->seekg(0, std::ios::end);
    const std::streampos end = in_->tellg();
    in_->seekg(start);
    if (end != std::streampos(-1) && end >= start) {
      stream_size_ = static_cast<std::uint64_t>(end - start);
    }
  }

  // Header: magic | version | schema table | record count.  The header must
  // be intact even for salvage: without it there is no trustworthy record
  // framing to resynchronize against.  It is parsed in one cursor pass over
  // the buffered bytes; a header longer than the buffer (the first read is
  // a whole chunk, so only a hostile schema table) buffers more and parses
  // again.
  for (std::size_t want = wire::kMaxFrameBytes;; want *= 2) {
    ensure(want);
    io::Cursor c(buf_.data() + pos_, avail());
    if (c.bytes(sizeof(wire::kMagic)) !=
        std::string_view(wire::kMagic, sizeof(wire::kMagic))) {
      throw TraceFormatError("bad magic");
    }
    report_.version = c.get<std::uint16_t>();
    if (c.ok() && report_.version != kTraceFormatVersionV1 &&
        report_.version != kTraceFormatVersionV2) {
      throw TraceFormatError("unsupported version " +
                             std::to_string(report_.version));
    }
    const auto n_schemas = c.get<std::uint8_t>();
    for (std::uint8_t i = 0; i < n_schemas && c.ok(); ++i) {
      (void)c.get<std::uint8_t>();            // tag
      (void)c.bytes(c.get<std::uint16_t>());  // name
      const auto n_fields = c.get<std::uint8_t>();
      for (std::uint8_t f = 0; f < n_fields; ++f) {
        (void)c.bytes(c.get<std::uint16_t>());  // field name
      }
    }
    report_.records_expected = c.get<std::uint64_t>();
    if (c.ok()) {
      pos_ += c.pos();
      break;
    }
    if (stream_exhausted_) {
      fail("unexpected end of stream in header", abs() + c.pos());
    }
  }
  header_bytes_ = abs();
  hold_rel_ = pos_;
}

TraceStreamReader::TraceStreamReader(std::istream& in, FrameRange,
                                     std::uint16_t version,
                                     std::uint64_t base_offset)
    : in_(&in), headerless_(true), base_(base_offset),
      header_bytes_(base_offset) {
  opts_.mode = ReadMode::kSalvage;
  report_.mode = ReadMode::kSalvage;
  report_.version = version;
}

// --- buffer management ------------------------------------------------------

void TraceStreamReader::ensure(std::size_t n) {
  if (avail() >= n || stream_exhausted_) return;
  // Compact: everything before the hold point (the earliest byte a salvage
  // resync may still revisit) is done with.
  const std::size_t keep_from = std::min(pos_, hold_rel_);
  if (keep_from > 0) {
    buf_.erase(0, keep_from);
    base_ += keep_from;
    pos_ -= keep_from;
    hold_rel_ -= keep_from;
  }
  while (avail() < n && !stream_exhausted_) {
    const std::size_t chunk = std::max(n, kReadChunk);
    const std::size_t old = buf_.size();
    buf_.resize(old + chunk);
    in_->read(buf_.data() + old, static_cast<std::streamsize>(chunk));
    const auto got = static_cast<std::size_t>(in_->gcount());
    buf_.resize(old + got);
    if (got < chunk) stream_exhausted_ = true;
  }
}

void TraceStreamReader::fail(const std::string& what,
                             std::uint64_t offset) const {
  throw TraceFormatError(what, offset,
                         report_.records_read + report_.records_skipped);
}

// --- salvage bookkeeping ----------------------------------------------------

void TraceStreamReader::queue_damage(std::uint8_t tag, std::uint32_t n,
                                     std::uint64_t frame_start_abs) {
  if (lost_packet_ == 0 && lost_device_ == 0) damage_start_ = frame_start_abs;
  if (tag == static_cast<std::uint8_t>(wire::RecordTag::kDevice)) {
    lost_device_ += n;
  } else {
    lost_packet_ += n;
  }
}

void TraceStreamReader::flush_damage() {
  if (lost_packet_ == 0 && lost_device_ == 0) return;
  pending_.push_back(
      {TraceRecord{LostRecords{last_good_, lost_packet_, lost_device_}},
       damage_start_});
  ++report_.lost_markers_synthesized;
  lost_packet_ = 0;
  lost_device_ = 0;
}

void TraceStreamReader::emit_good(TraceRecord rec,
                                  std::uint64_t frame_start_abs) {
  flush_damage();
  last_good_ = record_time(rec);
  pending_.push_back({std::move(rec), frame_start_abs});
  ++report_.records_read;
  if (damage_seen_) ++report_.records_salvaged;
}

void TraceStreamReader::finish() {
  if (done_) return;
  if (strict() && !headerless_) {
    if (report_.records_read < report_.records_expected) {
      throw TraceFormatError("unexpected end of stream", abs(),
                             last_record_index_);
    }
    // Bytes past the declared count mean the count is wrong: a stream
    // writer that never finalized (count still zero) or a damaged field.
    ensure(1);
    if (avail() > 0) {
      fail("trailing bytes after the declared record count", abs());
    }
  }
  // Clean EOF but fewer frames than the header declared: the stream lost
  // its tail (or the count field itself is damaged) -- either way the
  // reader delivered less than promised, which salvage must report.  This
  // also catches truncation that lands exactly on a frame boundary.
  if (!strict() && !headerless_ &&
      report_.records_read + report_.records_skipped <
          report_.records_expected) {
    report_.truncated = true;
  }
  flush_damage();
  if (opts_.metrics != nullptr) {
    sim::MetricsRegistry& m = *opts_.metrics;
    m.counter(sim::metric::kRecordsSalvaged) += report_.records_salvaged;
    m.counter(sim::metric::kCrcFailures) += report_.crc_failures;
    m.counter(sim::metric::kResyncScans) += report_.resync_scans;
  }
  done_ = true;
}

bool TraceStreamReader::resync(std::uint64_t frame_start_abs) {
  ++report_.resync_scans;
  pos_ = static_cast<std::size_t>(frame_start_abs - base_) + 1;
  for (;;) {
    hold_rel_ = pos_;
    ensure(wire::kMaxFrameBytes);
    if (avail() == 0) {
      report_.bytes_scanned += abs() - frame_start_abs;
      report_.truncated = true;
      return false;
    }
    if (frame_validates(buf_, pos_)) {
      report_.bytes_scanned += abs() - frame_start_abs;
      return true;
    }
    ++pos_;
  }
}

// --- record iteration -------------------------------------------------------

bool TraceStreamReader::next(TraceRecord* out) {
  if (pending_.empty() && !done_) {
    if (report_.version == kTraceFormatVersionV1) {
      next_v1();
    } else {
      next_v2();
    }
  }
  if (pending_.empty()) return false;
  *out = std::move(pending_.front().record);
  record_frame_offset_ = pending_.front().frame_offset;
  pending_.pop_front();
  return true;
}

void TraceStreamReader::next_v2() {
  while (pending_.empty() && !done_) {
    if (strict() && !headerless_ &&
        report_.records_read >= report_.records_expected) {
      finish();
      break;
    }
    hold_rel_ = pos_;
    ensure(wire::kMaxFrameBytes);
    if (avail() == 0) {
      finish();
      break;
    }
    last_record_index_ = report_.records_read + report_.records_skipped;
    const std::uint64_t frame_start = abs();

    const io::ScannedFrame f =
        io::scan_frame(buf_, pos_, wire::kMaxRecordPayload);
    if (f.status == io::FrameScan::kTornTail &&
        avail() < io::kFrameHeaderBytes) {
      if (strict()) {
        fail("unexpected end of stream in frame header", abs());
      }
      report_.truncated = true;
      ++report_.records_skipped;
      queue_damage(0, 1, frame_start);
      damage_seen_ = true;
      pos_ = buf_.size();
      finish();
      break;
    }

    // A length that cannot fit the stream (or is absurd) means the header
    // itself is corrupt: the length cannot be trusted to skip forward, so
    // resynchronize by scanning for the next frame that checksums.  The
    // buffer holds at least kMaxFrameBytes here unless the stream ended,
    // so a torn payload agrees with the slurping reader's remaining-byte
    // check.
    if (f.status == io::FrameScan::kImplausibleLength ||
        f.status == io::FrameScan::kTornTail) {
      if (strict()) {
        fail(f.status == io::FrameScan::kImplausibleLength
                 ? "implausible record length " + std::to_string(f.length)
                 : "unexpected end of stream in record payload",
             frame_start + io::kFrameHeaderBytes);
      }
      queue_damage(0, 1, frame_start);
      damage_seen_ = true;
      ++report_.records_skipped;
      if (!resync(frame_start)) {
        finish();
        break;
      }
      continue;
    }

    const std::size_t payload_pos = pos_ + io::kFrameHeaderBytes;
    pos_ = f.next;

    if (f.status == io::FrameScan::kCrcMismatch) {
      if (strict()) {
        throw TraceFormatError("record checksum mismatch", frame_start,
                               last_record_index_);
      }
      ++report_.crc_failures;
      ++report_.records_skipped;
      queue_damage(f.type, 1, frame_start);
      damage_seen_ = true;
      // The length field may be part of the damage (a plausible-but-wrong
      // value skips into the middle of a later frame and cascades).  Only
      // trust the skip if it lands on a frame that checksums, or on EOF.
      ensure(wire::kMaxFrameBytes);
      if (avail() > 0 && !frame_validates(buf_, pos_)) {
        if (!resync(frame_start)) {
          finish();
          break;
        }
      }
      continue;
    }
    if (!wire::known_tag(f.type)) {
      if (strict()) {
        throw TraceFormatError("unknown record tag " + std::to_string(f.type),
                               frame_start, last_record_index_);
      }
      ++report_.unknown_tags;
      ++report_.records_skipped;
      queue_damage(f.type, 1, frame_start);
      damage_seen_ = true;
      continue;
    }

    // A checksummed frame of a known type.  Decode from the payload span;
    // a payload longer than the fields we know is a newer minor revision
    // (extra fields are ignored), a shorter one is damage the CRC cannot
    // see (it was written that way), which strict mode rejects.
    io::Cursor body(f.payload);
    try {
      TraceRecord rec = wire::decode_payload(
          static_cast<wire::RecordTag>(f.type), body, base_ + payload_pos,
          last_record_index_);
      emit_good(std::move(rec), frame_start);
    } catch (const TraceFormatError&) {
      if (strict()) throw;
      ++report_.records_skipped;
      queue_damage(f.type, 1, frame_start);
      damage_seen_ = true;
    }
  }
}

void TraceStreamReader::next_v1() {
  while (pending_.empty() && !done_) {
    if (!headerless_ && v1_index_ >= report_.records_expected) {
      finish();
      break;
    }
    hold_rel_ = pos_;
    ensure(kMaxV1RecordBytes);
    if (headerless_ && avail() == 0) {
      finish();
      break;
    }
    last_record_index_ = v1_index_;
    const std::uint64_t frame_start = abs();
    io::Cursor cur(buf_.data() + pos_, avail());
    if (strict()) {
      const auto tag = static_cast<wire::RecordTag>(cur.get<std::uint8_t>());
      TraceRecord rec = wire::decode_payload(tag, cur, abs(), v1_index_);
      pos_ += cur.pos();
      pending_.push_back({std::move(rec), frame_start});
      ++report_.records_read;
      ++v1_index_;
      continue;
    }
    // Salvage: v1 frames carry no length prefix, so damage cannot be
    // skipped over -- parsing stops at the first problem and the remainder
    // of the header's promised records becomes one LostRecords marker.
    try {
      const auto tag = static_cast<wire::RecordTag>(cur.get<std::uint8_t>());
      TraceRecord rec = wire::decode_payload(tag, cur, abs(), v1_index_);
      pos_ += cur.pos();
      emit_good(std::move(rec), frame_start);
      ++v1_index_;
    } catch (const TraceFormatError&) {
      if (!headerless_) {
        report_.truncated = true;
        const std::uint64_t lost = report_.records_expected - v1_index_;
        report_.records_skipped += lost;
        queue_damage(static_cast<std::uint8_t>(wire::RecordTag::kPacket),
                     static_cast<std::uint32_t>(
                         std::min<std::uint64_t>(lost, 0xffffffffu)),
                     frame_start);
      }
      finish();
      break;
    }
  }
}

// --- streaming writer -------------------------------------------------------

TraceStreamWriter::TraceStreamWriter(const std::string& path,
                                     std::uint16_t version,
                                     sim::io::FaultPlan* plan)
    : path_(path), version_(version) {
  if (!sink_.open(path, sim::io::FileSink::Mode::kTruncate, plan)) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  const std::string header = wire::container_header(version, 0);
  count_offset_ = header.size() - sizeof(std::uint64_t);
  bytes_ = header.size();
  if (!sink_.write(header)) {
    throw std::runtime_error("write failed: " + path);
  }
  batch_.reserve(kWriteBatch + wire::kMaxFrameBytes);
}

TraceStreamWriter::~TraceStreamWriter() {
  try {
    if (!finalized_) finalize();
  } catch (...) {
    // Destructors must not throw; an unfinalized file is detectably
    // invalid (its count field is zero against a non-empty body).
  }
}

void TraceStreamWriter::flush() {
  if (failed_) throw std::runtime_error("write failed earlier: " + path_);
  if (batch_.empty()) return;
  if (!sink_.write(batch_)) {
    // The file may now end in a torn frame; never patch its count.
    failed_ = true;
    throw std::runtime_error("write failed: " + path_);
  }
  batch_.clear();
}

void TraceStreamWriter::append(const TraceRecord& record) {
  const std::size_t before = batch_.size();
  wire::append_record(batch_, record, version_);
  ++records_;
  bytes_ += batch_.size() - before;
  if (batch_.size() >= kWriteBatch) flush();
}

void TraceStreamWriter::finalize() {
  if (finalized_) return;
  flush();
  // Patch the header count in place, then make the whole container
  // durable before reporting success: after finalize() returns, the trace
  // survives power loss.
  unsigned char raw[8];
  std::uint64_t v = records_;
  std::memcpy(raw, &v, sizeof(v));
  sim::io::IoResult r = sink_.write_at(count_offset_, raw, sizeof(raw));
  if (r.ok) r = sink_.datasync();
  if (r.ok) r = sink_.close();
  if (!r.ok) {
    failed_ = true;
    throw std::runtime_error("finalize failed: " + path_);
  }
  finalized_ = true;
}

}  // namespace tracemod::trace
