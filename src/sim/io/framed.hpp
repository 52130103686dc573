// The framed-record codec: the one byte layout behind every binary format
// the repo persists (DESIGN.md section 15, "Framed records").
//
//   frame           type u8 | len u32 | crc32c(type ‖ payload) u32 | payload
//   journal header  magic[4] | version u16 | fingerprint u32
//
// The v2 trace container frames its records this way, and the TMSJ sweep
// journal and TMDJ distill checkpoint are a journal header followed by
// frames.  TMST status snapshots use only the writer and the cursor: their
// checksum covers the payload alone.  The codec owns the layout and
// nothing else -- what a torn, damaged or unknown frame means is each
// format's own policy, decided from scan_frame's result.
//
// Header-inline because the trace reader and writer call it per record.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "sim/crc32c.hpp"

namespace tracemod::sim::io {

// Every integer and double on disk is little-endian, written and read by
// memcpy of the native value.
static_assert(std::endian::native == std::endian::little,
              "the on-disk formats are little-endian");

// --- writer -----------------------------------------------------------------

template <typename T>
void put(std::string& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char raw[sizeof(T)];
  std::memcpy(raw, &v, sizeof(T));
  out.append(raw, sizeof(T));
}

/// A string behind a `Len`-typed length prefix.
template <typename Len = std::uint32_t>
void put_str(std::string& out, std::string_view s) {
  put<Len>(out, static_cast<Len>(s.size()));
  out.append(s);
}

// --- cursor -----------------------------------------------------------------

/// Bounds-checked reader over a byte span.  It never throws and never
/// reads past the span: the first read that does not fit (or a decoder's
/// fail()) fails the cursor without moving it, every later read yields
/// zero, and pos() stays at the offset of that first failure.  Decoders
/// read straight through and test ok() once; need_items() is the check to
/// make before an allocation.
class Cursor {
 public:
  Cursor(const void* data, std::size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}
  explicit Cursor(std::string_view bytes)
      : Cursor(bytes.data(), bytes.size()) {}

  bool ok() const { return ok_; }
  /// Every read fit and the span is used up exactly.
  bool done() const { return ok_ && pos_ == size_; }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }
  /// Shrinks the span to pos(), so every later read fails on its length.
  void fail() {
    ok_ = false;
    size_ = pos_;
  }

  /// Fails the cursor unless `count` items of at least `item_bytes` each
  /// can still fit.  Overflow-safe: a hostile count can never size an
  /// allocation past the bytes that are really there.
  bool need_items(std::uint64_t count, std::size_t item_bytes) {
    if (count > remaining() / item_bytes) fail();
    return ok_;
  }

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    if (take(sizeof(T))) {
      std::memcpy(&v, data_ + pos_ - sizeof(T), sizeof(T));
    }
    return v;
  }

  /// A view of the next `n` bytes; empty once the cursor has failed.
  std::string_view bytes(std::size_t n) {
    return take(n) ? std::string_view(data_ + pos_ - n, n)
                   : std::string_view();
  }

  /// A string behind a u32 length prefix.
  std::string get_str() { return std::string(bytes(get<std::uint32_t>())); }

 private:
  bool take(std::size_t n) {
    if (remaining() < n) [[unlikely]] {
      fail();
      return false;
    }
    pos_ += n;
    return true;
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- frames -----------------------------------------------------------------

inline constexpr std::size_t kFrameHeaderBytes = 1 + 4 + 4;

/// Reserves a frame header at the end of `out` and returns its offset.
/// The caller appends the payload in place, then calls end_frame.
inline std::size_t begin_frame(std::string& out, std::uint8_t type) {
  const std::size_t start = out.size();
  put(out, type);
  out.append(8, '\0');
  return start;
}

/// Fills in the length and CRC of the frame begun at `start`.  The CRC
/// covers the type byte followed by the payload.
inline void end_frame(std::string& out, std::size_t start) {
  const std::size_t len = out.size() - start - kFrameHeaderBytes;
  const auto type = static_cast<std::uint8_t>(out[start]);
  const auto len32 = static_cast<std::uint32_t>(len);
  const std::uint32_t crc =
      crc32c(out.data() + start + kFrameHeaderBytes, len, crc32c(&type, 1));
  std::memcpy(out.data() + start + 1, &len32, sizeof(len32));
  std::memcpy(out.data() + start + 5, &crc, sizeof(crc));
}

inline void append_frame(std::string& out, std::uint8_t type,
                         std::string_view payload) {
  const std::size_t start = begin_frame(out, type);
  out.append(payload);
  end_frame(out, start);
}

enum class FrameScan : std::uint8_t {
  kOk,                 ///< a complete frame whose CRC matches
  kTornTail,           ///< the bytes end inside the header or the payload
  kImplausibleLength,  ///< the length exceeds the format's max_payload
  kCrcMismatch,        ///< complete, but the CRC does not match
};

struct ScannedFrame {
  FrameScan status = FrameScan::kTornTail;
  std::uint8_t type = 0;
  std::uint32_t length = 0;  ///< declared payload length (0 if header torn)
  std::string_view payload;  ///< set for complete frames (ok, CRC mismatch)
  std::size_t next = 0;      ///< offset just past a complete frame
};

/// Reads the frame that starts at bytes[pos] (pos <= bytes.size()).
/// Never throws; the payload is a view into `bytes`.
inline ScannedFrame scan_frame(std::string_view bytes, std::size_t pos,
                               std::size_t max_payload) {
  ScannedFrame f;
  const std::size_t left = bytes.size() - pos;
  if (left < kFrameHeaderBytes) return f;
  // Locals, not f's fields, go to crc32c: f then never needs an address.
  const auto type = static_cast<std::uint8_t>(bytes[pos]);
  std::uint32_t len = 0, crc = 0;
  std::memcpy(&len, bytes.data() + pos + 1, sizeof(len));
  std::memcpy(&crc, bytes.data() + pos + 5, sizeof(crc));
  f.type = type;
  f.length = len;
  if (len > max_payload) {
    f.status = FrameScan::kImplausibleLength;
    return f;
  }
  if (left - kFrameHeaderBytes < len) return f;
  const char* payload = bytes.data() + pos + kFrameHeaderBytes;
  f.payload = std::string_view(payload, len);
  f.next = pos + kFrameHeaderBytes + len;
  f.status = crc32c(payload, len, crc32c(&type, 1)) == crc
                 ? FrameScan::kOk
                 : FrameScan::kCrcMismatch;
  return f;
}

// --- journal header ---------------------------------------------------------

inline constexpr std::size_t kJournalHeaderBytes = 4 + 2 + 4;

struct JournalHeader {
  std::uint16_t version = 0;
  std::uint32_t fingerprint = 0;
};

inline std::string journal_header(const char (&magic)[4],
                                  std::uint16_t version,
                                  std::uint32_t fingerprint) {
  std::string out(magic, sizeof(magic));
  put(out, version);
  put(out, fingerprint);
  return out;
}

/// The header's version and fingerprint, or nullopt when `bytes` is
/// shorter than a header or does not start with `magic`.
inline std::optional<JournalHeader> read_journal_header(
    std::string_view bytes, const char (&magic)[4]) {
  Cursor c(bytes);
  if (c.bytes(sizeof(magic)) != std::string_view(magic, sizeof(magic))) {
    return std::nullopt;
  }
  JournalHeader h;
  h.version = c.get<std::uint16_t>();
  h.fingerprint = c.get<std::uint32_t>();
  if (!c.ok()) return std::nullopt;
  return h;
}

}  // namespace tracemod::sim::io
