// On-disk primitives shared by every component that touches the trace
// container: the in-memory reader facade (trace_io.cpp), the incremental
// reader/writer (stream_reader.cpp), and the streaming distiller's window
// re-scan.  The v2 frame itself is the framed-record codec's
// (sim/io/framed.hpp); this file adds the container header and the record
// payloads on top of it.
#pragma once

#include <cstdint>
#include <string>

#include "sim/io/framed.hpp"
#include "trace/records.hpp"
#include "trace/trace_io.hpp"

namespace tracemod::trace::wire {

inline constexpr char kMagic[4] = {'T', 'M', 'T', 'R'};

// Real payloads are <= 40 bytes today; anything past this bound is a
// corrupted length, not a future record type.
inline constexpr std::size_t kMaxRecordPayload = 4096;
// Smallest on-disk record across both versions (v1 LostRecords: tag + time +
// two u32 counters).  Used to clamp the header count before reserving.
inline constexpr std::size_t kMinRecordBytes = 17;
// Worst-case bytes a reader must see past any position to make the same
// frame decision an in-memory parse would: a full header plus the largest
// plausible payload.
inline constexpr std::size_t kMaxFrameBytes =
    sim::io::kFrameHeaderBytes + kMaxRecordPayload;

enum class RecordTag : std::uint8_t {
  kPacket = 1,
  kDevice = 2,
  kLost = 3,
};

inline bool known_tag(std::uint8_t tag) {
  return tag >= static_cast<std::uint8_t>(RecordTag::kPacket) &&
         tag <= static_cast<std::uint8_t>(RecordTag::kLost);
}

// --- record payload codecs --------------------------------------------------

/// Decodes one record body (sans tag).  Shared by the v1 reader (cursor over
/// the record run, tag already read from it) and the v2 reader (cursor over
/// one frame's payload).  Throws TraceFormatError at the first missing
/// byte; `base` is the absolute stream offset of the cursor's first byte
/// and `record` the record index, so the error says exactly where.
TraceRecord decode_payload(RecordTag tag, sim::io::Cursor& cur,
                           std::uint64_t base, std::uint64_t record);

// --- container header -------------------------------------------------------

/// magic | version | schema table | record count.  The count is the last
/// 8 bytes, so a streaming writer can patch it on finalize.  Throws
/// TraceFormatError on an unsupported version.
std::string container_header(std::uint16_t version, std::uint64_t count);

/// Appends one fully framed record to `out` (v1: bare tag + payload; v2: a
/// checksummed frame).
void append_record(std::string& out, const TraceRecord& r,
                   std::uint16_t version);

}  // namespace tracemod::trace::wire
