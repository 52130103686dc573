#include "trace/frame_format.hpp"

#include <vector>

namespace tracemod::trace::wire {

namespace {

using sim::io::begin_frame;
using sim::io::Cursor;
using sim::io::end_frame;
using sim::io::put;
using sim::io::put_str;

struct SchemaEntry {
  std::uint8_t tag;
  const char* name;
  std::vector<const char*> fields;
};

const std::vector<SchemaEntry>& schema() {
  static const std::vector<SchemaEntry> s = {
      {static_cast<std::uint8_t>(RecordTag::kPacket),
       "packet",
       {"at_ns", "dir", "protocol", "ip_bytes", "icmp_kind", "icmp_id",
        "icmp_seq", "echo_origin_ns", "src_port", "dst_port", "tcp_seq",
        "tcp_flags"}},
      {static_cast<std::uint8_t>(RecordTag::kDevice),
       "device",
       {"at_ns", "signal_level", "signal_quality", "silence_level"}},
      {static_cast<std::uint8_t>(RecordTag::kLost),
       "lost_records",
       {"at_ns", "lost_packet_records", "lost_device_records"}},
  };
  return s;
}

RecordTag tag_of(const TraceRecord& r) {
  if (std::holds_alternative<PacketRecord>(r)) return RecordTag::kPacket;
  if (std::holds_alternative<DeviceRecord>(r)) return RecordTag::kDevice;
  return RecordTag::kLost;
}

void put_time(std::string& buf, sim::TimePoint t) {
  put<std::int64_t>(buf, t.time_since_epoch().count());
}

sim::TimePoint get_time(Cursor& cur) {
  return sim::TimePoint{sim::Duration{cur.get<std::int64_t>()}};
}

void encode_payload(std::string& buf, const TraceRecord& r) {
  if (const auto* p = std::get_if<PacketRecord>(&r)) {
    put_time(buf, p->at);
    put<std::uint8_t>(buf, static_cast<std::uint8_t>(p->dir));
    put<std::uint8_t>(buf, static_cast<std::uint8_t>(p->protocol));
    put<std::uint32_t>(buf, p->ip_bytes);
    put<std::uint8_t>(buf, static_cast<std::uint8_t>(p->icmp_kind));
    put<std::uint16_t>(buf, p->icmp_id);
    put<std::uint16_t>(buf, p->icmp_seq);
    put_time(buf, p->echo_origin);
    put<std::uint16_t>(buf, p->src_port);
    put<std::uint16_t>(buf, p->dst_port);
    put<std::uint64_t>(buf, p->tcp_seq);
    put<std::uint8_t>(buf, p->tcp_flags);
  } else if (const auto* d = std::get_if<DeviceRecord>(&r)) {
    put_time(buf, d->at);
    put<double>(buf, d->signal_level);
    put<double>(buf, d->signal_quality);
    put<double>(buf, d->silence_level);
  } else {
    const auto& l = std::get<LostRecords>(r);
    put_time(buf, l.at);
    put<std::uint32_t>(buf, l.lost_packet_records);
    put<std::uint32_t>(buf, l.lost_device_records);
  }
}

}  // namespace

TraceRecord decode_payload(RecordTag tag, Cursor& cur, std::uint64_t base,
                           std::uint64_t record) {
  switch (tag) {
    case RecordTag::kPacket: {
      PacketRecord p;
      p.at = get_time(cur);
      p.dir = static_cast<PacketDirection>(cur.get<std::uint8_t>());
      p.protocol = static_cast<net::Protocol>(cur.get<std::uint8_t>());
      p.ip_bytes = cur.get<std::uint32_t>();
      p.icmp_kind = static_cast<IcmpKind>(cur.get<std::uint8_t>());
      p.icmp_id = cur.get<std::uint16_t>();
      p.icmp_seq = cur.get<std::uint16_t>();
      p.echo_origin = get_time(cur);
      p.src_port = cur.get<std::uint16_t>();
      p.dst_port = cur.get<std::uint16_t>();
      p.tcp_seq = cur.get<std::uint64_t>();
      p.tcp_flags = cur.get<std::uint8_t>();
      if (cur.ok()) return p;
      break;
    }
    case RecordTag::kDevice: {
      DeviceRecord d;
      d.at = get_time(cur);
      d.signal_level = cur.get<double>();
      d.signal_quality = cur.get<double>();
      d.silence_level = cur.get<double>();
      if (cur.ok()) return d;
      break;
    }
    case RecordTag::kLost: {
      LostRecords l;
      l.at = get_time(cur);
      l.lost_packet_records = cur.get<std::uint32_t>();
      l.lost_device_records = cur.get<std::uint32_t>();
      if (cur.ok()) return l;
      break;
    }
    default:
      // A v1 tag read that already ran out is a truncation, not a tag.
      if (cur.ok()) {
        throw TraceFormatError(
            "unknown record tag " + std::to_string(static_cast<int>(tag)),
            base + cur.pos(), record);
      }
  }
  throw TraceFormatError("unexpected end of stream", base + cur.pos(), record);
}

std::string container_header(std::uint16_t version, std::uint64_t count) {
  if (version != kTraceFormatVersionV1 && version != kTraceFormatVersionV2) {
    throw TraceFormatError("unsupported version " + std::to_string(version));
  }
  std::string out(kMagic, sizeof(kMagic));
  put<std::uint16_t>(out, version);

  // Self-descriptive schema table.
  put<std::uint8_t>(out, static_cast<std::uint8_t>(schema().size()));
  for (const SchemaEntry& e : schema()) {
    put<std::uint8_t>(out, e.tag);
    put_str<std::uint16_t>(out, e.name);
    put<std::uint8_t>(out, static_cast<std::uint8_t>(e.fields.size()));
    for (const char* f : e.fields) put_str<std::uint16_t>(out, f);
  }

  put<std::uint64_t>(out, count);
  return out;
}

void append_record(std::string& out, const TraceRecord& r,
                   std::uint16_t version) {
  const auto tag = static_cast<std::uint8_t>(tag_of(r));
  if (version == kTraceFormatVersionV2) {
    const std::size_t start = begin_frame(out, tag);
    encode_payload(out, r);
    end_frame(out, start);
  } else {
    put<std::uint8_t>(out, tag);
    encode_payload(out, r);
  }
}

}  // namespace tracemod::trace::wire
