// Trace format v2: checksummed framing, strict/salvage reading, damage
// reports, and resistance to hostile length/count fields.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/metric_names.hpp"
#include "sim/sim_context.hpp"
#include "sim/crc32c.hpp"
#include "sim/io/fault_plan.hpp"
#include "sim/io/framed.hpp"
#include "sim/random.hpp"
#include "trace/frame_format.hpp"
#include "trace/stream_reader.hpp"
#include "trace/trace_io.hpp"

namespace tracemod::trace {
namespace {

constexpr std::size_t kFrameHeader = 9;   // tag u8 + len u32 + crc u32
constexpr std::size_t kPacketFrame = kFrameHeader + 40;
constexpr std::size_t kDeviceFrame = kFrameHeader + 32;

CollectedTrace sample_trace() {
  CollectedTrace trace;
  PacketRecord p;
  p.at = sim::kEpoch + sim::milliseconds(123);
  p.dir = PacketDirection::kIncoming;
  p.protocol = net::Protocol::kIcmp;
  p.ip_bytes = 1052;
  p.icmp_kind = IcmpKind::kEchoReply;
  p.icmp_id = 42;
  p.icmp_seq = 7;
  p.echo_origin = sim::kEpoch + sim::milliseconds(100);
  trace.records.emplace_back(p);

  PacketRecord t;
  t.at = sim::kEpoch + sim::milliseconds(200);
  t.protocol = net::Protocol::kTcp;
  t.ip_bytes = 1500;
  t.src_port = 20000;
  t.dst_port = 80;
  t.tcp_seq = 123456789ull;
  t.tcp_flags = 0x3;
  trace.records.emplace_back(t);

  trace.records.emplace_back(
      DeviceRecord{sim::kEpoch + sim::seconds(1), 18.5, 11.25, 2.0});
  trace.records.emplace_back(LostRecords{sim::kEpoch + sim::seconds(2), 9, 2});
  return trace;
}

std::string to_bytes(const CollectedTrace& trace,
                     std::uint16_t version = kTraceFormatVersionV2) {
  std::ostringstream out;
  write_trace(out, trace, version);
  return out.str();
}

// Magic + version + schema table + count: identical for every trace.
std::size_t header_size() { return to_bytes(CollectedTrace{}).size(); }

TraceReadResult read_bytes(const std::string& bytes, ReadMode mode,
                           sim::MetricsRegistry* metrics = nullptr) {
  std::istringstream in(bytes);
  return read_trace_ex(in, TraceReadOptions{mode, metrics});
}

std::string make_frame(std::uint8_t tag, const std::string& payload) {
  std::string frame;
  sim::io::append_frame(frame, tag, payload);
  return frame;
}

TEST(TraceV2, RoundTripIsCleanAndVersioned) {
  const CollectedTrace original = sample_trace();
  const auto result = read_bytes(to_bytes(original), ReadMode::kStrict);
  EXPECT_EQ(result.report.version, kTraceFormatVersionV2);
  EXPECT_TRUE(result.report.clean());
  EXPECT_EQ(result.report.records_read, 4u);
  ASSERT_EQ(result.trace.records.size(), original.records.size());
  const auto& p = std::get<PacketRecord>(result.trace.records[0]);
  EXPECT_EQ(p.ip_bytes, 1052u);
  EXPECT_EQ(p.icmp_seq, 7);
  const auto& l = std::get<LostRecords>(result.trace.records[3]);
  EXPECT_EQ(l.lost_packet_records, 9u);
}

TEST(TraceV2, WriterIsBitStable) {
  const CollectedTrace trace = sample_trace();
  EXPECT_EQ(to_bytes(trace), to_bytes(trace));
  EXPECT_EQ(to_bytes(trace, kTraceFormatVersionV1),
            to_bytes(trace, kTraceFormatVersionV1));
  EXPECT_NE(to_bytes(trace), to_bytes(trace, kTraceFormatVersionV1));
}

TEST(TraceV2, V1WriteReadStillRoundTrips) {
  const CollectedTrace original = sample_trace();
  const auto result =
      read_bytes(to_bytes(original, kTraceFormatVersionV1), ReadMode::kStrict);
  EXPECT_EQ(result.report.version, kTraceFormatVersionV1);
  EXPECT_TRUE(result.report.clean());
  ASSERT_EQ(result.trace.records.size(), 4u);
  EXPECT_EQ(std::get<PacketRecord>(result.trace.records[1]).tcp_seq,
            123456789ull);
}

TEST(TraceV2, V1AndV2DecodeIdentically) {
  const CollectedTrace original = sample_trace();
  const auto v1 =
      read_bytes(to_bytes(original, kTraceFormatVersionV1), ReadMode::kStrict);
  const auto v2 = read_bytes(to_bytes(original), ReadMode::kStrict);
  ASSERT_EQ(v1.trace.records.size(), v2.trace.records.size());
  for (std::size_t i = 0; i < v1.trace.records.size(); ++i) {
    EXPECT_EQ(record_time(v1.trace.records[i]),
              record_time(v2.trace.records[i]));
    EXPECT_EQ(v1.trace.records[i].index(), v2.trace.records[i].index());
  }
}

TEST(TraceV2, Crc32cKnownAnswer) {
  using sim::crc32c;
  // RFC 3720 (iSCSI) test vector: 32 bytes of zeros.
  unsigned char zeros[32] = {};
  EXPECT_EQ(crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);
  const char* s = "123456789";
  EXPECT_EQ(crc32c(s, 9), 0xE3069283u);
  // Incremental == one-shot.
  EXPECT_EQ(crc32c(s + 4, 5, crc32c(s, 4)), crc32c(s, 9));
}

/// The textbook bit-at-a-time CRC32C: the definition the table-driven
/// sim::crc32c must reproduce for every length, alignment and seed.
std::uint32_t reference_crc32c(const unsigned char* p, std::size_t n,
                               std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<unsigned char> out(n);
  for (unsigned char& b : out) b = static_cast<unsigned char>(rng.next_u64());
  return out;
}

TEST(TraceV2, Crc32cMatchesBytewiseReferenceAtEveryLengthAndOffset) {
  const std::vector<unsigned char> buf = random_bytes(8 + 257, 3720);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 257; ++len) {
      ASSERT_EQ(sim::crc32c(buf.data() + offset, len),
                reference_crc32c(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(TraceV2, Crc32cChainedSeedsMatchOneShotAcrossBlockBoundaries) {
  const std::vector<unsigned char> buf = random_bytes(64, 20);
  for (std::size_t total : {std::size_t{9}, std::size_t{17}, std::size_t{40},
                            std::size_t{64}}) {
    const std::uint32_t whole = reference_crc32c(buf.data(), total);
    for (std::size_t split = 0; split <= total; ++split) {
      const std::uint32_t a = sim::crc32c(buf.data(), split);
      ASSERT_EQ(sim::crc32c(buf.data() + split, total - split, a), whole)
          << "split " << split << " of " << total;
    }
  }
  // A non-zero seed continues the reference definition too.
  EXPECT_EQ(sim::crc32c(buf.data(), 23, 0xDEADBEEFu),
            reference_crc32c(buf.data(), 23, 0xDEADBEEFu));
}

TEST(TraceV2, Crc32cMatchesBytewiseReferenceOnOneMebibyte) {
  const std::vector<unsigned char> buf = random_bytes(1 << 20, 1997);
  EXPECT_EQ(sim::crc32c(buf.data(), buf.size()),
            reference_crc32c(buf.data(), buf.size()));
}

TEST(TraceV2, StrictErrorsCarryOffsetAndRecordIndex) {
  std::string bytes = to_bytes(sample_trace());
  // Flip a payload byte of the second record.
  const std::size_t target = header_size() + kPacketFrame + kFrameHeader + 3;
  bytes[target] = static_cast<char>(bytes[target] ^ 0x40);
  try {
    read_bytes(bytes, ReadMode::kStrict);
    FAIL() << "expected strict read to throw";
  } catch (const TraceFormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset " +
                        std::to_string(header_size() + kPacketFrame)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("(record 1)"), std::string::npos) << what;
  }
}

TEST(TraceV2, V1TruncationErrorCarriesOffset) {
  std::string bytes = to_bytes(sample_trace(), kTraceFormatVersionV1);
  bytes.resize(bytes.size() - 5);
  try {
    read_bytes(bytes, ReadMode::kStrict);
    FAIL() << "expected strict read to throw";
  } catch (const TraceFormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
    EXPECT_NE(what.find("(record 3)"), std::string::npos) << what;
  }
}

TEST(TraceV2, SalvageSkipsCrcDamageAndMarksIt) {
  std::string bytes = to_bytes(sample_trace());
  // Damage the device record's payload (record index 2).
  const std::size_t target =
      header_size() + 2 * kPacketFrame + kFrameHeader + 1;
  bytes[target] = static_cast<char>(bytes[target] ^ 0x01);

  const auto result = read_bytes(bytes, ReadMode::kSalvage);
  EXPECT_EQ(result.report.records_read, 3u);
  EXPECT_EQ(result.report.records_skipped, 1u);
  EXPECT_EQ(result.report.crc_failures, 1u);
  EXPECT_EQ(result.report.lost_markers_synthesized, 1u);
  EXPECT_FALSE(result.report.truncated);
  // packet, packet, synthesized marker (for the dead device record), lost.
  ASSERT_EQ(result.trace.records.size(), 4u);
  const auto& marker = std::get<LostRecords>(result.trace.records[2]);
  EXPECT_EQ(marker.lost_device_records, 1u);
  EXPECT_EQ(marker.lost_packet_records, 0u);
  // Stamped with the last good record's time, like a buffer overrun.
  EXPECT_EQ(marker.at, sim::kEpoch + sim::milliseconds(200));
  // The genuine lost marker survives behind the damage.
  EXPECT_EQ(std::get<LostRecords>(result.trace.records[3]).lost_packet_records,
            9u);
}

TEST(TraceV2, SalvageSkipsUnknownTagFrames) {
  // Simulate version skew: splice a well-formed frame of an unknown record
  // type between records 0 and 1.
  const std::string bytes = to_bytes(sample_trace());
  const std::size_t split = header_size() + kPacketFrame;
  const std::string spliced = bytes.substr(0, split) +
                              make_frame(77, "from-the-future") +
                              bytes.substr(split);

  EXPECT_THROW(read_bytes(spliced, ReadMode::kStrict), TraceFormatError);
  const auto result = read_bytes(spliced, ReadMode::kSalvage);
  EXPECT_EQ(result.report.unknown_tags, 1u);
  EXPECT_EQ(result.report.records_skipped, 1u);
  EXPECT_EQ(result.report.crc_failures, 0u);
  EXPECT_EQ(result.report.records_read, 4u);  // every real record recovered
  EXPECT_EQ(result.report.records_salvaged, 3u);  // those after the splice
  ASSERT_EQ(result.trace.records.size(), 5u);  // 4 real + 1 marker
}

TEST(TraceV2, SalvageResyncsAfterCorruptLength) {
  std::string bytes = to_bytes(sample_trace());
  // Smash record 1's length field to an absurd value: the reader cannot
  // trust it to skip, so it must byte-scan to record 2's frame.
  const std::size_t len_off = header_size() + kPacketFrame + 1;
  const std::uint32_t evil = 0x7fffffff;
  std::memcpy(bytes.data() + len_off, &evil, sizeof(evil));

  EXPECT_THROW(read_bytes(bytes, ReadMode::kStrict), TraceFormatError);
  const auto result = read_bytes(bytes, ReadMode::kSalvage);
  EXPECT_EQ(result.report.resync_scans, 1u);
  EXPECT_GT(result.report.bytes_scanned, 0u);
  EXPECT_EQ(result.report.records_read, 3u);  // records 0, 2, 3
  EXPECT_EQ(result.report.records_skipped, 1u);
  ASSERT_EQ(result.trace.records.size(), 4u);  // 3 good + 1 marker
  EXPECT_TRUE(std::holds_alternative<DeviceRecord>(result.trace.records[2]));
}

TEST(TraceV2, SalvageReportsTruncatedTail) {
  std::string bytes = to_bytes(sample_trace());
  bytes.resize(bytes.size() - 10);  // cut into the final lost-record frame

  EXPECT_THROW(read_bytes(bytes, ReadMode::kStrict), TraceFormatError);
  const auto result = read_bytes(bytes, ReadMode::kSalvage);
  EXPECT_TRUE(result.report.truncated);
  EXPECT_EQ(result.report.records_read, 3u);
  EXPECT_EQ(result.report.lost_markers_synthesized, 1u);
  ASSERT_EQ(result.trace.records.size(), 4u);
}

TEST(TraceV2, CountBombCannotForceAllocation) {
  // A corrupted (or hostile) record count must not drive reserve(): the
  // reader bounds it by the bytes actually present.
  for (const std::uint16_t version :
       {kTraceFormatVersionV1, kTraceFormatVersionV2}) {
    std::string bytes = to_bytes(CollectedTrace{}, version);
    const std::uint64_t bomb = ~0ull;
    std::memcpy(bytes.data() + bytes.size() - 8, &bomb, sizeof(bomb));

    EXPECT_THROW(read_bytes(bytes, ReadMode::kStrict), TraceFormatError)
        << "v" << version;
    const auto result = read_bytes(bytes, ReadMode::kSalvage);
    EXPECT_EQ(result.report.records_expected, bomb);
    EXPECT_EQ(result.report.records_read, 0u);
    EXPECT_TRUE(result.report.truncated);
    EXPECT_LE(result.trace.records.capacity(), 16u) << "v" << version;
  }
}

TEST(TraceV2, SalvageToleratesDroppedAndDuplicatedFrames) {
  const std::string bytes = to_bytes(sample_trace());
  const std::size_t h = header_size();
  // Drop record 0's frame and duplicate record 2's (count now lies).
  const std::string dev_frame =
      bytes.substr(h + 2 * kPacketFrame, kDeviceFrame);
  const std::string mutated =
      bytes.substr(0, h) + bytes.substr(h + kPacketFrame, kPacketFrame) +
      dev_frame + dev_frame + bytes.substr(h + 2 * kPacketFrame + kDeviceFrame);

  const auto result = read_bytes(mutated, ReadMode::kSalvage);
  // Frames are self-describing: every surviving frame decodes.
  EXPECT_EQ(result.report.records_read, 4u);
  EXPECT_FALSE(result.report.truncated);
  EXPECT_EQ(result.report.crc_failures, 0u);
  ASSERT_EQ(result.trace.records.size(), 4u);
  EXPECT_TRUE(std::holds_alternative<DeviceRecord>(result.trace.records[1]));
  EXPECT_TRUE(std::holds_alternative<DeviceRecord>(result.trace.records[2]));
}

TEST(TraceV2, ExtendedPayloadOfKnownTagIsForwardCompatible) {
  // A future revision may append fields to a known record; the reader
  // decodes the prefix it understands and ignores the rest.
  std::string payload;
  const std::int64_t at_ns = 42'000'000;
  payload.append(reinterpret_cast<const char*>(&at_ns), 8);
  const std::uint32_t lost_p = 3, lost_d = 1;
  payload.append(reinterpret_cast<const char*>(&lost_p), 4);
  payload.append(reinterpret_cast<const char*>(&lost_d), 4);
  payload += "extra-fields-v3";

  std::string bytes = to_bytes(CollectedTrace{});
  const std::uint64_t count = 1;
  std::memcpy(bytes.data() + bytes.size() - 8, &count, sizeof(count));
  bytes += make_frame(3 /* kLost */, payload);

  const auto result = read_bytes(bytes, ReadMode::kStrict);
  EXPECT_TRUE(result.report.clean());
  ASSERT_EQ(result.trace.records.size(), 1u);
  const auto& l = std::get<LostRecords>(result.trace.records[0]);
  EXPECT_EQ(l.lost_packet_records, 3u);
  EXPECT_EQ(l.lost_device_records, 1u);
}

TEST(TraceV2, SalvageBumpsMetricsRegistry) {
  std::string bytes = to_bytes(sample_trace());
  const std::size_t target = header_size() + kFrameHeader + 5;
  bytes[target] = static_cast<char>(bytes[target] ^ 0x10);

  sim::MetricsRegistry metrics;
  const auto result = read_bytes(bytes, ReadMode::kSalvage, &metrics);
  EXPECT_EQ(metrics.value(sim::metric::kCrcFailures), 1u);
  EXPECT_EQ(metrics.value(sim::metric::kRecordsSalvaged),
            result.report.records_salvaged);
  EXPECT_EQ(metrics.value(sim::metric::kResyncScans), 0u);
  EXPECT_GT(result.report.records_salvaged, 0u);
}

// --- streaming writer under write faults ------------------------------------

/// Packet and device records only (about 220 KiB of v2 frames), so every
/// LostRecords a salvage read returns is a synthesized damage marker.
CollectedTrace drill_trace() {
  CollectedTrace trace;
  for (int i = 0; i < 5000; ++i) {
    const sim::TimePoint at = sim::kEpoch + sim::milliseconds(i);
    if (i % 3 == 2) {
      trace.records.emplace_back(DeviceRecord{at, 20.0 + i % 7, 10.5, 1.0});
      continue;
    }
    PacketRecord p;
    p.at = at;
    p.protocol = net::Protocol::kIcmp;
    p.ip_bytes = 64 + static_cast<std::uint32_t>(i % 1400);
    p.icmp_kind = IcmpKind::kEcho;
    p.icmp_seq = static_cast<std::uint16_t>(i);
    p.echo_origin = at;
    trace.records.emplace_back(p);
  }
  return trace;
}

std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Streams `trace` through a writer whose sink consults `plan`; true when
/// the writer threw std::runtime_error (from construction, an append's
/// batch flush, or finalize).
bool stream_under_plan(const std::string& path, const CollectedTrace& trace,
                       sim::io::FaultPlan& plan) {
  try {
    TraceStreamWriter writer(path, kTraceFormatVersionV2, &plan);
    for (const TraceRecord& r : trace.records) writer.append(r);
    writer.finalize();
  } catch (const std::runtime_error&) {
    return true;
  }
  return false;
}

/// A writer that failed left an invalid file: the strict reader rejects
/// it, and a salvage read yields exactly the whole frames that landed --
/// an in-order prefix of `trace`, then at most damage markers.
void expect_exact_salvaged_prefix(const std::string& path,
                                  const CollectedTrace& trace,
                                  const std::string& what) {
  SCOPED_TRACE(what);
  const std::string bytes = slurp_file(path);
  if (bytes.size() < header_size()) {
    // The header itself was torn: nothing is recoverable, and even
    // salvage refuses a stream it cannot identify.
    EXPECT_THROW(read_bytes(bytes, ReadMode::kSalvage), TraceFormatError);
    return;
  }
  if (bytes.size() == header_size()) {
    // No frame byte landed: a zero count over an empty body is the empty
    // trace, which is the (empty) exact prefix.
    EXPECT_TRUE(read_bytes(bytes, ReadMode::kStrict).trace.records.empty());
    return;
  }
  EXPECT_THROW(read_bytes(bytes, ReadMode::kStrict), TraceFormatError);

  // The header still carries a zero count; the body is a byte prefix of
  // the in-memory writer's.
  const std::string full = to_bytes(trace);
  const std::size_t h = header_size();
  ASSERT_EQ(bytes.compare(0, h, to_bytes(CollectedTrace{})), 0);
  ASSERT_EQ(full.compare(h, bytes.size() - h, bytes, h), 0) << "diverged";

  // The number of whole frames on disk.
  std::size_t landed = 0;
  for (std::size_t end = h; landed < trace.records.size(); ++landed) {
    std::string frame;
    wire::append_record(frame, trace.records[landed], kTraceFormatVersionV2);
    end += frame.size();
    if (end > bytes.size()) break;
  }

  const auto result = read_bytes(bytes, ReadMode::kSalvage);
  CollectedTrace good;
  bool marker_seen = false;
  for (const TraceRecord& r : result.trace.records) {
    if (std::holds_alternative<LostRecords>(r)) {
      marker_seen = true;
      continue;
    }
    ASSERT_FALSE(marker_seen) << "a record after a damage marker";
    good.records.push_back(r);
  }
  ASSERT_EQ(good.records.size(), landed);
  CollectedTrace prefix;
  prefix.records.assign(trace.records.begin(),
                        trace.records.begin() + static_cast<long>(landed));
  EXPECT_EQ(to_bytes(good), to_bytes(prefix));
}

TEST(TraceV2, StreamWriterCrashOrEioAtEveryWriteLeavesASalvageablePrefix) {
  const CollectedTrace trace = drill_trace();
  const std::string path = testing::TempDir() + "tracemod_v2_crash.trace";

  // A clean run counts the sink's operations: open, the header write, one
  // write per 64 KiB batch, then finalize's count patch, fdatasync, close.
  sim::io::FaultPlan clean{sim::io::FaultPlanConfig{}};
  ASSERT_FALSE(stream_under_plan(path, trace, clean));
  const std::uint64_t ops = clean.ops_seen();
  ASSERT_GE(ops, 5u + 3u);  // three or more batch writes

  // Every write before the count patch: the header and each batch.  A
  // crash tears the write and kills the plan; an EIO lands nothing and
  // the next write would succeed, so only the writer itself can keep a
  // failed file from being finalized.
  for (std::uint64_t op = 2; op + 3 <= ops; ++op) {
    sim::io::FaultPlanConfig crash;
    crash.crash_at_op = op;
    crash.seed = op;
    sim::io::FaultPlanConfig eio;
    eio.eio_at_op = op;
    for (const auto& cfg : {crash, eio}) {
      sim::io::FaultPlan plan(cfg);
      const std::string what = plan.config().to_spec();
      EXPECT_TRUE(stream_under_plan(path, trace, plan)) << what;
      ASSERT_EQ(plan.log().size(), 1u) << what;  // the one injected fault
      expect_exact_salvaged_prefix(path, trace, what);
    }
  }
  std::remove(path.c_str());
}

TEST(TraceV2, StreamWriterEnospcThrowsAndLeavesASalvageablePrefix) {
  const CollectedTrace trace = drill_trace();
  const std::string path = testing::TempDir() + "tracemod_v2_enospc.trace";
  for (const std::uint64_t budget : {std::uint64_t{100}, std::uint64_t{100000},
                                     std::uint64_t{200000}}) {
    sim::io::FaultPlanConfig cfg;
    cfg.enospc_after_bytes = budget;
    sim::io::FaultPlan plan(cfg);
    EXPECT_TRUE(stream_under_plan(path, trace, plan)) << "budget " << budget;
    expect_exact_salvaged_prefix(path, trace,
                                 "ENOSPC after " + std::to_string(budget));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tracemod::trace
