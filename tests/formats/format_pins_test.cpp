// Byte pins for every persisted binary format: the v2 and v1 trace
// containers, the TMSJ sweep journal, the TMDJ distill checkpoint and the
// TMST status snapshot.  Round-trip tests cannot see a layout change (the
// writer and reader move together), so each format's exact on-disk bytes
// for a fixed input are pinned here as a size and an FNV-1a 64 digest.
// A failure means the bytes on disk changed: old files would no longer
// read back, so it is never fixed by re-recording the digest alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/stream_distiller.hpp"
#include "scenarios/experiment.hpp"
#include "scenarios/supervisor.hpp"
#include "sim/status/status.hpp"
#include "trace/stream_reader.hpp"
#include "trace/synthetic_corpus.hpp"
#include "trace/trace_io.hpp"

namespace tracemod {
namespace {

std::string tmp(const std::string& name) {
  return testing::TempDir() + "tracemod_format_pins_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// --- trace containers -------------------------------------------------------

trace::CollectedTrace sample_trace() {
  using namespace trace;
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

std::string trace_bytes(std::uint16_t version) {
  std::ostringstream out;
  trace::write_trace(out, sample_trace(), version);
  return out.str();
}

TEST(FormatPins, TraceV2Bytes) {
  const std::string bytes = trace_bytes(trace::kTraceFormatVersionV2);
  EXPECT_EQ(bytes.size(), 434u);
  EXPECT_EQ(fnv1a64(bytes), "edf553a6b7964d0f");
}

// The streaming writer batches frames into 64 KiB writes; the file it
// leaves must be the in-memory writer's bytes exactly, at any size.
std::string stream_bytes(const trace::CollectedTrace& trace,
                         const std::string& name) {
  const std::string path = tmp(name);
  {
    trace::TraceStreamWriter writer(path);
    for (const trace::TraceRecord& r : trace.records) writer.append(r);
    writer.finalize();
  }
  const std::string bytes = slurp(path);
  std::remove(path.c_str());
  return bytes;
}

TEST(FormatPins, TraceStreamWriterBytes) {
  const std::string bytes = stream_bytes(sample_trace(), "stream.trace");
  EXPECT_EQ(bytes.size(), 434u);
  EXPECT_EQ(fnv1a64(bytes), "edf553a6b7964d0f");
}

TEST(FormatPins, TraceStreamWriterMatchesInMemoryWriterAcrossBatches) {
  trace::CollectedTrace big;
  const trace::CollectedTrace sample = sample_trace();
  for (int i = 0; i < 1400; ++i) {  // 5600 records, about 224 KiB
    for (const trace::TraceRecord& r : sample.records) {
      big.records.push_back(r);
    }
  }
  std::ostringstream out;
  trace::write_trace(out, big);
  const std::string streamed = stream_bytes(big, "stream_big.trace");
  EXPECT_GE(streamed.size(), 3u * 64 * 1024);  // three or more batches
  EXPECT_EQ(streamed, out.str());
}

TEST(FormatPins, TraceV1Bytes) {
  const std::string bytes = trace_bytes(trace::kTraceFormatVersionV1);
  EXPECT_EQ(bytes.size(), 402u);
  EXPECT_EQ(fnv1a64(bytes), "3138a43d142c51c8");
}

// --- TMSJ sweep journal -----------------------------------------------------

TEST(FormatPins, SweepJournalBytes) {
  using namespace scenarios;
  std::vector<JournalCellRecord> records(3);
  records[0].collect = true;
  records[0].scenario = "Wean";
  records[0].trials_retried = 1;

  records[1].scenario = "Porter";
  records[1].kind = BenchmarkKind::kAndrew;
  records[1].live.resize(2);
  records[1].live[0].ok = true;
  records[1].live[0].completed = true;
  records[1].live[0].elapsed_s = 183.53;
  records[1].live[0].andrew.ok = true;
  records[1].live[0].andrew.makedir_s = 1.5;
  records[1].live[0].andrew.copy_s = 20.25;
  records[1].live[0].andrew.scandir_s = 11.0;
  records[1].live[0].andrew.readall_s = 17.75;
  records[1].live[0].andrew.make_s = 133.03;
  records[1].live[0].andrew.total_s = 183.53;
  records[1].live[0].andrew.rpc_calls = 4242;
  records[1].live[0].andrew.rpc_retransmissions = 17;
  records[1].live[1].timed_out = true;
  records[1].live[1].wall_stuck = true;
  records[1].modulated.resize(1);
  records[1].modulated[0].ok = true;
  records[1].modulated[0].completed = true;
  records[1].modulated[0].elapsed_s = 187.49;
  TrialError err;
  err.kind = TrialErrorKind::kTimedOut;
  err.message = "virtual-time budget (1.000000 s) expired";
  err.seed = 10'001;
  err.scenario = "Porter";
  err.benchmark = "andrew";
  err.phase = "live";
  err.trial = 1;
  err.attempts = 2;
  records[1].errors.push_back(err);
  records[1].trials_retried = 2;

  records[2].ethernet = true;
  records[2].kind = BenchmarkKind::kFtpSend;
  records[2].live.resize(1);
  records[2].live[0].ok = true;
  records[2].live[0].completed = true;
  records[2].live[0].elapsed_s = 139.57;

  const std::string path = tmp("sweep.journal");
  {
    SweepJournalWriter writer;
    ASSERT_TRUE(writer.open(path, 0x5eed1997u, /*fresh=*/true));
    for (const auto& r : records) writer.append(r);
    writer.close();
  }
  const std::string bytes = slurp(path);
  EXPECT_EQ(bytes.size(), 503u);
  EXPECT_EQ(fnv1a64(bytes), "7f3da6eec0a62d15");
  std::remove(path.c_str());
}

TEST(FormatPins, SweepFingerprint) {
  // The TMSJ header's fingerprint is a CRC over little-endian config
  // fields: a change in how they are written orphans every old journal.
  scenarios::ExperimentConfig cfg;
  cfg.base_seed = 1997;
  cfg.trials = 3;
  cfg.compensation_vb = 0.125;
  cfg.supervision.enabled = true;
  cfg.supervision.max_retries = 2;
  cfg.supervision.wall_budget_s = 30.0;
  scenarios::InjectedTrialFault fault;
  fault.scenario = "wean";
  fault.benchmark = "web";
  fault.phase = "live";
  fault.trial = 1;
  fault.fail_attempts = 2;
  cfg.supervision.inject.push_back(fault);
  EXPECT_EQ(scenarios::sweep_fingerprint(cfg), 0x1d5c8f86u);
}

// --- TMDJ distill checkpoint ------------------------------------------------

TEST(FormatPins, DistillCheckpointBytes) {
  const std::string corpus = tmp("corpus.trace");
  trace::CorpusSpec spec;
  spec.duration = sim::seconds(150);
  spec.reply_loss = 0.02;
  spec.seed = 42;
  trace::generate_ping_corpus(corpus, spec);

  const std::string journal = tmp("checkpoint.tmdj");
  core::StreamDistillConfig cfg;
  cfg.threads = 1;  // window frames land in index order
  cfg.checkpoint_path = journal;
  const auto result = core::StreamDistiller(cfg).distill_file(corpus);
  ASSERT_EQ(result.status, core::DistillStatus::kOk);

  const std::string bytes = slurp(journal);
  EXPECT_EQ(bytes.size(), 14615u);
  EXPECT_EQ(fnv1a64(bytes), "1592b2da4ce20dec");
  std::remove(journal.c_str());
  std::remove(corpus.c_str());
}

// --- TMST status snapshot ---------------------------------------------------

TEST(FormatPins, StatusSnapshotBytes) {
  sim::status::StatusSnapshot s;
  s.tool_version = "0.9.0";
  s.driver = "sweep";
  s.phase = "bench:Wean/web";
  s.units_label = "trials";
  s.seq = 17;
  s.pid = 4242;
  s.published_unix_ms = 1754600000123ull;
  s.units_done = 9.0;
  s.units_total = 24.0;
  s.events_dispatched = 1234567;
  s.retries = 3;
  s.errors = 1;
  s.windows_distilled = 88;
  s.windows_shed = 2;
  s.records_streamed = 99991;
  s.sim_seconds = 512.25;
  s.wall_seconds = 1.75;
  s.sim_per_wall = 292.71;
  s.eta_seconds = 2.9;
  s.finished = true;
  s.exit_code = -3;
  const std::vector<std::uint8_t> image = sim::status::encode_status(s);
  const std::string bytes(image.begin(), image.end());
  EXPECT_EQ(bytes.size(), 185u);
  EXPECT_EQ(fnv1a64(bytes), "421b3ab0ded77dff");
}

}  // namespace
}  // namespace tracemod
