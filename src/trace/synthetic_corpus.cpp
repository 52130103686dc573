#include "trace/synthetic_corpus.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "sim/random.hpp"
#include "trace/records.hpp"
#include "trace/stream_reader.hpp"

namespace tracemod::trace {

namespace {

PacketRecord echo(sim::TimePoint at, std::uint16_t seq,
                  std::uint32_t ip_bytes) {
  PacketRecord p;
  p.at = at;
  p.dir = PacketDirection::kOutgoing;
  p.protocol = net::Protocol::kIcmp;
  p.ip_bytes = ip_bytes;
  p.icmp_kind = IcmpKind::kEcho;
  p.icmp_id = 97;
  p.icmp_seq = seq;
  p.echo_origin = at;
  return p;
}

PacketRecord reply(const PacketRecord& sent, sim::Duration rtt) {
  PacketRecord p = sent;
  p.dir = PacketDirection::kIncoming;
  p.icmp_kind = IcmpKind::kEchoReply;
  p.at = sent.at + rtt;
  return p;
}

}  // namespace

CorpusInfo generate_ping_corpus(const std::string& path,
                                const CorpusSpec& spec) {
  TraceStreamWriter writer(path);
  sim::Rng rng(spec.seed);
  CorpusInfo info;

  // Slowly wandering network state: one-way latency F and total per-byte
  // delay V (with a fixed bottleneck share), random-walked per group so
  // the distilled track has structure worth auditing.
  double f_s = 0.008;
  double v_per_byte = 2e-6;
  const double vb_share = 0.6;

  const sim::TimePoint t_stop = sim::kEpoch + spec.duration;
  std::uint16_t seq = 0;
  std::uint64_t device_frame_est = 48;  // refined from the first append

  for (sim::TimePoint t = sim::kEpoch; t < t_stop; t += spec.group_interval) {
    f_s = std::clamp(f_s + rng.uniform(-0.0015, 0.0015), 0.002, 0.040);
    v_per_byte =
        std::clamp(v_per_byte + rng.uniform(-2e-7, 2e-7), 5e-7, 8e-6);
    const double vb = v_per_byte * vb_share;

    const double s1 = spec.small_bytes;
    const double s2 = spec.large_bytes;
    const std::array<PacketRecord, 3> sent = {
        echo(t, seq, spec.small_bytes),
        echo(t + sim::microseconds(200),
             static_cast<std::uint16_t>(seq + 1), spec.large_bytes),
        echo(t + sim::microseconds(400),
             static_cast<std::uint16_t>(seq + 2), spec.large_bytes),
    };
    seq = static_cast<std::uint16_t>(seq + 3);
    ++info.groups;

    // Round trips from the paper's delay model: equations (5)-(8) solved
    // forward.  The third large packet queues behind the second at the
    // bottleneck, adding one bottleneck service time.
    const double t1 = 2.0 * (f_s + s1 * v_per_byte);
    const double t2 = 2.0 * (f_s + s2 * v_per_byte);
    const double t3 = t2 + s2 * vb;
    const std::array<double, 3> rtts = {t1, t2, t3};

    // At most six events per group, held in place: no heap per group.
    // Inserting each event behind every earlier one that is not later
    // keeps std::stable_sort's exact order.
    std::array<PacketRecord, 6> events;
    std::size_t n_events = 0;
    const auto push = [&](const PacketRecord& p) {
      std::size_t j = n_events++;
      events[j] = p;
      for (; j > 0 && events[j].at < events[j - 1].at; --j) {
        std::swap(events[j], events[j - 1]);
      }
    };
    for (const PacketRecord& p : sent) push(p);
    for (std::size_t i = 0; i < 3; ++i) {
      if (rng.chance(spec.reply_loss)) {
        ++info.replies_dropped;
        continue;
      }
      push(reply(sent[i], sim::from_seconds(rtts[i])));
    }
    sim::TimePoint last = t;
    for (std::size_t i = 0; i < n_events; ++i) {
      writer.append(events[i]);
      last = events[i].at;
    }

    // Device-record padding toward the proportional size target, strictly
    // inside (last event, next group) so the record stream stays in time
    // order.
    if (spec.target_bytes > 0) {
      const sim::TimePoint t_next = t + spec.group_interval;
      const double frac =
          sim::to_seconds(t_next) / sim::to_seconds(spec.duration);
      const auto target_now = static_cast<std::uint64_t>(
          static_cast<double>(spec.target_bytes) * std::min(1.0, frac));
      if (writer.bytes_written() < target_now && t_next > last) {
        const std::uint64_t deficit = target_now - writer.bytes_written();
        const std::uint64_t n =
            std::max<std::uint64_t>(1, deficit / device_frame_est);
        const sim::Duration dt =
            (t_next - last) / static_cast<std::int64_t>(n + 1);
        sim::TimePoint at = last;
        for (std::uint64_t k = 0;
             k < n && writer.bytes_written() < target_now; ++k) {
          at += dt;
          DeviceRecord d;
          d.at = at;
          d.signal_level = 20.0 + 10.0 * rng.uniform();
          d.signal_quality = 10.0 + 5.0 * rng.uniform();
          d.silence_level = 5.0 * rng.uniform();
          const std::uint64_t before = writer.bytes_written();
          writer.append(d);
          device_frame_est =
              std::max<std::uint64_t>(1, writer.bytes_written() - before);
        }
      }
    }
  }

  writer.finalize();
  info.records = writer.records_written();
  info.bytes = writer.bytes_written();
  return info;
}

}  // namespace tracemod::trace
