// Production-volume corpus distillation: wall time and peak RSS for the
// bounded-memory streaming distiller on a multi-GB synthetic trace.
// Emits BENCH_corpus.json (schema tracemod-corpus-bench-v1) so CI can
// assert the robustness tentpole's acceptance bar: a >= 1 GB corpus
// distills faster than real time (wall seconds << the corpus's collection
// duration) while RSS stays flat -- the corpus never fits in the cap, so
// any whole-file slurp would blow it.
//
// Usage: corpus_distill [--mb N] [--seconds S] [--threads T]
//                       [--rss-cap-mb N] [--out BENCH_corpus.json] [--keep]
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "core/stream_distiller.hpp"
#include "report.hpp"
#include "sim/io/durable.hpp"
#include "sim/json.hpp"
#include "trace/synthetic_corpus.hpp"

#include "build_guard.hpp"
#include "cli/flags.hpp"

using namespace tracemod;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process, in MB (ru_maxrss is KB on Linux).
double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

const char* status_name(core::DistillStatus s) {
  switch (s) {
    case core::DistillStatus::kOk: return "ok";
    case core::DistillStatus::kSalvaged: return "salvaged";
    case core::DistillStatus::kDegraded: return "degraded";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  tracemod::bench::require_release_build(argc, argv);
  cli::Args args =
      cli::parse_main(argc, argv,
                      {cli::kAllowDebug,
                       {"--mb", cli::Flag::kValue, "N"},
                       {"--seconds", cli::Flag::kValue, "S"},
                       {"--threads", cli::Flag::kValue, "T"},
                       {"--rss-cap-mb", cli::Flag::kValue, "N"},
                       {"--out", cli::Flag::kValue, "FILE"},
                       {"--keep"}});
  double mb = 1024.0;
  double seconds = 7200.0;
  unsigned threads = 0;
  double rss_cap_mb = 512.0;
  std::string out_path = "BENCH_corpus.json";
  args.number("--mb", &mb);
  args.number("--seconds", &seconds);
  args.threads("--threads", &threads);
  args.number("--rss-cap-mb", &rss_cap_mb);
  args.str("--out", &out_path);
  if (!args.ok()) return cli::kExitUsage;
  const bool keep = args.has("--keep");

  bench::heading("Corpus distillation: wall time and RSS at production volume",
                 "streaming two-pass distiller, " + std::to_string(mb) +
                     " MB synthetic corpus");

  const std::string corpus_path =
      (std::filesystem::temp_directory_path() / "tracemod_bench_corpus.trace")
          .string();

  trace::CorpusSpec spec;
  spec.duration = sim::from_seconds(seconds);
  spec.target_bytes = static_cast<std::uint64_t>(mb * 1024.0 * 1024.0);
  spec.seed = 1997;
  const double t_gen0 = now_s();
  const trace::CorpusInfo info = trace::generate_ping_corpus(corpus_path, spec);
  const double gen_s = now_s() - t_gen0;
  bench::rowf("generated %.1f MB / %llu records / %.0f virtual s in %.1f s",
              static_cast<double>(info.bytes) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(info.records), seconds, gen_s);

  core::StreamDistillConfig cfg;
  cfg.threads = threads;
  const double t_dis0 = now_s();
  core::StreamDistiller distiller(cfg);
  const core::StreamDistillResult res = distiller.distill_file(corpus_path);
  const double distill_s = now_s() - t_dis0;
  const double rss_mb = peak_rss_mb();

  // "Faster than real time": collecting this corpus took `seconds` of
  // wall clock on the reference testbed; distilling it must take less.
  const double speedup = seconds / std::max(distill_s, 1e-9);
  const bool faster = distill_s < seconds;
  const bool flat_rss = rss_mb < rss_cap_mb;
  const double corpus_mb = static_cast<double>(info.bytes) / (1024.0 * 1024.0);

  bench::rowf("distilled in %.2f s (%.0fx real time, %s) -> %zu tuples [%s]",
              distill_s, speedup, faster ? "faster" : "SLOWER",
              res.replay.size(), status_name(res.status));
  bench::rowf("windows: %llu total, %llu damaged, %llu shed; "
              "records streamed: %llu",
              static_cast<unsigned long long>(res.stats.windows_total),
              static_cast<unsigned long long>(res.stats.windows_damaged),
              static_cast<unsigned long long>(res.stats.windows_shed),
              static_cast<unsigned long long>(res.stats.records_streamed));
  bench::rowf("peak RSS %.1f MB vs %.0f MB cap (corpus %.1f MB): %s", rss_mb,
              rss_cap_mb, corpus_mb, flat_rss ? "flat" : "BLOWN");

  std::ostringstream out;
  sim::JsonWriter w(out);
  w.begin_document("tracemod-corpus-bench-v1", sim::json::kLines1)
      .member("corpus_bytes", info.bytes)
      .member("corpus_records", info.records)
      .member("corpus_virtual_seconds", seconds, "%g")
      .member("generate_wall_s", gen_s, "%g")
      .member("distill_wall_s", distill_s, "%g")
      .member("speedup_vs_real_time", speedup, "%g")
      .member("faster_than_real_time", faster)
      .member("peak_rss_mb", rss_mb, "%g")
      .member("rss_cap_mb", rss_cap_mb, "%g")
      .member("rss_flat", flat_rss)
      .member("threads", threads)
      .member("windows_total", res.stats.windows_total)
      .member("windows_damaged", res.stats.windows_damaged)
      .member("windows_shed", res.stats.windows_shed)
      .member("records_streamed", res.stats.records_streamed)
      .member("tuples", res.replay.size())
      .member("status", status_name(res.status))
      .end_object();
  if (!sim::io::write_artifact_or_complain(out_path, out.str())) {
    if (!keep) std::filesystem::remove(corpus_path);
    return 2;
  }
  bench::rowf("wrote %s", out_path.c_str());

  if (!keep) std::filesystem::remove(corpus_path);
  const bool ok = faster && flat_rss && res.status == core::DistillStatus::kOk;
  return ok ? 0 : cli::kExitGate;
}
