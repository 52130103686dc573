// perfbench_driver: runs one benchmark workload in its own process and
// prints its metrics.  run.py builds this program and relays its last line.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--digests] [--allow-debug]
//
// Workloads (see NOTES.md for why each exists):
//   paper_pipeline  Section 5.1 for Figures 6-8: per scenario, 4 collections
//                   and 4 live + 4 modulated trials of Web, FTP send, FTP
//                   recv and Andrew; then 4 Ethernet trials per benchmark.
//   campus_10k      CampusWorld at 10,000 hosts, serial, 30 virtual s.
//   corpus_stream   generate_ping_corpus, then StreamDistiller::distill_file.
//
// A run discards one warm-up pass, then repeats passes while another fits in
// --seconds (at least kMinPasses).  Host times are in reference seconds
// (reference_kernel.hpp) and are medians over the run, per operation;
// profiler figures are medians over traced passes.
// With --trace 0 it prints the end-to-end metrics of untraced passes.  With
// --trace 1 it alternates untraced passes with traced ones (a
// sim::perf::PerfSession attached) and prints the per-layer metrics plus
// the tracing overhead.
//
// Every public call is one operation.  It fails when its outcome is not
// ok, or when its output digest differs from pins.txt (where pinned) or
// from the first pass of this run.
#include <linux/magic.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_reading.hpp"
#include "build_guard.hpp"
#include "core/stream_distiller.hpp"
#include "reference_kernel.hpp"
#include "scenarios/campus.hpp"
#include "scenarios/experiment.hpp"
#include "sim/perf/perf.hpp"
#include "sim/perf/report.hpp"
#include "trace/stream_reader.hpp"
#include "trace/synthetic_corpus.hpp"
#include "version.hpp"

using namespace tracemod;

namespace {

// --- workload sizes --------------------------------------------------------

constexpr int kMinPasses = 3;
constexpr int kPipelineSetups = 9;
constexpr double kCorpusVirtualS = 3600.0;
constexpr double kCorpusMiB = 64.0;
constexpr int kCorpusDistills = 3;
// One pass-2 worker: on a shared 4-core VM a distill took 0.23-0.48 s with
// four, depending on whether the host left cores idle for the pool; with one,
// 0.39-0.53 s.  Passed explicitly: 0 would mean hardware_concurrency().
constexpr unsigned kDistillThreads = 1;
constexpr double kMiB = 1024.0 * 1024.0;
// How much more a workload slows than the reference kernel on a busy host:
// log(operation slowdown) / log(kernel slowdown), fitted over repetitions of
// the same operations (see NOTES.md, "Reference seconds").  The pipeline
// fitted 1.45-1.5 over a 4-minute run and 1.2-1.6 in shorter spells; the
// corpus's distill 1.2 and its generation 0.8.
constexpr double kPipelineSensitivity = 1.4;
constexpr double kCampusSensitivity = 1.0;
constexpr double kCorpusSensitivity = 1.0;
constexpr std::size_t kCampusHosts = 10'000;
constexpr double kCampusVirtualS = 30.0;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/// Peak resident set of this process (VmHWM), in MiB.  Unlike ru_maxrss it
/// does not inherit the high-water mark of the parent that forked us.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double cpu_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

// --- digests and the operation ledger --------------------------------------

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
};

std::uint64_t digest_of(const core::ReplayTrace& trace) {
  Fnv f;
  for (const core::QualityTuple& q : trace.tuples()) {
    f.u64(static_cast<std::uint64_t>(q.d.count()));
    f.f64(q.latency_s);
    f.f64(q.per_byte_bottleneck);
    f.f64(q.per_byte_residual);
    f.f64(q.loss);
  }
  return f.h;
}

std::uint64_t digest_of(const scenarios::BenchmarkOutcome& o) {
  Fnv f;
  f.f64(o.elapsed_s);
  return f.h;
}

/// Counts operations and checks each one's outcome and output digest.
class Ledger {
 public:
  /// `list` prints every digest, the input for re-pinning.
  Ledger(std::map<std::string, std::uint64_t> pins, bool list)
      : pins_(std::move(pins)), list_(list) {}

  void check(const std::string& key, bool ok, std::uint64_t digest) {
    ++attempted_;
    if (list_) std::printf("digest %s %016" PRIx64 "\n", key.c_str(), digest);
    const auto pin = pins_.find(key);
    const auto seen = seen_.emplace(key, digest).first;
    std::string why;
    if (!ok) {
      why = "outcome not ok";
    } else if (pin != pins_.end() && pin->second != digest) {
      why = "digest differs from pins.txt";
    } else if (seen->second != digest) {
      why = "digest differs from the first pass";
    }
    if (!why.empty()) {
      ++failed_;
      std::fprintf(stderr, "FAILED %s: %s\n", key.c_str(), why.c_str());
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::map<std::string, std::uint64_t> pins_;
  std::map<std::string, std::uint64_t> seen_;
  bool list_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// pins.txt: "<operation key> <hex digest>" per line, '#' comments.
std::map<std::string, std::uint64_t> load_pins(const std::string& path) {
  std::map<std::string, std::uint64_t> pins;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, hex;
    if (!(fields >> key >> hex)) throw std::runtime_error("bad pin: " + line);
    pins[key] = std::stoull(hex, nullptr, 16);
  }
  return pins;
}

// --- one pass ---------------------------------------------------------------

/// Outside view of one kind of public call, summed over a pass.
struct CallSpan {
  double sim_s = 0.0;
  std::uint64_t allocs = 0;
};

/// One timed piece of work.
struct Timing {
  double host_s = 0.0;
  double slowdown = 1.0;  ///< the work's, estimated from the host's
  double ref_s() const { return host_s / slowdown; }
};

struct Pass {
  bool traced = false;
  double setup_s = 0.0;  ///< reference seconds
  double host_s = 0.0;   ///< the timed phase, without the reference kernel
  double sim_s = 0.0;    ///< virtual seconds simulated or distilled
  std::uint64_t allocs = 0;  ///< process-wide, over the timed phase
  std::uint64_t events = 0;  ///< 0 when the workload does not report them
  /// Each timed operation's repetitions in this pass, by operation key.
  std::map<std::string, std::vector<Timing>> ops;
  std::map<std::string, CallSpan> calls;
  std::optional<sim::perf::PerfSnapshot> perf;
  std::map<std::string, double> extra;  ///< workload-specific figures
};

/// Times work in reference seconds: host seconds divided by the work's
/// slowdown, which is the reference kernel's slowdown read just before and
/// just after the work, to the power `sensitivity` (see
/// reference_kernel.hpp for why).
class HostSpeed {
 public:
  explicit HostSpeed(double sensitivity) : sensitivity_(sensitivity) {}

  template <typename F>
  Timing time(F&& fn) {
    if (before_ == 0.0) before_ = read();
    const double t0 = now_s();
    fn();
    Timing t;
    t.host_s = now_s() - t0;
    const double after = read();
    t.slowdown = std::pow(0.5 * (before_ + after), sensitivity_);
    before_ = after;
    return t;
  }

  /// Host seconds spent in the reference kernel so far.
  double kernel_s() const { return kernel_s_; }

 private:
  double read() {
    const double t0 = now_s();
    const double slowdown = kernel_.slowdown();
    kernel_s_ += now_s() - t0;
    return slowdown;
  }

  double sensitivity_;
  perfbench::ReferenceKernel kernel_;
  double before_ = 0.0;
  double kernel_s_ = 0.0;
};

/// Times the public call `fn` from outside, as operation `key` of kind
/// `call` (keys start with "<call>/").
template <typename F>
auto span(Pass& pass, HostSpeed& speed, const char* call,
          const std::string& key, F&& fn) {
  const sim::perf::AllocTotals a0 = perfbench::alloc_reading();
  std::optional<decltype(fn())> result;
  pass.ops[key].push_back(speed.time([&] { result.emplace(fn()); }));
  pass.calls[call].allocs += (perfbench::alloc_reading() - a0).allocs;
  return std::move(*result);
}

/// Median over a run of `get` applied to each repetition of an operation,
/// summed over the operations whose key starts with `prefix`.  Medians,
/// not fastest repetitions: on a shared host the fastest repetition of an
/// operation comes from short quiet spells whose frequency varies from
/// run to run, and it spread three times as widely as the median did.
double sum_of_medians(const std::vector<Pass>& passes,
                      const std::function<double(const Timing&)>& get,
                      const std::string& prefix = "") {
  std::map<std::string, std::vector<double>> by_op;
  for (const Pass& p : passes) {
    for (const auto& [key, reps] : p.ops) {
      if (key.compare(0, prefix.size(), prefix) != 0) continue;
      for (const Timing& t : reps) by_op[key].push_back(get(t));
    }
  }
  double sum = 0.0;
  for (const auto& kv : by_op) sum += median(kv.second);
  return sum;
}

/// The timed phase of a run in reference seconds.
double ref_s(const std::vector<Pass>& passes, const std::string& prefix = "") {
  return sum_of_medians(
      passes, [](const Timing& t) { return t.ref_s(); }, prefix);
}

sim::perf::PerfConfig perf_config() {
  sim::perf::PerfConfig cfg;
  // Fine enough to resolve sub-microsecond dispatch medians.
  cfg.dispatch_hist_max_us = 1000.0;
  cfg.dispatch_hist_bins = 20'000;
  return cfg;
}

/// Runs `body` as the timed phase of `pass`, under a profiler when traced.
template <typename F>
void timed_phase(Pass& pass, const HostSpeed& speed, F&& body) {
  sim::perf::PerfProfiler profiler(perf_config());
  std::optional<sim::perf::PerfSession> session;
  if (pass.traced) session.emplace(profiler);
  const sim::perf::AllocTotals a0 = perfbench::alloc_reading();
  const double kernel0 = speed.kernel_s();
  const double t0 = now_s();
  body();
  pass.host_s = now_s() - t0 - (speed.kernel_s() - kernel0);
  pass.allocs = (perfbench::alloc_reading() - a0).allocs;
  session.reset();
  if (pass.traced) pass.perf = sim::perf::capture_perf(profiler);
}

// --- paper_pipeline ---------------------------------------------------------

struct PipelineRows {
  double off_by_median = 0.0;
  int within_error = 0;
};

class PaperPipeline {
 public:
  explicit PaperPipeline(std::uint64_t seed) {
    // Every trial is a pure function of its config, so the seed permutes
    // only the order of scenarios and benchmarks: outputs, digests and
    // fidelity are the same for every seed, and the seed varies what
    // runs after what (warm caches, heap state).
    scenarios_ = scenarios::all_scenarios();
    kinds_ = {scenarios::BenchmarkKind::kWeb, scenarios::BenchmarkKind::kFtpSend,
              scenarios::BenchmarkKind::kFtpRecv,
              scenarios::BenchmarkKind::kAndrew};
    std::mt19937_64 rng(seed);
    shuffle(scenarios_, rng);
    shuffle(kinds_, rng);
  }

  Pass run(bool traced, Ledger& ledger) {
    Pass pass;
    pass.traced = traced;
    // The only set-up is one ~0.3 ms measure_compensation_vb(); a pass
    // times kPipelineSetups of them together and reports one.
    scenarios::ExperimentConfig cfg;
    pass.setup_s = speed_.time([&] {
                     for (int i = 0; i < kPipelineSetups; ++i) {
                       cfg.compensation_vb = scenarios::measure_compensation_vb();
                     }
                   }).ref_s() /
                   kPipelineSetups;

    std::vector<double> off_by;
    int within = 0;
    timed_phase(pass, speed_, [&] {
      for (const scenarios::Scenario& s : scenarios_) {
        std::vector<core::ReplayTrace> traces;
        for (int t = 0; t < cfg.trials; ++t) {
          const char* call = "collect_replay_trace";
          const std::string key =
              std::string(call) + "/" + s.name + "/" + std::to_string(t);
          traces.push_back(span(pass, speed_, call, key, [&] {
            return scenarios::collect_replay_trace(s, cfg, t);
          }));
          const double sim_s = sim::to_seconds(traces.back().total_duration());
          pass.calls[call].sim_s += sim_s;
          pass.sim_s += sim_s;
          ledger.check(key, !traces.back().empty(), digest_of(traces.back()));
        }
        for (scenarios::BenchmarkKind kind : kinds_) {
          std::vector<scenarios::BenchmarkOutcome> live, modulated;
          for (int t = 0; t < cfg.trials; ++t) {
            live.push_back(trial(pass, ledger, "run_live_trial", s.name, kind, t,
                                 [&] {
                                   return scenarios::run_live_trial(s, kind, cfg, t);
                                 }));
            modulated.push_back(trial(
                pass, ledger, "run_modulated_trial", s.name, kind, t, [&] {
                  return scenarios::run_modulated_trial(traces[t], kind, cfg, t);
                }));
          }
          const scenarios::Summary a = scenarios::summarize_elapsed(live);
          const scenarios::Summary b = scenarios::summarize_elapsed(modulated);
          off_by.push_back(scenarios::off_by_factor(a, b));
          within += scenarios::within_error(a, b) ? 1 : 0;
        }
      }
      for (scenarios::BenchmarkKind kind : kinds_) {
        for (int t = 0; t < cfg.trials; ++t) {
          trial(pass, ledger, "run_ethernet_trial", "ethernet", kind, t,
                [&] { return scenarios::run_ethernet_trial(kind, cfg, t); });
        }
      }
    });
    rows_.off_by_median = median(off_by);
    rows_.within_error = within;
    if (pass.perf) pass.events = pass.perf->dispatched;
    return pass;
  }

  const PipelineRows& rows() const { return rows_; }

 private:
  template <typename T>
  static void shuffle(std::vector<T>& v, std::mt19937_64& rng) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng() % i]);
    }
  }

  template <typename F>
  scenarios::BenchmarkOutcome trial(Pass& pass, Ledger& ledger,
                                    const char* call, const std::string& where,
                                    scenarios::BenchmarkKind kind, int t,
                                    F&& fn) {
    const std::string key = std::string(call) + "/" + where + "/" +
                            scenarios::to_string(kind) + "/" +
                            std::to_string(t);
    scenarios::BenchmarkOutcome o = span(pass, speed_, call, key, fn);
    pass.calls[call].sim_s += o.elapsed_s;
    pass.sim_s += o.elapsed_s;
    ledger.check(key, o.ok && o.completed, digest_of(o));
    return o;
  }

  std::vector<scenarios::Scenario> scenarios_;
  std::vector<scenarios::BenchmarkKind> kinds_;
  PipelineRows rows_;
  HostSpeed speed_{kPipelineSensitivity};
};

// --- campus_10k -------------------------------------------------------------

class Campus {
 public:
  explicit Campus(std::uint64_t seed) {
    cfg_.hosts = kCampusHosts;
    cfg_.horizon = sim::from_seconds(kCampusVirtualS);
    cfg_.seed = seed;
    cfg_.threads = 0;  // serial; 0 pool threads, passed explicitly
  }

  Pass run(bool traced, Ledger& ledger) {
    Pass pass;
    pass.traced = traced;
    std::optional<scenarios::CampusWorld> world;
    pass.setup_s = speed_.time([&] { world.emplace(cfg_); }).ref_s();
    scenarios::CampusResult r;
    const std::string key = "campus.run/seed=" + std::to_string(cfg_.seed);
    timed_phase(pass, speed_, [&] {
      pass.ops[key].push_back(speed_.time([&] { r = world->run(); }));
    });
    ledger.check(key, r.ok, r.digest);
    pass.sim_s = r.virtual_s;
    pass.events = r.events;
    pass.extra["handoffs"] = static_cast<double>(r.handoffs);
    return pass;
  }

 private:
  scenarios::CampusConfig cfg_;
  HostSpeed speed_{kCampusSensitivity};
};

// --- corpus_stream ----------------------------------------------------------

class Corpus {
 public:
  Corpus(std::uint64_t seed, const std::string& work_dir)
      : seed_(seed),
        path_((std::filesystem::path(work_dir) /
               ("perfbench-corpus-" + std::to_string(::getpid()) + ".trace"))
                  .string()) {
    struct statfs fs {};
    on_tmpfs_ = statfs(work_dir.c_str(), &fs) == 0 && fs.f_type == TMPFS_MAGIC;
  }
  ~Corpus() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  Corpus(const Corpus&) = delete;
  Corpus& operator=(const Corpus&) = delete;

  bool on_tmpfs() const { return on_tmpfs_; }

  Pass run(bool traced, Ledger& ledger) {
    Pass pass;
    pass.traced = traced;
    const std::string tag = "/seed=" + std::to_string(seed_);

    trace::CorpusSpec spec;
    spec.duration = sim::from_seconds(kCorpusVirtualS);
    spec.target_bytes = static_cast<std::uint64_t>(kCorpusMiB * kMiB);
    spec.seed = 1996 + seed_;  // seed 1 is bench/corpus_distill's 1997
    std::filesystem::remove(path_);
    rusage r0{}, r1{};
    trace::CorpusInfo info;
    const Timing gen = speed_.time([&] {
      getrusage(RUSAGE_SELF, &r0);
      info = trace::generate_ping_corpus(path_, spec);
      getrusage(RUSAGE_SELF, &r1);
    });
    pass.setup_s = gen.ref_s();
    const double sys = cpu_s(r1.ru_stime) - cpu_s(r0.ru_stime);
    const double user = cpu_s(r1.ru_utime) - cpu_s(r0.ru_utime);
    Fnv f;
    f.u64(info.records);
    f.u64(info.bytes);
    f.u64(info.groups);
    f.u64(info.replies_dropped);
    ledger.check("corpus.generate" + tag, info.records > 0, f.h);
    pass.extra["write_mb_per_s"] = ratio(info.bytes / kMiB, pass.setup_s);
    pass.extra["write_sys_share"] = ratio(sys, sys + user);

    // Generation takes three times as long as a distill, so an untraced
    // pass distills the corpus several times: more distill repetitions per
    // run for the same set-up.  A traced pass distills once, so profiler
    // figures stay per distill.
    core::StreamDistillConfig cfg;
    cfg.threads = kDistillThreads;
    core::StreamDistillResult res;
    const std::string key = "corpus.distill" + tag;
    for (int i = 0; i < (traced ? 1 : kCorpusDistills); ++i) {
      timed_phase(pass, speed_, [&] {
        pass.ops[key].push_back(speed_.time(
            [&] { res = core::StreamDistiller(cfg).distill_file(path_); }));
      });
      ledger.check(key,
                   res.status == core::DistillStatus::kOk &&
                       res.stats.windows_shed == 0 &&
                       res.stats.windows_damaged == 0,
                   digest_of(res.replay));
    }
    pass.sim_s = kCorpusVirtualS;
    const double records = static_cast<double>(res.stats.records_streamed);
    pass.extra["records"] = records;
    pass.extra["allocs_per_record"] =
        ratio(static_cast<double>(pass.allocs), records);
    pass.extra["retained_mb"] =
        static_cast<double>(res.stats.retained_bytes) / kMiB;
    pass.extra["windows_shed"] = static_cast<double>(res.stats.windows_shed);

    if (traced) {
      // A strict scan of the whole corpus: the frame codec's read side,
      // with none of the distiller's work.
      std::ifstream in(path_, std::ios::binary);
      trace::TraceReadOptions opts;
      opts.mode = trace::ReadMode::kStrict;
      std::uint64_t n = 0;
      const Timing scan = speed_.time([&] {
        trace::TraceStreamReader reader(in, opts);
        trace::TraceRecord rec;
        while (reader.next(&rec)) ++n;
      });
      ledger.check("trace.strict_scan" + tag, n == info.records, n);
      pass.extra["read_mb_per_s"] = ratio(info.bytes / kMiB, scan.ref_s());
    }
    return pass;
  }

 private:
  std::uint64_t seed_;
  std::string path_;
  bool on_tmpfs_ = false;
  HostSpeed speed_{kCorpusSensitivity};
};

// --- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Median over passes of a figure taken from each pass.
double med(const std::vector<Pass>& passes,
           const std::function<double(const Pass&)>& get) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(get(p));
  return median(v);
}

double extra(const Pass& p, const char* key) {
  const auto it = p.extra.find(key);
  return it == p.extra.end() ? 0.0 : it->second;
}

/// Histogram percentile, interpolated linearly inside the bin.
double percentile(const sim::Histogram& h, double q) {
  const double rank = q * static_cast<double>(h.total());
  double cum = 0.0;
  for (std::size_t i = 0; i < h.bins(); ++i) {
    const double c = static_cast<double>(h.bin_count(i));
    if (c > 0.0 && cum + c >= rank) {
      return h.bin_lo(i) + (h.bin_hi(i) - h.bin_lo(i)) * (rank - cum) / c;
    }
    cum += c;
  }
  return h.total() > 0 ? h.bin_hi(h.bins() - 1) : 0.0;
}

/// Self time, count and self allocations of the profiled paths whose last
/// label is `label` (or of a whole domain when `label` is null).
struct PathSum {
  double self_s = 0.0;
  double total_s = 0.0;
  double count = 0.0;
  double self_allocs = 0.0;
};

PathSum sum_paths(const sim::perf::PerfSnapshot& snap, sim::perf::Domain d,
                  const char* label) {
  PathSum s;
  for (const sim::perf::PerfPath& p : snap.paths) {
    if (p.leaf_domain != d) continue;
    if (label != nullptr) {
      const std::size_t cut = p.path.rfind(';');
      if (p.path.compare(cut + 1, std::string::npos, label) != 0) continue;
    }
    s.self_s += p.est_self_s;
    s.total_s += p.est_total_s;
    s.count += static_cast<double>(p.count);
    s.self_allocs += static_cast<double>(p.self_allocs);
  }
  return s;
}

std::vector<Metric> end_to_end(const std::vector<Pass>& passes,
                               const PipelineRows* rows) {
  // Workloads without live-vs-modulated rows report the fidelity metrics
  // as 1 (see NOTES.md): the report format needs every metric on every
  // workload, and a zero would have no relative spread.
  return {
      {"sim_x_realtime", ratio(passes.front().sim_s, ref_s(passes)),
       "sim_s/s"},
      {"setup_s", med(passes, [](const Pass& p) { return p.setup_s; }), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"fidelity_off_by", rows ? rows->off_by_median : 1.0, "x"},
      {"rows_within_error",
       rows ? static_cast<double>(rows->within_error) : 1.0, "count"},
  };
}

std::vector<Metric> per_layer(const std::vector<Pass>& untraced,
                              const std::vector<Pass>& traced) {
  using sim::perf::Domain;
  const double untraced_s = ref_s(untraced);
  const double traced_s = ref_s(traced);
  // Event counts are deterministic; the pipeline only learns them from the
  // profiler, so take them from the traced passes.
  const double events = med(traced, [](const Pass& p) {
    return static_cast<double>(p.events);
  });
  auto perf = [&](const std::function<double(const sim::perf::PerfSnapshot&)>&
                      get) {
    return med(traced, [&](const Pass& p) { return get(*p.perf); });
  };
  auto per = [&](Domain d, const char* label, double PathSum::*num,
                 double scale) {
    return perf([=](const sim::perf::PerfSnapshot& s) {
      const PathSum sum = sum_paths(s, d, label);
      return ratio(sum.*num * scale, sum.count);
    });
  };
  auto count = [&](Domain d, const char* label) {
    return perf([=](const sim::perf::PerfSnapshot& s) {
      return sum_paths(s, d, label).count;
    });
  };
  auto call = [&](const char* name, bool allocs) {
    const auto it = untraced.front().calls.find(name);
    if (it == untraced.front().calls.end()) return 0.0;
    if (!allocs) {
      return ratio(ref_s(untraced, std::string(name) + "/") * 1e3,
                   it->second.sim_s);
    }
    return med(untraced, [=](const Pass& p) {
      return static_cast<double>(p.calls.at(name).allocs);
    });
  };
  auto untraced_extra = [&](const char* key) {
    return med(untraced, [=](const Pass& p) { return extra(p, key); });
  };
  auto traced_extra = [&](const char* key) {
    return med(traced, [=](const Pass& p) { return extra(p, key); });
  };
  const double queries = count(Domain::kCellIndex, "cell.query");

  std::vector<Metric> m = {
      {"sim.event_loop.events", events, "count"},
      {"sim.event_loop.events_per_s", ratio(events, untraced_s), "1/s"},
      {"sim.event_loop.self_ns_per_event",
       perf([](const sim::perf::PerfSnapshot& s) {
         return ratio(sum_paths(s, Domain::kEventLoop, nullptr).self_s * 1e9,
                      static_cast<double>(s.dispatched));
       }), "ns"},
      {"sim.event_loop.allocs_per_event",
       perf([](const sim::perf::PerfSnapshot& s) {
         return ratio(sum_paths(s, Domain::kEventLoop, nullptr).self_allocs,
                      static_cast<double>(s.dispatched));
       }), "count"},
      {"sim.event_loop.dispatch_p50_us",
       perf([](const sim::perf::PerfSnapshot& s) {
         return percentile(s.dispatch_self_us, 0.50);
       }), "us"},
      {"sim.event_loop.dispatch_p99_us",
       perf([](const sim::perf::PerfSnapshot& s) {
         return percentile(s.dispatch_self_us, 0.99);
       }), "us"},
      {"sim.allocs_per_event",
       ratio(med(untraced, [](const Pass& p) {
               return static_cast<double>(p.allocs);
             }), events), "count"},
      {"net.packet_path.calls", count(Domain::kPacketPath, nullptr), "count"},
      {"net.packet_path.self_ns_per_call",
       per(Domain::kPacketPath, nullptr, &PathSum::self_s, 1e9), "ns"},
      {"net.packet_path.allocs_per_call",
       per(Domain::kPacketPath, nullptr, &PathSum::self_allocs, 1.0), "count"},
      {"core.modulation.packets", count(Domain::kModulation, nullptr), "count"},
      {"core.modulation.self_ns_per_packet",
       per(Domain::kModulation, nullptr, &PathSum::self_s, 1e9), "ns"},
      {"core.modulation.allocs_per_packet",
       per(Domain::kModulation, nullptr, &PathSum::self_allocs, 1.0), "count"},
  };
  for (const char* c : {"run_live_trial", "run_modulated_trial",
                        "run_ethernet_trial", "collect_replay_trace"}) {
    m.push_back({std::string("scenarios.") + c + ".ms_per_sim_s", call(c, false),
                 "ms/sim_s"});
    m.push_back({std::string("scenarios.") + c + ".allocs", call(c, true),
                 "count"});
  }
  const std::vector<Metric> rest = {
      {"wireless.cell_index.queries", queries, "count"},
      {"wireless.cell_index.self_ns_per_query",
       per(Domain::kCellIndex, "cell.query", &PathSum::self_s, 1e9), "ns"},
      {"wireless.cell_index.share",
       med(traced, [](const Pass& p) {
         return ratio(sum_paths(*p.perf, Domain::kCellIndex, nullptr).self_s,
                      p.host_s);
       }), "ratio"},
      {"wireless.poll.self_ms",
       perf([](const sim::perf::PerfSnapshot& s) {
         return sum_paths(s, Domain::kEventLoop, "wireless.poll").self_s * 1e3;
       }), "ms"},
      {"wireless.scan_yield", ratio(traced_extra("handoffs"), queries), "ratio"},
      {"core.distill.records_per_s",
       ratio(untraced_extra("records"), untraced_s), "1/s"},
      {"core.distill.pass1_s",
       perf([](const sim::perf::PerfSnapshot& s) {
         return sum_paths(s, Domain::kDistill, "distill.pass1").total_s;
       }), "s"},
      {"core.distill.pass2_s",
       med(traced, [](const Pass& p) {
         if (extra(p, "records") == 0.0) return 0.0;
         return p.host_s -
                sum_paths(*p.perf, Domain::kDistill, "distill.pass1").total_s;
       }), "s"},
      {"core.distill.allocs_per_record", untraced_extra("allocs_per_record"),
       "count"},
      {"core.distill.retained_mb", untraced_extra("retained_mb"), "MB"},
      {"core.distill.windows_shed", untraced_extra("windows_shed"), "count"},
      {"core.distill.in_memory_ms",
       perf([](const sim::perf::PerfSnapshot& s) {
         return sum_paths(s, Domain::kDistill, "distill.run").self_s * 1e3;
       }), "ms"},
      {"trace.write_mb_per_s", untraced_extra("write_mb_per_s"), "MB/s"},
      {"trace.write_sys_share", untraced_extra("write_sys_share"), "ratio"},
      {"trace.read_mb_per_s", traced_extra("read_mb_per_s"), "MB/s"},
      {"tracing_overhead", ratio(traced_s, untraced_s), "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

// --- main -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string pins = "perfbench/pins.txt";
  bool digests = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload "
               "paper_pipeline|campus_10k|corpus_stream "
               "--seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--pins FILE] [--digests] [--allow-debug]\n",
               why);
  std::exit(1);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = value() == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = value();
    } else if (flag == "--pins") {
      a.pins = value();
    } else if (flag == "--digests") {
      a.digests = true;
    } else if (flag != "--allow-debug") {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload != "paper_pipeline" && a.workload != "campus_10k" &&
      a.workload != "corpus_stream") {
    usage("unknown workload");
  }
  return a;
}

/// One warm-up pass, then passes while another round still fits in
/// `seconds` (at least kMinPasses).  In trace mode every untraced pass is
/// followed by a traced one.
template <typename W>
void measure(W& workload, const Args& args, Ledger& ledger,
             std::vector<Pass>& untraced, std::vector<Pass>& traced) {
  auto run = [&](bool traced_pass, std::vector<Pass>* keep) {
    Pass p = workload.run(traced_pass, ledger);
    std::fprintf(stderr, "pass %-8s setup %.6f s  timed %.6f s  sim %.3f s\n",
                 keep == nullptr ? "warm-up" : traced_pass ? "traced" : "untraced",
                 p.setup_s, p.host_s, p.sim_s);
    if (keep != nullptr) keep->push_back(std::move(p));
  };
  run(false, nullptr);
  const double t0 = now_s();
  double round_s = 0.0;  // the last round of passes
  while (untraced.size() < static_cast<std::size_t>(kMinPasses) ||
         now_s() - t0 + round_s <= args.seconds) {
    const double t_round = now_s();
    run(false, &untraced);
    if (args.trace) run(true, &traced);
    round_s = now_s() - t_round;
  }
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bench::require_release_build(argc, argv);
  try {
    const Args args = parse(argc, argv);
    Ledger ledger(load_pins(args.pins), args.digests);
    std::vector<Pass> untraced, traced;
    std::optional<PipelineRows> rows;
    unsigned threads = 1;  // the pipeline is serial
    const char* corpus_fs = "none";
    if (args.workload == "paper_pipeline") {
      PaperPipeline w(args.seed);
      measure(w, args, ledger, untraced, traced);
      rows = w.rows();
    } else if (args.workload == "campus_10k") {
      Campus w(args.seed);
      measure(w, args, ledger, untraced, traced);
    } else {
      Corpus w(args.seed, args.work_dir);
      threads = kDistillThreads;
      corpus_fs = w.on_tmpfs() ? "tmpfs" : "disk";
      measure(w, args, ledger, untraced, traced);
    }
    const std::vector<Metric> metrics =
        args.trace ? per_layer(untraced, traced)
                   : end_to_end(untraced, rows ? &*rows : nullptr);

    std::printf(
        "context {\"workload\": \"%s\", \"seed\": %" PRIu64
        ", \"tool_version\": \"%s\", \"build_type\": \"%s\", \"nproc\": %u, "
        "\"threads\": %u, \"corpus_location\": \"%s\", \"passes\": %zu, "
        "\"traced_passes\": %zu}\n",
        args.workload.c_str(), args.seed, kToolVersion, bench::build_type(),
        usable_cpus(), threads, corpus_fs, untraced.size(), traced.size());
    // The host's state during the run, and the main figure in plain host
    // seconds, for reading the reference-second figures against.
    std::vector<double> slowdowns;
    for (const Pass& p : untraced) {
      for (const auto& kv : p.ops) {
        for (const Timing& t : kv.second) slowdowns.push_back(t.slowdown);
      }
    }
    std::printf(
        "host {\"median_slowdown\": %.4f, \"sim_x_realtime_in_host_s\": %.3f}\n",
        median(slowdowns),
        ratio(untraced.front().sim_s,
              sum_of_medians(untraced,
                             [](const Timing& t) { return t.host_s; })));
    std::string out = "{\"correct\": ";
    out += ledger.failed() == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(ledger.attempted());
    out += ", \"failed\": " + std::to_string(ledger.failed());
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      std::printf("%-44s %20.6f %s\n", m.name.c_str(), m.value, m.unit);
      out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
             json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
