// sweep — run the paper's full evaluation matrix on N threads.
//
//   sweep [--threads N] [--serial] [--trials N] [--seed N]
//         [--scenarios porter,flagstaff,wean,chatterbox,campus]
//         [--benchmarks web,ftp-send,ftp-recv,andrew]
//         [--no-compensate] [--telemetry PREFIX] [--audit[=FILE]]
//         [--status PREFIX] [--supervise] [--retries N] [--retry-perturb]
//         [--budget SECONDS] [--wall-budget SECONDS]
//         [--poison SCEN:BENCH:PHASE:TRIAL[:FAILS]]
//         [--journal FILE | --resume FILE] [--json FILE]
//
// Flags follow the shared syntax (src/cli/flags.hpp): a value flag is
// `--name VALUE` or `--name=VALUE`; only --audit takes its value after
// '=' alone.  --serial is --threads 1 and wins over --threads.
//
// Every cell of {benchmark} x {scenario} runs the paper's procedure: N
// live trials, N collection traversals distilled to replay traces, one
// modulated trial per trace, plus a bare-Ethernet baseline row per
// benchmark.  Each trial is an isolated SimContext seeded as
// base_seed + trial, so the results are bit-identical whether the matrix
// runs on one thread (--serial) or across all cores; only the wall clock
// changes.  Exit status: 0 on success, 1 on usage error, 2 when the
// status file or an artifact cannot be written, 4 when --audit found a
// fidelity breach, 5 when a supervised sweep completed with degraded
// cells (at least one trial exhausted its retries; the table still
// prints and the error records say which trials and seeds failed).
//
// Supervision (DESIGN.md section 10, scenarios/supervisor.hpp): with
// --supervise (implied by the other supervision flags), every trial runs
// crash-isolated under a guard, watchdogs bound runaway worlds
// (--budget caps virtual time per trial, --wall-budget abandons trials
// whose event loop stops making progress), and --retries re-runs a failed
// trial with the identical derived seed (--retry-perturb opts into
// explicitly non-bit-identical perturbed retry seeds).  --poison injects
// a deterministic fault for chaos drills ("-" fields are wildcards;
// FAILS bounds how many attempts fail, default all); it may repeat.
//
// Resumable sweeps: --journal FILE persists each completed cell to a
// CRC-framed journal as the sweep runs; after a crash or kill,
// --resume FILE skips the journaled cells and re-runs only the rest, with
// final output byte-identical to an uninterrupted run of the same config.
// A damaged journal degrades safely: a partial trailing record (the
// normal kill-mid-append case) is dropped with a warning, and a corrupt
// or config-mismatched journal falls back to a full re-run.  Resuming is
// incompatible with --audit and --telemetry (neither is journaled).
//
// --audit, --telemetry and --status are the run options every experiment
// driver shares (src/cli/run_options.hpp): a verdict table and a
// tracemod-fidelity-trajectory-v1 file (default BENCH_fidelity.json),
// merged telemetry exports in table order (identical for serial and
// parallel runs), and live tracemod-status-v1 snapshots in PREFIX.status
// (--status implies --supervise; DESIGN.md section 14).  Audit worlds
// never touch trial worlds, so every benchmark number above is
// bit-identical with or without them.
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "cli/run_options.hpp"
#include "scenarios/campus.hpp"
#include "scenarios/parallel_runner.hpp"
#include "sim/io/durable.hpp"
#include "tracemod_cli.hpp"

namespace tracemod::cli {

namespace {

using namespace scenarios;

constexpr std::initializer_list<Flag> kSweepFlags = {
    {"--threads", Flag::kValue, "N"},
    {"--serial"},
    {"--trials", Flag::kValue, "N"},
    {"--seed", Flag::kValue, "N"},
    {"--scenarios", Flag::kValue, "NAME,..."},
    {"--benchmarks", Flag::kValue, "KIND,..."},
    {"--no-compensate"},
    kTelemetryFlag,
    kAuditFlag,
    kStatusFlag,
    {"--supervise"},
    {"--retries", Flag::kValue, "N"},
    {"--retry-perturb"},
    {"--budget", Flag::kValue, "SECONDS"},
    {"--wall-budget", Flag::kValue, "SECONDS"},
    {"--poison", Flag::kValue, "SCEN:BENCH:PHASE:TRIAL[:FAILS]"},
    {"--journal", Flag::kValue, "FILE"},
    {"--resume", Flag::kValue, "FILE"},
    {"--json", Flag::kValue, "FILE"},
};

int usage() {
  std::fputs(usage_line("sweep", kSweepFlags).c_str(), stderr);
  return kExitUsage;
}

/// "wean:web:live:0" or "wean:web:live:0:2"; "-" fields are wildcards.
bool parse_poison(const std::string& spec, InjectedTrialFault* out) {
  const std::vector<std::string> parts = split(spec, ':');
  if (parts.size() < 4 || parts.size() > 5) return false;
  InjectedTrialFault f;
  if (parts[0] != "-") f.scenario = parts[0];
  if (parts[1] != "-") f.benchmark = parts[1];
  if (parts[2] != "-") {
    if (parts[2] != "live" && parts[2] != "collect" &&
        parts[2] != "modulated" && parts[2] != "ethernet" &&
        parts[2] != "audit") {
      return false;
    }
    f.phase = parts[2];
  }
  if (parts[3] != "-" && !parse_integer(parts[3], 0, 1 << 30, &f.trial)) {
    return false;
  }
  if (parts.size() == 5 &&
      !parse_integer(parts[4], 1, 1 << 30, &f.fail_attempts)) {
    return false;
  }
  *out = f;
  return true;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

int run_sweep(const std::vector<std::string>& argv) {
  Args args = parse("sweep", argv, kSweepFlags);
  ExperimentConfig cfg;
  unsigned threads = 0;  // 0 = hardware concurrency
  args.threads("--threads", &threads);
  if (args.has("--serial")) threads = 1;
  args.integer("--trials", &cfg.trials, 1);
  args.integer("--seed", &cfg.base_seed);
  args.integer("--retries", &cfg.supervision.max_retries, 0);
  double budget = 0.0;
  if (args.number("--budget", &budget)) {
    cfg.supervision.virtual_budget = sim::from_seconds(budget);
  }
  args.number("--wall-budget", &cfg.supervision.wall_budget_s);
  if (!args.ok()) return usage();
  cfg.compensate = !args.has("--no-compensate");
  for (const std::string& spec : args.values("--poison")) {
    InjectedTrialFault fault;
    if (!parse_poison(spec, &fault)) {
      std::fprintf(stderr, "bad --poison spec '%s'\n", spec.c_str());
      return usage();
    }
    cfg.supervision.inject.push_back(fault);
  }
  std::string journal_path, resume_path, json_path;
  args.str("--journal", &journal_path);
  args.str("--resume", &resume_path);
  args.str("--json", &json_path);
  // Any supervision flag enables supervision; so does --status, whose
  // per-trial progress accounting lives in the supervised path.
  for (const char* flag :
       {"--supervise", "--retries", "--retry-perturb", "--budget",
        "--wall-budget", "--poison", "--journal", "--resume", "--status"}) {
    if (args.has(flag)) cfg.supervision.enabled = true;
  }
  cfg.supervision.perturb_retry_seed = args.has("--retry-perturb");

  std::vector<Scenario> scenarios = all_scenarios();
  std::string list;
  if (args.str("--scenarios", &list)) {
    // The paper's four plus the synthetic sharded-medium quad; "campus"
    // is selectable by name only so all_scenarios() (and the goldens
    // pinned to it) stay exactly the paper's set.
    std::vector<Scenario> all = all_scenarios();
    all.push_back(campus_walk());
    scenarios.clear();
    for (const std::string& name : split(list, ',')) {
      const Scenario* s = find_scenario(all, name);
      if (s == nullptr) {
        std::fprintf(stderr, "unknown scenario '%s'\n", name.c_str());
        return usage();
      }
      scenarios.push_back(*s);
    }
  }
  std::vector<BenchmarkKind> kinds = {BenchmarkKind::kWeb,
                                      BenchmarkKind::kFtpRecv,
                                      BenchmarkKind::kAndrew};
  if (args.str("--benchmarks", &list)) {
    kinds.clear();
    for (const std::string& name : split(list, ',')) {
      const std::optional<BenchmarkKind> kind = parse_benchmark_kind(name);
      if (!kind) {
        std::fprintf(stderr, "unknown benchmark '%s'\n", name.c_str());
        return usage();
      }
      kinds.push_back(*kind);
    }
  }
  if (!journal_path.empty() && !resume_path.empty()) {
    std::fprintf(stderr, "--journal and --resume are mutually exclusive "
                         "(--resume keeps journaling to its own file)\n");
    return usage();
  }
  if (!resume_path.empty() &&
      (args.has("--audit") || args.has("--telemetry"))) {
    std::fprintf(stderr, "--resume is incompatible with --audit and "
                         "--telemetry (neither is journaled)\n");
    return usage();
  }

  RunOptions run(args, "sweep", cfg);
  if (!run.armed()) return kExitIo;

  const auto t0 = std::chrono::steady_clock::now();
  if (cfg.compensate) {
    cfg.compensation_vb = measure_compensation_vb();
    std::printf("measured physical network Vb: %.3f us/byte\n",
                cfg.compensation_vb * 1e6);
  }

  ParallelRunner runner(threads);
  std::printf("sweep: %zu scenario(s) x %zu benchmark(s) x %d trial(s) on "
              "%u thread(s)\n\n",
              scenarios.size(), kinds.size(), cfg.trials,
              runner.thread_count());

  // Journal / resume plumbing.  Resume-specific notices go to stderr so a
  // resumed run's stdout stays byte-comparable to an uninterrupted one.
  SweepJournalWriter journal;
  JournalReadResult resumed;
  SupervisedSweepOptions opts;
  const std::uint32_t fingerprint = sweep_fingerprint(cfg);
  if (!journal_path.empty()) {
    if (!journal.open(journal_path, fingerprint, /*fresh=*/true)) {
      std::fprintf(stderr, "cannot write sweep journal '%s'\n",
                   journal_path.c_str());
      return run.finish(kExitIo);
    }
    opts.journal = &journal;
  } else if (!resume_path.empty()) {
    resumed = read_sweep_journal(resume_path, fingerprint);
    switch (resumed.status) {
      case JournalStatus::kMissing:
        std::fprintf(stderr, "resume: no journal at '%s'; running the full "
                             "sweep\n", resume_path.c_str());
        journal.open(resume_path, fingerprint, /*fresh=*/true);
        break;
      case JournalStatus::kClean:
        journal.open(resume_path, fingerprint, /*fresh=*/false);
        break;
      case JournalStatus::kDroppedTail:
        // The normal kill-mid-append shape: keep the intact prefix and
        // rewrite the journal without the partial tail.
        std::fprintf(stderr, "resume: %s; keeping %zu intact record(s)\n",
                     resumed.message.c_str(), resumed.records.size());
        if (journal.open(resume_path, fingerprint, /*fresh=*/true)) {
          for (const auto& r : resumed.records) journal.append(r);
        }
        break;
      case JournalStatus::kCorrupt:
      case JournalStatus::kMismatch:
        // A damaged or foreign journal must never skip work: warn, drop
        // every record, and re-run the full sweep.
        std::fprintf(stderr, "resume: journal '%s' unusable (%s: %s); "
                             "re-running the full sweep\n",
                     resume_path.c_str(), to_string(resumed.status),
                     resumed.message.c_str());
        resumed.records.clear();
        journal.open(resume_path, fingerprint, /*fresh=*/true);
        break;
    }
    if (!resumed.records.empty()) opts.resume = &resumed.records;
    if (journal.is_open()) opts.journal = &journal;
    std::fprintf(stderr, "resume: %zu journaled record(s) reused\n",
                 resumed.records.size());
  }

  const auto result = cfg.supervision.enabled
                          ? runner.supervised_sweep(scenarios, kinds, cfg, opts)
                          : runner.sweep(scenarios, kinds, cfg);

  std::printf("%-11s %-9s | %18s %18s | %s\n", "scenario", "benchmark",
              "real(s)", "modulated(s)", "check");
  for (const auto& c : result.cells) {
    const Summary r = summarize_elapsed(c.live);
    const Summary m = summarize_elapsed(c.modulated);
    std::printf("%-11s %-9s | %18s %18s | %s\n", c.scenario.c_str(),
                to_string(c.kind), cell(r).c_str(), cell(m).c_str(),
                check_label(r, m).c_str());
  }
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const Summary eth = summarize_elapsed(result.ethernet[k]);
    std::printf("%-11s %-9s | %18s %18s |\n", "Ethernet",
                to_string(kinds[k]), cell(eth).c_str(), "-");
  }

  if (cfg.supervision.enabled) {
    const SupervisionReport& sup = result.supervision;
    std::printf("\nsupervision: %llu trial(s) failed, %llu retry attempt(s), "
                "%llu timed out\n",
                static_cast<unsigned long long>(sup.trials_failed),
                static_cast<unsigned long long>(sup.trials_retried),
                static_cast<unsigned long long>(sup.trials_timed_out));
    for (const TrialError& e : sup.errors) {
      std::printf("  %s\n", describe(e).c_str());
    }
  }

  // Audits and telemetry merge in table order (cells, then Ethernet
  // baselines) with trial-ordered labels: the same files regardless of
  // thread count.
  for (const auto& per_scenario : result.audits) {
    run.add_audits(per_scenario, "");
  }
  for (const auto& c : result.cells) {
    const std::string cell_prefix = c.scenario + "/" + to_string(c.kind);
    run.add_telemetry(c.live, cell_prefix + "/live");
    run.add_telemetry(c.modulated, cell_prefix + "/mod");
  }
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    run.add_telemetry(result.ethernet[k],
                      std::string("ethernet/") + to_string(kinds[k]));
  }
  const int artifacts = run.write_artifacts();
  if (artifacts == kExitIo) return run.finish(kExitIo);

  if (!json_path.empty()) {
    std::ostringstream out;
    write_sweep_json(out, result, cfg, kinds);
    if (!sim::io::write_artifact_or_complain(json_path, out.str())) {
      return run.finish(kExitIo);
    }
    std::printf("\nsweep json: -> %s\n", json_path.c_str());
  }

  journal.close();
  if (journal.degraded()) {
    std::fprintf(stderr,
                 "warning: sweep journal degraded mid-run (%s); results are "
                 "complete but this run is not resumable\n",
                 journal.degraded_reason().c_str());
  }

  std::printf("\ntotal wall clock: %.2f s\n", seconds_since(t0));
  // Degraded cells outrank an audit breach: exit 5 says "every cell ran,
  // but these trials carry error records".  A journal plane that gave up
  // mid-run is the same grade of outcome: the table is good, the
  // crash-safety is not.
  return run.finish(result.supervision.degraded() || journal.degraded()
                        ? kExitDegraded
                        : artifacts);
}

}  // namespace

int sweep_main(const std::vector<std::string>& args) {
  try {
    return run_sweep(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitIo;
  }
}

}  // namespace tracemod::cli
