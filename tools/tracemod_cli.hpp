// The tracemod and sweep command lines as a library, so the exit-code
// contract and flag handling are testable without spawning the binaries.
// Flags are parsed by the shared table parser (src/cli/flags.hpp).
//
// Contract (pinned by tests/tools/tracemod_cli_test.cpp):
//   - unknown subcommands and malformed flags print usage to stderr and
//     return kExitUsage;
//   - I/O and trace-format failures return kExitIo, as does a --status
//     prefix whose file cannot be written (before any work);
//   - `verify` returns kExitSalvage for damaged-but-salvageable traces;
//   - `audit` returns kExitAudit when the fidelity verdict is breach or
//     unauditable;
//   - kExitDegraded is returned by supervised sweeps that completed with
//     degraded cells (tools/sweep_main.cpp: every cell ran, but at least one
//     trial exhausted its retries and carries a TrialError record), by
//     runs whose journal/checkpoint plane degraded after a write failure
//     (the results are complete but no longer resumable; DESIGN.md
//     section 15), and by `campus` runs that did not reach their virtual
//     horizon (watchdog or drained queue);
//   - exit code 6 is reserved by the benchmark build guard
//     (bench/build_guard.hpp: refused to benchmark a non-Release build)
//     and is never returned by tracemod itself.
// README.md carries the full 0-6 table.
#pragma once

#include <string>
#include <vector>

#include "cli/flags.hpp"  // the exit codes

namespace tracemod::cli {

/// Runs one tracemod invocation.  `args` excludes argv[0]; the first
/// element is the subcommand.  Never throws: failures map to the exit
/// codes above with diagnostics on stderr.
int run(const std::vector<std::string>& args);

/// Runs one sweep invocation (tools/sweep_main.cpp); `args` excludes
/// argv[0].  Never throws, like run().
int sweep_main(const std::vector<std::string>& args);

}  // namespace tracemod::cli
