// alloc_totals() as a process's first heap activity must return.
//
// The interposer's registry is created on first use.  alloc_totals() reads
// it under the registry mutex, so if creating it were counted like any
// other allocation, the counting hook would try to take that mutex again
// and the process would hang.  This check forks a child before the
// process allocates anything (no gtest: its static registration
// allocates), so the child's call is the first heap activity, and fails
// when the child does not exit cleanly within the deadline.
//
// Usage: alloc_first_call_test   (exit 0 = the call returned)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <ctime>

#include "sim/perf/alloc_telemetry.hpp"

namespace {

constexpr int kDeadlineMs = 5000;

}  // namespace

int main() {
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    (void)tracemod::sim::perf::alloc_totals();
    _exit(0);
  }
  for (int waited_ms = 0; waited_ms < kDeadlineMs; waited_ms += 10) {
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      std::printf("alloc_totals() as first heap activity: %s\n",
                  clean ? "returned" : "child failed");
      return clean ? 0 : 1;
    }
    const timespec ten_ms{0, 10'000'000};
    nanosleep(&ten_ms, nullptr);
  }
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);
  std::printf(
      "alloc_totals() as first heap activity: hung (killed after %d ms)\n",
      kDeadlineMs);
  return 1;
}
