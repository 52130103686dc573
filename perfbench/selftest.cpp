// Pins the benchmark's allocation-reading workaround (alloc_reading.hpp).
//
// Each probe runs in a child forked before this process makes any heap
// allocation, so the probe's first call is also the process's first heap
// activity -- the only state in which sim::perf::alloc_totals() deadlocks.
//   - "guarded": alloc_reading() must return, with the priming allocation
//     counted, within the deadline.  Failure exits 1.
//   - "raw": a bare alloc_totals().  Reported only: it documents whether
//     the src/ defect is still present, and never fails the test.
//
// Usage: perfbench_selftest   (exit 0 = the workaround holds)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <ctime>

#include "alloc_reading.hpp"

namespace {

constexpr int kDeadlineMs = 1000;
constexpr int kExitCounted = 0;
constexpr int kExitNotCounted = 3;

/// Forks a child running `probe` and waits up to the deadline.  Returns
/// the child's exit code, or -1 when it had to be killed.
int run_probe(int (*probe)()) {
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) return -2;
  if (pid == 0) _exit(probe());
  for (int waited_ms = 0; waited_ms < kDeadlineMs; waited_ms += 10) {
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
    }
    const timespec ten_ms{0, 10'000'000};
    nanosleep(&ten_ms, nullptr);
  }
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);
  return -1;
}

int guarded_probe() {
  const auto totals = tracemod::perfbench::alloc_reading();
  return totals.allocs >= 1 ? kExitCounted : kExitNotCounted;
}

int raw_probe() {
  (void)tracemod::sim::perf::alloc_totals();
  return 0;
}

}  // namespace

int main() {
  // Both children are forked before this process allocates anything.
  const int raw = run_probe(raw_probe);
  const int guarded = run_probe(guarded_probe);
  std::printf("raw alloc_totals() as first heap activity: %s\n",
              raw == -1 ? "deadlocks (known src/ defect)" : "returns");
  if (guarded == kExitCounted) {
    std::printf("alloc_reading() as first heap activity: ok\n");
    return 0;
  }
  std::printf("alloc_reading() as first heap activity: FAILED (%s)\n",
              guarded == -1 ? "deadlock" : "priming allocation not counted");
  return 1;
}
