// Safe process-wide allocation readings for the benchmark.
//
// sim::perf::alloc_totals() deadlocks when it is the first counted heap
// activity of the process: it holds the interposer's registry mutex while
// the registry's first-use `new` re-enters the interposer, which locks the
// same mutex to register the calling thread (alloc_telemetry.cpp,
// alloc_totals / block_for_thread).  Until that is fixed in src/, every
// reading the benchmark takes goes through alloc_reading(), which makes one
// real operator new on the calling thread first.  perfbench_selftest pins
// that this holds even as a fresh process's first heap activity.
#pragma once

#include <new>

#include "sim/perf/alloc_telemetry.hpp"

namespace tracemod::perfbench {

inline sim::perf::AllocTotals alloc_reading() {
  // POD thread-local: the priming allocation is made once per thread, so
  // it never lands inside a delta between two readings.
  thread_local bool primed = false;
  if (!primed) {
    // A direct call of the replaceable operator new, which the compiler
    // may not elide the way it may elide a new-expression.
    ::operator delete(::operator new(1));
    primed = true;
  }
  return sim::perf::alloc_totals();
}

}  // namespace tracemod::perfbench
