// The operator-new/delete interposer behind sim/perf/alloc_telemetry.hpp.
//
// This translation unit replaces the global allocation functions for any
// binary that links it (see ensure_alloc_interposer).  Each thread owns a
// counter block of relaxed atomics; blocks are registered once under a
// mutex and never freed (they stay reachable through the registry, so
// LeakSanitizer does not flag them and snapshots never race a dying
// thread's storage).  A thread-local recursion flag keeps the registry's
// own allocations out of the counts, and a thread-local suspension depth
// lets the profiler exclude its bookkeeping.
#include "sim/perf/alloc_telemetry.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace tracemod::sim::perf {
namespace {

struct ThreadBlock {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};
  std::atomic<std::uint64_t> bytes_allocated{0};
  std::atomic<std::uint64_t> bytes_freed{0};
};

// POD thread-locals only: no dynamic initialization, no destructors, so
// the hooks are safe during process startup and thread teardown.
thread_local ThreadBlock* t_block = nullptr;
thread_local bool t_in_hook = false;
thread_local int t_suspend = 0;

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

// Heap-allocated and reachable through a static pointer for the life of
// the process: blocks survive their thread, and LSan sees them as live.
// The first-use `new` runs inside the hook flag, so it is never counted
// and never re-enters block_for_thread(), which takes registry_mutex():
// registry() is safe to call with that mutex held, whoever calls first.
std::vector<ThreadBlock*>& registry() {
  static std::vector<ThreadBlock*>* r = [] {
    const bool was_in_hook = t_in_hook;
    t_in_hook = true;
    auto* fresh = new std::vector<ThreadBlock*>();
    t_in_hook = was_in_hook;
    return fresh;
  }();
  return *r;
}

ThreadBlock* block_for_thread() {
  if (t_block == nullptr) {
    t_in_hook = true;
    void* raw = std::malloc(sizeof(ThreadBlock));
    if (raw == nullptr) {
      t_in_hook = false;
      return nullptr;  // never fail an allocation because of bookkeeping
    }
    auto* b = new (raw) ThreadBlock();
    {
      std::lock_guard<std::mutex> lock(registry_mutex());
      registry().push_back(b);
    }
    t_block = b;
    t_in_hook = false;
  }
  return t_block;
}

std::size_t usable_size(void* p, std::size_t fallback) {
#if defined(__GLIBC__)
  const std::size_t u = ::malloc_usable_size(p);
  return u != 0 ? u : fallback;
#else
  (void)p;
  return fallback;
#endif
}

void note_alloc(std::size_t bytes) {
  if (t_in_hook || t_suspend > 0) return;
  ThreadBlock* b = block_for_thread();
  if (b == nullptr) return;
  b->allocs.fetch_add(1, std::memory_order_relaxed);
  b->bytes_allocated.fetch_add(bytes, std::memory_order_relaxed);
}

void note_free(std::size_t bytes) {
  if (t_in_hook || t_suspend > 0) return;
  ThreadBlock* b = block_for_thread();
  if (b == nullptr) return;
  b->frees.fetch_add(1, std::memory_order_relaxed);
  b->bytes_freed.fetch_add(bytes, std::memory_order_relaxed);
}

void* allocate(std::size_t size, std::size_t align, bool nothrow) {
  if (size == 0) size = 1;
  for (;;) {
    void* p = nullptr;
    if (align <= alignof(std::max_align_t)) {
      p = std::malloc(size);
    } else if (::posix_memalign(&p, align, size) != 0) {
      p = nullptr;
    }
    if (p != nullptr) {
      note_alloc(usable_size(p, size));
      return p;
    }
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) {
      if (nothrow) return nullptr;
      throw std::bad_alloc();
    }
    handler();
  }
}

void deallocate(void* p, std::size_t size_hint) noexcept {
  if (p == nullptr) return;
  note_free(usable_size(p, size_hint));
  std::free(p);
}

}  // namespace

bool alloc_interposer_active() { return true; }

AllocTotals alloc_totals() {
  AllocTotals out;
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (const ThreadBlock* b : registry()) {
    out.allocs += b->allocs.load(std::memory_order_relaxed);
    out.frees += b->frees.load(std::memory_order_relaxed);
    out.bytes_allocated += b->bytes_allocated.load(std::memory_order_relaxed);
    out.bytes_freed += b->bytes_freed.load(std::memory_order_relaxed);
  }
  return out;
}

AllocTotals thread_alloc_totals() {
  AllocTotals out;
  const ThreadBlock* b = t_block;
  if (b == nullptr) return out;
  out.allocs = b->allocs.load(std::memory_order_relaxed);
  out.frees = b->frees.load(std::memory_order_relaxed);
  out.bytes_allocated = b->bytes_allocated.load(std::memory_order_relaxed);
  out.bytes_freed = b->bytes_freed.load(std::memory_order_relaxed);
  return out;
}

void ensure_alloc_interposer() {
  // Touching any symbol in this TU pulls the object file -- and with it
  // the replaced operator new/delete below -- out of the static archive.
}

AllocSuspendGuard::AllocSuspendGuard() { ++t_suspend; }
AllocSuspendGuard::~AllocSuspendGuard() { --t_suspend; }

}  // namespace tracemod::sim::perf

// --- replaced global allocation functions ---------------------------------
//
// Counting only: the underlying storage comes from malloc/posix_memalign,
// failure raises bad_alloc through the standard new-handler loop, and the
// nothrow forms return nullptr, exactly like the defaults.

namespace {
constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);
}

void* operator new(std::size_t size) {
  return tracemod::sim::perf::allocate(size, kDefaultAlign, false);
}
void* operator new[](std::size_t size) {
  return tracemod::sim::perf::allocate(size, kDefaultAlign, false);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return tracemod::sim::perf::allocate(size, kDefaultAlign, true);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return tracemod::sim::perf::allocate(size, kDefaultAlign, true);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return tracemod::sim::perf::allocate(
      size, static_cast<std::size_t>(align), false);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return tracemod::sim::perf::allocate(
      size, static_cast<std::size_t>(align), false);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return tracemod::sim::perf::allocate(
        size, static_cast<std::size_t>(align), true);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return tracemod::sim::perf::allocate(
        size, static_cast<std::size_t>(align), true);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept {
  tracemod::sim::perf::deallocate(p, 0);
}
void operator delete[](void* p) noexcept {
  tracemod::sim::perf::deallocate(p, 0);
}
void operator delete(void* p, std::size_t size) noexcept {
  tracemod::sim::perf::deallocate(p, size);
}
void operator delete[](void* p, std::size_t size) noexcept {
  tracemod::sim::perf::deallocate(p, size);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  tracemod::sim::perf::deallocate(p, 0);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  tracemod::sim::perf::deallocate(p, 0);
}
void operator delete(void* p, std::align_val_t) noexcept {
  tracemod::sim::perf::deallocate(p, 0);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  tracemod::sim::perf::deallocate(p, 0);
}
void operator delete(void* p, std::size_t size, std::align_val_t) noexcept {
  tracemod::sim::perf::deallocate(p, size);
}
void operator delete[](void* p, std::size_t size, std::align_val_t) noexcept {
  tracemod::sim::perf::deallocate(p, size);
}
