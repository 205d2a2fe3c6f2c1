// Test/bench-only heap-allocation counter.
//
// When a binary is compiled with -DHIGHRPM_ALLOC_TRACE, this header
// replaces the global allocation functions with counting wrappers around
// std::malloc. Counting is gated per thread: operator new increments the
// process-wide counter only while the *calling* thread is armed, so a
// multi-threaded bench can meter exactly the code regions it brackets with
// arm()/disarm() (or the RAII Armed guard) without seeing allocations from
// unrelated worker threads.
//
// Replacement allocation functions must not be inline (that would be UB),
// so include this header in EXACTLY ONE translation unit per binary — the
// bench or test main file. Without HIGHRPM_ALLOC_TRACE the header collapses
// to constant no-ops and defines nothing global, making it safe to leave
// the instrumentation calls in place unconditionally.
//
// This is the enforcement hook behind the zero-allocation steady-state
// contract: after warm-up, the DynamicTRR and SRR predict paths perform no
// heap allocations per tick (tests/perf/alloc_regression_test.cpp and
// tests/serve/serve_alloc_test.cpp assert a delta of zero; bench_e2e
// reports serve.allocs_per_tick).
#pragma once

#include <atomic>
#include <cstdint>

namespace highrpm::alloctrace {

#ifdef HIGHRPM_ALLOC_TRACE

namespace detail {
inline std::atomic<std::uint64_t> g_allocs{0};
// Trivially-initialized thread_local: safe to touch from inside operator
// new (no dynamic TLS construction, hence no recursion).
inline thread_local bool t_armed = false;
}  // namespace detail

/// True when the binary was built with the counting hook compiled in.
constexpr bool available() noexcept { return true; }

/// Start / stop counting on the calling thread.
inline void arm() noexcept { detail::t_armed = true; }
inline void disarm() noexcept { detail::t_armed = false; }

/// Process-wide count of armed-thread allocations since process start.
inline std::uint64_t count() noexcept {
  return detail::g_allocs.load(std::memory_order_relaxed);
}

#else  // !HIGHRPM_ALLOC_TRACE

constexpr bool available() noexcept { return false; }
inline void arm() noexcept {}
inline void disarm() noexcept {}
inline std::uint64_t count() noexcept { return 0; }

#endif  // HIGHRPM_ALLOC_TRACE

/// RAII arming guard for one metered region on the current thread.
class Armed {
 public:
  Armed() noexcept { arm(); }
  ~Armed() { disarm(); }
  Armed(const Armed&) = delete;
  Armed& operator=(const Armed&) = delete;
};

}  // namespace highrpm::alloctrace

#ifdef HIGHRPM_ALLOC_TRACE

#include <cstdlib>
#include <new>

namespace highrpm::alloctrace::detail {
inline void* counted_alloc(std::size_t n) {
  if (t_armed) g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
inline void* counted_alloc(std::size_t n, std::align_val_t al) {
  if (t_armed) g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (n == 0) n = 1;
  // aligned_alloc requires the size to be a multiple of the alignment.
  n = (n + a - 1) / a * a;
  void* p = std::aligned_alloc(a, n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace highrpm::alloctrace::detail

// Replacement global allocation functions (deliberately not inline; this
// header must be included in exactly one TU of the binary).
void* operator new(std::size_t n) {
  return highrpm::alloctrace::detail::counted_alloc(n);
}
void* operator new[](std::size_t n) {
  return highrpm::alloctrace::detail::counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return highrpm::alloctrace::detail::counted_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return highrpm::alloctrace::detail::counted_alloc(n, al);
}
// The nothrow forms must be replaced too: libstdc++'s temporary buffers
// (std::stable_sort) allocate through operator new(nothrow) and free
// through plain operator delete — replacing only one side pairs the
// default allocator with std::free (an alloc/dealloc mismatch ASan
// rightly aborts on).
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return highrpm::alloctrace::detail::counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return highrpm::alloctrace::detail::counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  try {
    return highrpm::alloctrace::detail::counted_alloc(n, al);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  try {
    return highrpm::alloctrace::detail::counted_alloc(n, al);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // HIGHRPM_ALLOC_TRACE
