// Deterministic data-parallel loops over the process-wide thread pool.
//
// The contract that keeps every caller bit-reproducible: fn(i) must depend
// only on i and on state that is constant for the duration of the loop, and
// must write only to slots owned by i. Under that contract the result is
// identical for every thread count (scheduling only changes *when* an index
// runs, never *what* it computes), so serial (HIGHRPM_THREADS=1) and
// parallel runs produce the same bytes.
//
// Nested use — calling parallel_for from inside a task that is itself
// running on the pool — executes the inner loop serially on the calling
// worker. That keeps layered parallelism (bench harness -> fold loop ->
// RandomForest::fit) correct without deadlocks or oversubscription.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "highrpm/runtime/thread_pool.hpp"

namespace highrpm::runtime {

/// Invoke fn(i) for every i in [0, n). Blocks until done; rethrows the
/// lowest-index exception if any invocation throws.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn) {
  if (n == 0) return;
  ThreadPool& pool = global_pool();
  if (n == 1 || pool.size() == 1 || ThreadPool::in_worker()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Chunk to amortize the per-task atomic claim; chunk boundaries are a
  // pure function of (n, chunks), so they do not affect results.
  const std::size_t chunks = std::min(n, pool.size() * 8);
  const std::function<void(std::size_t)> task = [&](std::size_t c) {
    const std::size_t begin = c * n / chunks;
    const std::size_t end = (c + 1) * n / chunks;
    for (std::size_t i = begin; i < end; ++i) fn(i);
  };
  pool.run(chunks, task);
}

/// Split [0, n) into one contiguous slice per pool thread (fewer when n is
/// smaller) and invoke fn(begin, end) for each, so per-task set-up such as
/// a scratch buffer is paid once per thread, not once per index. Slice
/// bounds follow the pool size: under the contract above, what fn computes
/// for an index must not depend on where its slice starts.
template <typename Fn>
void parallel_for_slices(std::size_t n, Fn&& fn) {
  const std::size_t slices = std::min(n, global_pool().size());
  parallel_for(slices, [&](std::size_t s) {
    fn(s * n / slices, (s + 1) * n / slices);
  });
}

/// Collect fn(i) for every i in [0, n) into a vector ordered by index —
/// output order never depends on scheduling. The result type must be
/// default-constructible and movable.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
  using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<R> out(n);
  parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace highrpm::runtime
