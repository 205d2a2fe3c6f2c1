// obs::Span tests: RAII recording, nesting depth, the runtime disable
// switch, and thread-pool awareness (each pool worker keeps its own span
// stack).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "highrpm/obs/registry.hpp"
#include "highrpm/obs/span.hpp"
#include "highrpm/runtime/thread_pool.hpp"

namespace highrpm::obs {
namespace {

#if HIGHRPM_OBS_ENABLED

class SpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = Registry::instance().enabled();
    Registry::instance().set_enabled(true);
  }
  void TearDown() override {
    Registry::instance().set_enabled(was_enabled_);
  }
  bool was_enabled_ = true;
};

TEST_F(SpanTest, RecordsIntoHistogramOnDestruction) {
  Histogram& h = Registry::instance().histogram("test.span.record");
  const std::uint64_t before = h.count();
  {
    const Span span(h);
    EXPECT_TRUE(span.active());
  }
  EXPECT_EQ(h.count(), before + 1);
}

TEST_F(SpanTest, NestingTracksDepthPerScope) {
  Histogram& h = Registry::instance().histogram("test.span.nest");
  EXPECT_EQ(Span::depth(), 0u);
  {
    const Span outer(h);
    EXPECT_EQ(Span::depth(), 1u);
    {
      const Span inner(h);
      EXPECT_EQ(Span::depth(), 2u);
    }
    EXPECT_EQ(Span::depth(), 1u);
  }
  EXPECT_EQ(Span::depth(), 0u);
}

TEST_F(SpanTest, DisabledRegistryMakesSpansFree) {
  Registry::instance().set_enabled(false);
  Histogram& h = Registry::instance().histogram("test.span.disabled");
  const std::uint64_t before = h.count();
  {
    const Span span(h);
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.elapsed_ns(), 0u);
    EXPECT_EQ(Span::depth(), 0u);  // inactive spans don't nest
  }
  EXPECT_EQ(h.count(), before);  // nothing recorded
}

TEST_F(SpanTest, NameLookupFormRecordsToo) {
  {
    const Span span("test.span.by_name");
    EXPECT_TRUE(span.active());
  }
  EXPECT_EQ(
      Registry::instance().histogram("test.span.by_name").count(), 1u);
}

// Span-stack contract of the pool: ThreadPool::run opens its job span
// (runtime.pool.job_ns) on the calling thread and keeps it open while the
// caller works on the job alongside the workers, so a task the caller runs
// nests under that job span — its caller-side depth is the caller's own
// spans plus one. A pool worker starts every task on its own empty stack.
// Either way a task never observes another thread's spans.

/// Run `tasks` tasks on a 4-thread pool under one open caller span and
/// count the tasks whose entry depth breaks the contract; `on_caller` and
/// `on_worker` are called on entry to each task on either kind of thread.
template <typename OnCaller, typename OnWorker>
std::size_t bad_task_depths(std::size_t tasks, OnCaller on_caller,
                            OnWorker on_worker) {
  Histogram& h = Registry::instance().histogram("test.span.pool");
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<std::size_t> bad{0};
  runtime::set_thread_count(4);
  {
    const Span outer(h);
    runtime::global_pool().run(tasks, [&](std::size_t) {
      const bool on_caller_thread = std::this_thread::get_id() == caller;
      if (on_caller_thread) {
        on_caller();
      } else {
        on_worker();
      }
      const std::size_t entry_depth = Span::depth();
      // Caller: the outer span, then the pool's job span.
      if (entry_depth != (on_caller_thread ? 2u : 0u)) bad.fetch_add(1);
      const Span task_span(h);
      if (Span::depth() != entry_depth + 1) bad.fetch_add(1);
    });
    if (Span::depth() != 1) bad.fetch_add(1);  // caller's span still open
  }
  runtime::set_thread_count(0);
  if (Span::depth() != 0) bad.fetch_add(1);
  return bad.load();
}

TEST_F(SpanTest, PoolWorkersKeepTheirOwnSpanStacks) {
  EXPECT_EQ(bad_task_depths(64, [] {}, [] {}), 0u);
}

TEST_F(SpanTest, CallerRunTasksNestUnderTheJobSpan) {
  // Deterministic: every worker task waits until the caller has run one, so
  // the caller is sure to run a task (with the 3 workers blocked, the
  // remaining tasks fall to it) and its depth is checked on every run.
  std::latch caller_ran(1);
  std::atomic<bool> released{false};
  std::atomic<std::size_t> caller_tasks{0};
  const std::size_t bad = bad_task_depths(
      8,
      [&] {
        caller_tasks.fetch_add(1);
        if (!released.exchange(true)) caller_ran.count_down();
      },
      [&] { caller_ran.wait(); });
  EXPECT_EQ(bad, 0u);
  EXPECT_GE(caller_tasks.load(), 1u);
}

#endif  // HIGHRPM_OBS_ENABLED

}  // namespace
}  // namespace highrpm::obs
