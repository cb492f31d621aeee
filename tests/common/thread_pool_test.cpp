#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace {
std::atomic<long long> g_allocs{0};
}  // namespace

// Counts heap allocations, for the allocation-free dispatch test.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace daop {
namespace {

TEST(ThreadPool, RunsEveryIterationExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0U);  // inline mode spawns no threads
  long long sum = 0;
  pool.parallel_for(100, [&](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ResultIndependentOfThreadCount) {
  auto compute = [](unsigned threads) {
    ThreadPool pool(threads);
    std::vector<double> out(500);
    pool.parallel_for(500, [&](std::int64_t i) {
      out[static_cast<std::size_t>(i)] = static_cast<double>(i) * 1.5;
    });
    return out;
  };
  EXPECT_EQ(compute(1), compute(4));
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::int64_t i) {
                                   if (i == 37) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAfterException) {
  ThreadPool pool(3);
  try {
    pool.parallel_for(10, [](std::int64_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(50, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

TEST(ThreadPool, ManyIterationsFewThreads) {
  ThreadPool pool(2);
  std::atomic<long long> sum{0};
  pool.parallel_for(100000, [&](std::int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 100000LL * 99999 / 2);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // Every worker blocks in the outer call's chunks; the inner calls must run
  // inline on them rather than queue work no free worker could pick up.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(8, [&](std::int64_t i) {
    pool.parallel_for(8, [&](std::int64_t j) {
      hits[static_cast<std::size_t>(i * 8 + j)].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForAllocatesNothingOnceWarm) {
  // Callers such as TraceGenerator issue one call per block of work; their
  // heap use must not grow with the number of calls.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  const std::function<void(std::int64_t)> fn = [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  };
  pool.parallel_for(64, fn);  // grows the queue to its high-water mark
  const long long before = g_allocs.load();
  for (int rep = 0; rep < 50; ++rep) pool.parallel_for(64, fn);
  EXPECT_EQ(g_allocs.load() - before, 0);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 51);
}

TEST(ThreadPool, EmptyAndNegativeRangesAreNoOps) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(0, [&](std::int64_t) { count.fetch_add(1); });
  pool.parallel_for(-5, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPool, ShutdownJoinsWorkersAndIsIdempotent) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.parallel_for(64, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
  pool.shutdown();
  pool.shutdown();  // second call must be a safe no-op
}

TEST(ThreadPool, RunsInlineAfterShutdown) {
  // Lifetime hygiene for ThreadPool::global(): code running during static
  // teardown may still hit the pool after an explicit shutdown(), and must
  // get correct (inline) execution rather than a hang or a crash.
  ThreadPool pool(3);
  pool.shutdown();
  std::atomic<long long> sum{0};
  pool.parallel_for(1000, [&](std::int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 1000LL * 999 / 2);
}

TEST(ThreadPool, PropagatesExceptionsAfterShutdown) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.parallel_for(10,
                                 [&](std::int64_t i) {
                                   if (i == 3) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

}  // namespace
}  // namespace daop
