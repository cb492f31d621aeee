// Minimal fixed-size thread pool with a parallel_for helper.
//
// Used by the tensor library to parallelize GEMM row blocks, by the
// functional model for per-expert execution, by trace generation and
// calibration to build sequences concurrently, and by TraceGenerator to
// build one trace's layers concurrently. The pool degrades gracefully to
// inline execution when constructed with a single worker (the common case on
// small CI machines), so results never depend on thread count.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace daop {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Runs fn(i) for i in [0, n) across the pool and blocks until all
  /// iterations finish (n <= 0 is a no-op). Iterations are chunked to limit
  /// dispatch overhead. Exceptions thrown by fn are rethrown (first one
  /// wins) on the caller; the pool stays usable afterwards. Re-entrant: a
  /// call made from one of this pool's own workers (a nested parallel_for)
  /// runs inline on that worker, so library code may use the pool without
  /// knowing whether its caller already does. Allocates nothing itself once
  /// the queue has grown to its high-water mark; a caller that passes a
  /// prebuilt std::function makes calls whose heap use does not depend on
  /// how many it makes.
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t)>& fn);

  /// Joins all workers and drops queued-but-unstarted tasks. Idempotent;
  /// parallel_for afterwards runs inline on the caller. Exists for lifetime
  /// hygiene: the global() pool's destructor runs during static teardown in
  /// an unspecified order relative to other function-local statics (metric
  /// registries, tag pools), so anything with an exit-time destructor that
  /// touches the pool must call shutdown() first instead of relying on
  /// destruction order.
  void shutdown();

  /// Process-wide shared pool (lazily constructed). Worker threads must
  /// never be assumed alive during static destruction — see shutdown().
  static ThreadPool& global();

 private:
  /// One parallel_for call's shared state, on the caller's stack.
  struct Batch;
  /// Iterations [begin, end) of one batch.
  struct Chunk {
    Batch* batch = nullptr;
    std::int64_t begin = 0;
    std::int64_t end = 0;
  };

  void worker_loop();
  static void run(const Chunk& chunk);

  std::vector<std::thread> workers_;
  // Queued chunks, oldest at head_. Plain descriptors in storage that is
  // kept (and compacted in place) as it drains, so queueing never
  // allocates once the vector has grown.
  std::vector<Chunk> queue_;
  std::size_t head_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace daop
