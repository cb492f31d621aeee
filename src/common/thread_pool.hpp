// Minimal fixed-size thread pool with a parallel_for helper.
//
// Used by trace generation, calibration and the evaluation sweeps to work
// on sequences (or sweep cells) concurrently, and by TraceGenerator to build
// one trace's layers concurrently. The pool degrades gracefully to inline
// execution when constructed with a single worker (the common case on small
// CI machines), so results never depend on thread count.
//
// Dispatch. A parallel_for call keeps its state (the function, a chunk
// cursor, the count of helpers inside) on the caller's stack. The caller
// queues that batch with one helper ticket per worker it wants, then claims
// chunks from the cursor itself; a worker that takes a ticket claims from
// the same cursor until it runs dry. Nothing per chunk is queued, so no
// empty chunk is ever dispatched, and a batch needs no worker at all to
// finish: the caller runs whatever nobody else claimed. Before it waits for
// the helpers inside to leave, the caller withdraws its unclaimed tickets
// under the pool lock, so no worker reaches the batch after it returns.
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

  /// Runs fn(i) for i in [0, n) on the calling thread and up to size()
  /// workers, and blocks until all iterations finish (n <= 0 is a no-op).
  /// It always returns: the caller runs every chunk no worker claimed, so a
  /// shutdown() from another thread during the call (which withdraws the
  /// helper tickets) still leaves every iteration run exactly once.
  /// Iterations are chunked to limit dispatch overhead. Exceptions thrown
  /// by fn are rethrown (first one wins) on the caller; the pool stays
  /// usable afterwards. Re-entrant: a call made from a thread working for
  /// this pool (one of its workers, or a caller while it runs chunks) runs
  /// inline on that thread, so library code may use the pool without
  /// knowing whether its caller already does. Allocates nothing itself once
  /// the queue has grown to its high-water mark (one entry per concurrent
  /// outside caller); a caller that passes a prebuilt std::function makes
  /// calls whose heap use does not depend on how many it makes.
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t)>& fn);

  /// Joins all workers and withdraws the helper tickets not yet taken;
  /// each parallel_for in flight still finishes on its own caller.
  /// Idempotent; parallel_for afterwards runs inline on the caller. Exists
  /// for lifetime hygiene: the global() pool's destructor runs during
  /// static teardown in an unspecified order relative to other
  /// function-local statics (metric registries, tag pools), so anything
  /// with an exit-time destructor that touches the pool must call
  /// shutdown() first instead of relying on destruction order.
  void shutdown();

  /// Process-wide shared pool (lazily constructed). Worker threads must
  /// never be assumed alive during static destruction — see shutdown().
  static ThreadPool& global();

 private:
  /// One parallel_for call's shared state, on the caller's stack.
  struct Batch;

  void worker_loop();
  /// Claims and runs chunks of `batch` until its cursor runs dry.
  void work(Batch& batch);

  // Fixed at construction (0 runs inline), so parallel_for reads it without
  // the lock while a shutdown() on another thread empties workers_.
  unsigned n_workers_ = 0;
  std::vector<std::thread> workers_;
  // Batches with helper tickets left, oldest first. The vector keeps its
  // storage as entries leave, so queueing never allocates once it has
  // grown.
  std::vector<Batch*> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace daop
