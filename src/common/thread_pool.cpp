#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/check.hpp"

namespace daop {

namespace {

// The pool the current thread works for: set for good on a pool's workers,
// and on a parallel_for caller while it runs chunks of that pool's batch.
thread_local const ThreadPool* tl_owner = nullptr;

// Chunks per participating thread. Claiming a chunk is one atomic
// increment, so chunks can be small; several per thread let a thread that
// finishes early take over work a slower one has not reached.
constexpr std::int64_t kChunksPerThread = 4;

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  // With one worker requested we run everything inline in parallel_for and
  // never spawn a thread at all.
  if (threads == 1) return;
  n_workers_ = threads;
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

struct ThreadPool::Batch {
  Batch(const std::function<void(std::int64_t)>& f, std::int64_t n_in,
        std::int64_t chunk_size_in)
      : fn(f),
        n(n_in),
        chunk_size(chunk_size_in),
        chunks((n_in + chunk_size_in - 1) / chunk_size_in) {}

  const std::function<void(std::int64_t)>& fn;
  const std::int64_t n;
  const std::int64_t chunk_size;
  const std::int64_t chunks;
  std::atomic<std::int64_t> next{0};  // the next chunk to claim
  // Under the pool's mu_:
  unsigned tickets = 0;  // helpers still wanted; > 0 only while queued
  unsigned active = 0;   // workers that took a ticket and have not left
  std::exception_ptr first_error;
  std::condition_variable done;  // signalled when active drops to 0
};

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ && workers_.empty()) return;  // already shut down
    stop_ = true;
    // Unclaimed helper tickets are withdrawn; each caller finishes its own
    // batch, and workers already inside one finish before they are joined.
    for (Batch* b : queue_) b->tickets = 0;
    queue_.clear();
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ThreadPool::worker_loop() {
  tl_owner = this;
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping
      batch = queue_.front();
      ++batch->active;
      if (--batch->tickets == 0) queue_.erase(queue_.begin());
    }
    work(*batch);
    // The caller returns (destroying the batch) only once it holds mu_ and
    // sees active == 0, so nothing touches the batch after this unlock.
    std::lock_guard<std::mutex> lock(mu_);
    if (--batch->active == 0) batch->done.notify_one();
  }
}

void ThreadPool::work(Batch& batch) {
  for (;;) {
    const std::int64_t c = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= batch.chunks) return;
    const std::int64_t end = std::min(batch.n, (c + 1) * batch.chunk_size);
    try {
      for (std::int64_t i = c * batch.chunk_size; i < end; ++i) batch.fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!batch.first_error) batch.first_error = std::current_exception();
    }
  }
}

void ThreadPool::parallel_for(std::int64_t n,
                              const std::function<void(std::int64_t)>& fn) {
  if (n <= 0) return;
  // A call from a thread already working for this pool runs inline: every
  // other participant may be busy with the outer call's chunks.
  if (n_workers_ == 0 || n == 1 || tl_owner == this) {
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // The caller and up to every worker: the caller is often the one thread
  // with serial work between calls, so the workers alone fill the machine
  // while it does that work.
  const std::int64_t threads =
      std::min<std::int64_t>(n, static_cast<std::int64_t>(n_workers_) + 1);
  const std::int64_t want =
      std::min<std::int64_t>(n, threads * kChunksPerThread);
  Batch batch(fn, n, (n + want - 1) / want);
  const auto helpers = static_cast<unsigned>(
      std::min<std::int64_t>(threads, batch.chunks) - 1);
  bool queued = false;
  if (helpers > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stop_) {
      batch.tickets = helpers;
      queue_.push_back(&batch);
      queued = true;
    }
  }
  if (queued) {
    for (unsigned h = 0; h < helpers; ++h) cv_.notify_one();
  }

  {
    // While it runs chunks the caller counts as one of this pool's
    // threads, so a nested call from them runs inline too.
    const ThreadPool* const outer = tl_owner;
    tl_owner = this;
    work(batch);
    tl_owner = outer;
  }

  std::unique_lock<std::mutex> lock(mu_);
  if (batch.tickets > 0) {  // nobody took them: withdraw before leaving
    std::erase(queue_, &batch);
    batch.tickets = 0;
  }
  batch.done.wait(lock, [&] { return batch.active == 0; });
  if (batch.first_error) std::rethrow_exception(batch.first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace daop
