#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "common/check.hpp"

namespace daop {

namespace {

// The pool whose worker_loop() the current thread is running, if any.
thread_local const ThreadPool* tl_owner = nullptr;

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  // With one worker requested we run everything inline in parallel_for and
  // never spawn a thread at all.
  if (threads == 1) return;
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

struct ThreadPool::Batch {
  Batch(const std::function<void(std::int64_t)>& f, std::int64_t chunks)
      : fn(f), remaining(chunks) {}

  const std::function<void(std::int64_t)>& fn;
  std::mutex mu;
  std::condition_variable done;
  std::int64_t remaining;          // chunks not yet finished, under mu
  std::exception_ptr first_error;  // under mu
};

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ && workers_.empty()) return;  // already shut down
    stop_ = true;
    // Queued-but-unstarted chunks are dropped, not run: at shutdown time
    // their batches may reference objects that are about to be destroyed.
    queue_.clear();
    head_ = 0;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ThreadPool::worker_loop() {
  tl_owner = this;
  for (;;) {
    Chunk chunk;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || head_ < queue_.size(); });
      if (stop_ && head_ == queue_.size()) return;
      chunk = queue_[head_++];
      // Drop the consumed prefix once it is half the queue: the rest moves
      // down in place, and a drained queue keeps its storage.
      if (head_ * 2 >= queue_.size()) {
        queue_.erase(queue_.begin(),
                     queue_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    }
    run(chunk);
  }
}

void ThreadPool::run(const Chunk& chunk) {
  Batch& batch = *chunk.batch;
  std::exception_ptr error;
  try {
    for (std::int64_t i = chunk.begin; i < chunk.end; ++i) batch.fn(i);
  } catch (...) {
    error = std::current_exception();
  }
  // The caller returns (destroying the batch) only once it holds mu and
  // sees remaining == 0, so nothing touches the batch after this unlock.
  std::lock_guard<std::mutex> lock(batch.mu);
  if (error && !batch.first_error) batch.first_error = error;
  if (--batch.remaining == 0) batch.done.notify_all();
}

void ThreadPool::parallel_for(std::int64_t n,
                              const std::function<void(std::int64_t)>& fn) {
  if (n <= 0) return;
  // A call from one of our own workers runs inline: queueing the chunks and
  // blocking here would deadlock once every worker waits on its own chunks.
  if (workers_.empty() || n == 1 || tl_owner == this) {
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }

  const std::int64_t chunks =
      std::min<std::int64_t>(n, static_cast<std::int64_t>(workers_.size()) * 4);
  const std::int64_t chunk_size = (n + chunks - 1) / chunks;

  Batch batch(fn, chunks);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::int64_t c = 0; c < chunks; ++c) {
      const std::int64_t begin = c * chunk_size;
      queue_.push_back({&batch, begin, std::min(n, begin + chunk_size)});
    }
  }
  cv_.notify_all();

  std::unique_lock<std::mutex> lock(batch.mu);
  batch.done.wait(lock, [&] { return batch.remaining == 0; });
  if (batch.first_error) std::rethrow_exception(batch.first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace daop
