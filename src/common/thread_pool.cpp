#include "common/thread_pool.hpp"

#include <atomic>
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

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ && workers_.empty()) return;  // already shut down
    stop_ = true;
    // Queued-but-unstarted tasks are dropped, not run: at shutdown time
    // their captures may reference objects that are about to be destroyed.
    while (!tasks_.empty()) tasks_.pop();
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ThreadPool::worker_loop() {
  tl_owner = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
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

  std::atomic<std::int64_t> remaining{chunks};
  std::exception_ptr first_error;
  std::mutex error_mu;
  std::mutex done_mu;
  std::condition_variable done_cv;

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::int64_t c = 0; c < chunks; ++c) {
      const std::int64_t begin = c * chunk_size;
      const std::int64_t end = std::min(n, begin + chunk_size);
      tasks_.emplace([&, begin, end] {
        try {
          for (std::int64_t i = begin; i < end; ++i) fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> elock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
        if (remaining.fetch_sub(1) == 1) {
          std::lock_guard<std::mutex> dlock(done_mu);
          done_cv.notify_all();
        }
      });
    }
  }
  cv_.notify_all();

  std::unique_lock<std::mutex> dlock(done_mu);
  done_cv.wait(dlock, [&] { return remaining.load() == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace daop
