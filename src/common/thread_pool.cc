#include "src/common/thread_pool.h"

#include <algorithm>
#include <string>

#include "src/common/trace.h"

namespace loggrep {

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] {
      Tracer::Global().SetCurrentThreadName("pool-worker-" +
                                            std::to_string(i));
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  // Capture the submitting thread's innermost span so spans the task opens
  // on a worker nest under it in exported traces (cross-thread stitching).
  const uint64_t parent = Tracer::CurrentSpanId();
  std::function<void()> wrapped;
  if (parent != 0) {
    wrapped = [parent, task = std::move(task)] {
      const ScopedTraceParent stitch(parent);
      task();
    };
  } else {
    wrapped = std::move(task);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(wrapped));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        return;  // shutdown with a drained queue
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn) {
  if (threads <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  ThreadPool pool(std::min(threads, n));
  for (size_t i = 0; i < n; ++i) {
    pool.Submit([&fn, i] { fn(i); });
  }
  pool.Wait();
}

}  // namespace loggrep
