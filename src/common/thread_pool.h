// Minimal fixed-size thread pool.
//
// The paper normalizes all measurements to one CPU but notes that "both
// compression and query execution can easily be parallelized" (§6) and lists
// scale-out as future work (§8); the archive layer uses this pool to fan
// block-level work across cores.
#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace loggrep {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task; tasks may run in any order.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished.
  void Wait();

  size_t size() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::queue<std::function<void()>> tasks_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

// Runs fn(0) .. fn(n - 1) and returns when every call has finished: on a
// pool of min(threads, n) workers built for this call when threads > 1 and
// n > 1, else serially on the calling thread. Calls may run in any order.
void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn);

}  // namespace loggrep

#endif  // SRC_COMMON_THREAD_POOL_H_
