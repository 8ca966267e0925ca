#ifndef ROFS_RUNNER_THREAD_POOL_H_
#define ROFS_RUNNER_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rofs::runner {

/// A fixed-size pool of worker threads draining a FIFO work queue.
///
/// Tasks are opaque `void()` callables; anything a task can throw must be
/// caught inside the task itself (SweepRunner wraps simulation runs so
/// exceptions become `Status` values rather than pool teardown).
///
/// Shutdown is graceful: already-queued tasks are drained, then every
/// worker is joined. Submitting after Shutdown() is a programming error.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least one).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker thread.
  void Submit(std::function<void()> task);

  /// Drains the queue and joins all workers. Idempotent; invoked by the
  /// destructor.
  void Shutdown();

  int num_threads() const { return num_threads_; }

  /// Tasks currently waiting in the queue (excludes running tasks).
  size_t QueueDepth() const;

 private:
  void WorkerLoop();

  int num_threads_ = 0;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace rofs::runner

#endif  // ROFS_RUNNER_THREAD_POOL_H_
