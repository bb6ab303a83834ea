// Fixed-size worker pool for coarse-grained task parallelism.
//
// Deliberately minimal — no work stealing, no task priorities: the workloads
// this repo parallelizes (per-layer simulations, sweep points) are few and
// large, so a single locked deque is never the bottleneck. Tasks return
// futures; exceptions thrown inside a task propagate to whoever calls
// future::get(), so callers keep ordinary error handling.
//
// Concurrency contract (proved by -DSEALDL_THREAD_SAFETY=ON under Clang —
// every queue/stop access below is compile-checked against mutex_):
//  * submit() is safe from any thread, including from inside a running task.
//  * Destruction drains: every task queued before ~ThreadPool() returns is
//    executed, INCLUDING tasks enqueued by running tasks during shutdown —
//    the worker that ran the enqueuing task re-checks the queue before
//    exiting, so an enqueue chain of any depth is drained and drain-on-
//    destroy cannot deadlock (regression-tested in test_thread_pool).
//  * If the constructor throws (thread spawn failure), the workers already
//    started are stopped and joined before the exception escapes.
//  * A task must not block on the future of a task queued BEHIND it on the
//    same pool (with every worker busy ahead of it, nothing can run it).
//  * Calling submit() from outside the pool once ~ThreadPool() has begun is
//    undefined; tasks still queued when the workers have all exited are
//    destroyed unrun (their futures report broken_promise).
#pragma once

#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace sealdl::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to at least one).
  explicit ThreadPool(int threads);

  /// Completes every queued task, then joins the workers. Tasks must not
  /// reference state that is destroyed before the pool (declare the pool
  /// after whatever its tasks borrow).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `fn` and returns the future for its result. An exception
  /// escaping `fn` is captured and rethrown by future::get().
  template <typename Fn>
  std::future<std::invoke_result_t<Fn&>> submit(Fn fn) SEALDL_EXCLUDES(mutex_) {
    using Result = std::invoke_result_t<Fn&>;
    // shared_ptr because std::function requires copyable callables and
    // packaged_task is move-only.
    auto task = std::make_shared<std::packaged_task<Result()>>(std::move(fn));
    std::future<Result> future = task->get_future();
    {
      MutexLock lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Maps a user-facing --jobs value to a worker count: positive values pass
  /// through, 0 (and negatives) mean one worker per hardware thread.
  static int resolve_jobs(int jobs);

 private:
  void worker_loop() SEALDL_EXCLUDES(mutex_);
  /// Pops the next task; queue must be non-empty.
  std::function<void()> take_task() SEALDL_REQUIRES(mutex_);
  /// Sets the stop flag, wakes everyone and joins. Shared by the destructor
  /// and the constructor's spawn-failure path.
  void shutdown_and_join() SEALDL_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ SEALDL_GUARDED_BY(mutex_);
  bool stop_ SEALDL_GUARDED_BY(mutex_) = false;
};

}  // namespace sealdl::util
