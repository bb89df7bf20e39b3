// A small fixed-size worker pool with a blocking parallel-for.
//
// Built for the compressor's and the store's fan-outs (chunked partitioning,
// batch queries), so dispatch is cheap — one mutex round-trip to publish
// the job, lock-free index claiming while it runs, and one notification
// round when the job drains. The calling thread
// participates in the work, so a pool constructed with `num_threads` spawns
// `num_threads - 1` workers and ParallelFor never deadlocks even on a pool
// of one.
//
// Indices are claimed one at a time from an atomic counter (work stealing),
// which load-balances heterogeneous per-index costs (chunk partitions,
// per-shard decodes) without any up-front splitting. Bodies must not throw.
//
// Besides the blocking ParallelFor, the pool runs fire-and-forget tasks
// (Submit/DrainTasks): the store's background shard sealer hands whole
// chunks to the pool and only synchronizes at Flush time. Both kinds of
// work share the same workers.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace neats {

/// Resolves a num_threads option: values >= 1 are taken as-is, 0 means "one
/// per hardware thread" (at least 1).
inline int ResolveNumThreads(int num_threads) {
  if (num_threads >= 1) return num_threads;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Fixed pool of worker threads executing ParallelFor jobs.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads) {
    int n = ResolveNumThreads(num_threads);
    workers_.reserve(static_cast<size_t>(n - 1));
    for (int i = 1; i < n; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  /// Total threads working on a job (workers + the calling thread).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs body(i) for every i in [0, count). Blocks until all indices are
  /// done; the calling thread works too. Not reentrant from inside a body.
  void ParallelFor(size_t count, const std::function<void(size_t)>& body) {
    if (count == 0) return;
    if (workers_.empty() || count == 1) {
      for (size_t i = 0; i < count; ++i) body(i);
      return;
    }
    Job job;
    job.body = &body;
    job.count = count;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &job;
      ++job_seq_;
    }
    wake_cv_.notify_all();
    RunJob(&job);
    // The job (a stack object) may only die once every worker that grabbed
    // its pointer has left RunJob: workers_inside is mutated under the mutex
    // exactly for this lifetime handshake.
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return job.workers_inside == 0 &&
             job.done.load(std::memory_order_acquire) == job.count;
    });
    job_ = nullptr;
  }

  /// Enqueues `task` to run asynchronously on a worker thread (FIFO order
  /// across Submit calls; tasks may interleave with ParallelFor jobs). On a
  /// pool with no workers the task runs inline before Submit returns, so
  /// callers get the same completion guarantees either way. Tasks must not
  /// throw. Drain with DrainTasks() before destroying the pool — workers
  /// shut down without running tasks still queued.
  void Submit(std::function<void()> task) {
    if (workers_.empty()) {
      task();
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++tasks_outstanding_;
      tasks_.push_back(std::move(task));
    }
    wake_cv_.notify_one();
    // Wake DrainTasks sleepers too: their wait predicate includes
    // "queue non-empty" precisely so they can help with tasks submitted
    // while they slept (e.g. a task that submits a follow-up task).
    done_cv_.notify_all();
  }

  /// Blocks until every task submitted so far has finished. The calling
  /// thread helps drain the queue, so DrainTasks makes progress even while
  /// all workers are busy inside long-running tasks.
  void DrainTasks() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      if (!tasks_.empty()) {
        RunOneQueuedTask(lock);
        continue;
      }
      if (tasks_outstanding_ == 0) return;
      done_cv_.wait(lock,
                    [&] { return tasks_outstanding_ == 0 || !tasks_.empty(); });
    }
  }

 private:
  struct Job {
    const std::function<void(size_t)>* body = nullptr;
    size_t count = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    int workers_inside = 0;  // guarded by ThreadPool::mutex_
  };

  void RunJob(Job* job) {
    size_t i;
    while ((i = job->next.fetch_add(1, std::memory_order_relaxed)) <
           job->count) {
      (*job->body)(i);
      job->done.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  /// Pops and runs the front queued task, releasing `lock` (which must be
  /// held) around the run and notifying drainers when the count hits zero.
  /// Precondition: !tasks_.empty(). Shared by WorkerLoop and DrainTasks so
  /// the task accounting lives in exactly one place.
  void RunOneQueuedTask(std::unique_lock<std::mutex>& lock) {
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    task();
    lock.lock();
    if (--tasks_outstanding_ == 0) done_cv_.notify_all();
  }

  void WorkerLoop() {
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      wake_cv_.wait(lock, [&] {
        return stop_ || job_seq_ != seen || !tasks_.empty();
      });
      if (stop_) return;
      if (!tasks_.empty()) {
        RunOneQueuedTask(lock);
        continue;
      }
      seen = job_seq_;
      Job* job = job_;
      if (job == nullptr) continue;  // raced with job completion
      ++job->workers_inside;
      lock.unlock();
      RunJob(job);
      lock.lock();
      if (--job->workers_inside == 0) done_cv_.notify_all();
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::deque<std::function<void()>> tasks_;  // async Submit queue
  size_t tasks_outstanding_ = 0;             // queued + running tasks
  Job* job_ = nullptr;
  uint64_t job_seq_ = 0;
  bool stop_ = false;
};

}  // namespace neats
