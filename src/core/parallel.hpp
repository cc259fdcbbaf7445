// Dependency-free parallel execution layer.
//
// A reusable ThreadPool plus a deterministic parallel_for built on
// std::thread — the substrate for the analysis hot paths (row-parallel
// matmul, the rank sweep, batch diagnosis, batch simulation). Design rules:
//
//  * Determinism: parallel_for visits every index of [begin, end) exactly
//    once; callers that write only to index-owned slots (output row i,
//    sweep slot k, ...) produce results bit-identical to the serial loop,
//    at any thread count.
//  * `set_num_threads(1)` (or a single-core machine) reproduces today's
//    serial behaviour exactly: parallel_for degenerates to a plain loop on
//    the calling thread and no pool is ever created.
//  * One region at a time: the pool runs a single parallel region. Any
//    parallel_for issued while a region is in flight runs serially inline
//    on its own caller — whether it comes from a worker's task, from a task
//    the region's caller runs itself, or from an unrelated thread. So the
//    matmuls inside a parallelized rank sweep neither oversubscribe the
//    pool nor wait behind busy workers, and nothing can deadlock it.
//  * Exception safety: the first exception thrown by any task is captured
//    and rethrown on the calling thread after all in-flight tasks drain;
//    the pool itself stays usable.
//
// This header lives in core/ but deliberately depends on nothing else in
// VN2 (it is its own little library, vn2_parallel), so the lower layers
// (linalg, nmf) can use it without a dependency cycle.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vn2::core {

/// A fixed-size pool of worker threads that runs one region at a time. The
/// calling thread always participates in `try_run`, so a pool of W workers
/// gives W + 1 threads of execution.
class ThreadPool {
 public:
  /// Spawns `workers` threads (0 is valid: `try_run` then executes
  /// everything on the calling thread).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (excluding the caller).
  [[nodiscard]] std::size_t workers() const noexcept {
    return workers_.size();
  }

  /// Runs `fn(task)` for every task in [0, tasks), distributing tasks over
  /// the workers and the calling thread; blocks until every task finished
  /// and returns true. Returns false at once, having run nothing, when
  /// another region is in flight on this pool — the caller then runs its
  /// tasks itself. If any task throws, remaining unclaimed tasks are
  /// abandoned and the first exception is rethrown here once in-flight
  /// tasks drain. The pool remains usable afterwards.
  bool try_run(std::size_t tasks, const std::function<void(std::size_t)>& fn);

 private:
  struct Region;

  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  // Signalled when a region is posted, or on stop_.
  std::condition_variable work_ready_;
  // Signalled when the last worker inside a region leaves it.
  std::condition_variable region_done_;
  // The region in flight, on its caller's stack; null when the pool idles.
  Region* region_ = nullptr;
  // Bumped per region, so each worker looks at a region at most once.
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

/// Sets the global thread budget for all VN2 parallel regions. `n` counts
/// total threads of execution (1 = fully serial); 0 resets to
/// `std::thread::hardware_concurrency()`. Call from the main thread outside
/// any parallel region (the CLI does this once at startup from `--threads`).
void set_num_threads(std::size_t n);

/// Current global thread budget (≥ 1).
[[nodiscard]] std::size_t num_threads() noexcept;

/// The process-wide pool backing parallel_for, sized to `num_threads() - 1`
/// workers. Created lazily on first use; resized on the next use after
/// set_num_threads changes the budget.
ThreadPool& global_pool();

/// Calls `fn(i)` for every i in [begin, end) exactly once, one pool task
/// per index; callers that want coarser tasks index chunks of their own.
/// Runs serially inline when the budget is 1, when the range holds a
/// single index, or when the global pool already runs a region.
/// Exceptions from `fn` propagate to the caller.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

}  // namespace vn2::core
