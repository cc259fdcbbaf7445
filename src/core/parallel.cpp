#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "telemetry/telemetry.hpp"

namespace vn2::core {

namespace {

thread_local bool t_inside_worker = false;

// One parallel region in flight: tasks are claimed by atomic increment, so
// a fast worker takes more chunks than a slow one without any rebalancing
// logic; `stop` short-circuits claims after the first exception.
struct Batch {
  std::size_t tasks = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::mutex mutex;
  std::condition_variable done;
  std::size_t helpers_left = 0;
  std::exception_ptr error;

  // Timing wrapper: one busy-time sample per participant per region, so
  // the spread of parallel.worker_busy_ns is the imbalance signal.
  void work() {
    const std::uint64_t busy_start = VN2_CLOCK_NOW();
    run_tasks();
    if (busy_start != 0) {
      VN2_COUNT("parallel.participants");
      VN2_HISTOGRAM("parallel.worker_busy_ns",
                    telemetry::monotonic_ns() - busy_start);
    }
  }

  void run_tasks() {
    for (;;) {
      if (stop.load(std::memory_order_relaxed)) return;
      const std::size_t task = next.fetch_add(1, std::memory_order_relaxed);
      if (task >= tasks) return;
      try {
        (*fn)(task);
      } catch (...) {
        stop.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
      }
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  t_inside_worker = true;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained.
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void ThreadPool::run(std::size_t tasks,
                     const std::function<void(std::size_t)>& fn) {
  if (tasks == 0) return;

  auto batch = std::make_shared<Batch>();
  batch->tasks = tasks;
  batch->fn = &fn;  // Valid: run() blocks until every helper finished.

  const std::size_t helpers = std::min(workers_.size(), tasks);
  batch->helpers_left = helpers;
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t i = 0; i < helpers; ++i) {
        queue_.emplace_back([batch] {
          batch->work();
          {
            std::lock_guard<std::mutex> batch_lock(batch->mutex);
            --batch->helpers_left;
          }
          batch->done.notify_one();
        });
      }
    }
    work_ready_.notify_all();
  }

  batch->work();  // The caller is a full participant.

  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->done.wait(lock, [&] { return batch->helpers_left == 0; });
  if (batch->error) std::rethrow_exception(batch->error);
}

bool ThreadPool::inside_worker() noexcept { return t_inside_worker; }

namespace {

std::size_t default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::mutex g_pool_mutex;
// Read on every potentially-parallel call site (e.g. each matmul), so it is
// an atomic rather than being guarded by the pool mutex. 0 = not yet
// resolved, use the hardware default.
std::atomic<std::size_t> g_num_threads{0};
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

void set_num_threads(std::size_t n) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  const std::size_t budget = n == 0 ? default_threads() : n;
  g_num_threads.store(budget, std::memory_order_relaxed);
  if (g_pool && g_pool->workers() != budget - 1) g_pool.reset();
}

std::size_t num_threads() noexcept {
  const std::size_t budget = g_num_threads.load(std::memory_order_relaxed);
  return budget == 0 ? default_threads() : budget;
}

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  const std::size_t budget = num_threads();
  if (!g_pool || g_pool->workers() != budget - 1)
    g_pool = std::make_unique<ThreadPool>(budget - 1);
  return *g_pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (n == 1 || num_threads() <= 1 || ThreadPool::inside_worker()) {
    VN2_COUNT("parallel.regions_inline");
    VN2_COUNT_N("parallel.tasks", 1);
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  VN2_COUNT("parallel.regions");
  VN2_COUNT_N("parallel.tasks", n);
  // Workers inherit the submitting thread's span path, so spans opened
  // inside fn() attribute to the enclosing call tree instead of showing
  // up as roots. The submitting thread itself still owns its path, and
  // SpanPathScope refuses the prefix there (its span depth is nonzero).
  const std::string parent_path = telemetry::current_span_path();
  global_pool().run(n, [&](std::size_t task) {
    telemetry::SpanPathScope scope(parent_path);
    fn(begin + task);
  });
}

}  // namespace vn2::core
