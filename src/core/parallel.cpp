#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <string>

#include "telemetry/telemetry.hpp"

namespace vn2::core {

// The region in flight. It lives on try_run's stack; the pool publishes a
// pointer to it for the duration. Tasks are claimed by atomic increment,
// so a fast participant takes more tasks than a slow one without any
// rebalancing logic; `stop` short-circuits claims after the first
// exception.
struct ThreadPool::Region {
  std::size_t tasks = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  // The caller's span path: workers adopt it, so spans opened inside fn()
  // attribute to the enclosing call tree instead of showing up as roots.
  std::string span_path;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::size_t seats = 0;   // Workers that may still join (pool mutex).
  std::size_t joined = 0;  // Workers inside work() (pool mutex).
  std::mutex error_mutex;
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
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  }
};

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
  std::uint64_t seen = 0;  // Generation of the last region looked at.
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [&] {
      return stop_ || (region_ != nullptr && generation_ != seen);
    });
    if (stop_) return;
    seen = generation_;
    Region& region = *region_;
    if (region.seats == 0) continue;  // Full, or closed by its caller.
    --region.seats;
    ++region.joined;
    lock.unlock();
    {
      telemetry::SpanPathScope scope(region.span_path);
      region.work();
    }
    lock.lock();
    if (--region.joined == 0) region_done_.notify_one();
  }
}

bool ThreadPool::try_run(std::size_t tasks,
                         const std::function<void(std::size_t)>& fn) {
  if (tasks == 0) return true;
  Region region;
  region.tasks = tasks;
  region.fn = &fn;  // Valid: try_run() returns only after workers left.
  const std::size_t seats = std::min(workers_.size(), tasks - 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (region_ != nullptr) return false;
    if (seats > 0) region.span_path = telemetry::current_span_path();
    region.seats = seats;
    region_ = &region;
    ++generation_;
  }
  for (std::size_t i = 0; i < seats; ++i) work_ready_.notify_one();

  region.work();  // The caller is a full participant.

  {
    // Close the region to late joiners and wait for the workers inside. It
    // stays in flight until they left, so their nested regions run inline.
    std::unique_lock<std::mutex> lock(mutex_);
    region.seats = 0;
    region_done_.wait(lock, [&] { return region.joined == 0; });
    region_ = nullptr;
  }
  if (region.error) std::rethrow_exception(region.error);
  return true;
}

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
  if (n > 1 && num_threads() > 1 &&
      global_pool().try_run(n, [&](std::size_t task) { fn(begin + task); })) {
    VN2_COUNT("parallel.regions");
    VN2_COUNT_N("parallel.tasks", n);
    return;
  }
  // A single index, a serial budget, or a region already in flight.
  VN2_COUNT("parallel.regions_inline");
  VN2_COUNT_N("parallel.tasks", 1);
  for (std::size_t i = begin; i < end; ++i) fn(i);
}

}  // namespace vn2::core
