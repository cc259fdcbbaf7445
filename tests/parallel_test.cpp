// The parallel execution layer: index coverage over range sizes and offsets,
// the one-region-at-a-time nesting rule (from workers, from the caller's
// own tasks, and from unrelated threads), bit-identical results across
// thread counts for every parallelized hot path (matmul, rank_sweep,
// diagnose_batch), and clean pool shutdown when a task throws.
#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/inference.hpp"
#include "core/model.hpp"
#include "linalg/matrix.hpp"
#include "linalg/random.hpp"
#include "nmf/rank_selection.hpp"
#include "test_helpers.hpp"

namespace vn2::core {
namespace {

using linalg::Matrix;
using linalg::Vector;

// The thread budget is process-global; restore the default after each test
// so the suites sharing this binary are unaffected.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_num_threads(0); }
};

TEST_F(ParallelTest, SetNumThreadsRoundTrips) {
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3u);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1u);
  set_num_threads(0);  // Reset to hardware default.
  EXPECT_GE(num_threads(), 1u);
}

TEST_F(ParallelTest, CoversEveryIndexExactlyOnceUnderAdversarialGrains) {
  const std::size_t sizes[] = {0, 1, 2, 13, 100, 1017};
  const std::size_t begins[] = {0, 5};
  for (std::size_t threads : {1u, 2u, 5u}) {
    set_num_threads(threads);
    for (std::size_t n : sizes) {
      for (std::size_t begin : begins) {
        std::vector<std::atomic<int>> counts(begin + n);
        for (auto& c : counts) c.store(0);
        parallel_for(begin, begin + n,
                     [&](std::size_t i) { counts.at(i).fetch_add(1); });
        for (std::size_t i = 0; i < begin; ++i)
          ASSERT_EQ(counts[i].load(), 0)
              << "i=" << i << " n=" << n << " threads=" << threads;
        for (std::size_t i = begin; i < begin + n; ++i)
          ASSERT_EQ(counts[i].load(), 1)
              << "i=" << i << " n=" << n << " threads=" << threads;
      }
    }
  }
}

TEST_F(ParallelTest, OneThreadRunsOnTheCallingThread) {
  set_num_threads(1);
  const std::thread::id caller = std::this_thread::get_id();
  parallel_for(0, 64, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST_F(ParallelTest, NestedParallelForRunsInlineInTheOuterTask) {
  set_num_threads(4);
  std::vector<std::atomic<int>> counts(32 * 8);
  for (auto& c : counts) c.store(0);
  parallel_for(0, 8, [&](std::size_t outer) {
    const std::thread::id outer_thread = std::this_thread::get_id();
    parallel_for(0, 32, [&](std::size_t inner) {
      // No nested fan-out: the inner loop stays on the outer task's
      // thread, on a worker and on the calling thread alike.
      EXPECT_EQ(std::this_thread::get_id(), outer_thread);
      counts[outer * 32 + inner].fetch_add(1);
    });
  });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

// A task on the calling thread opens a nested region while a worker's task
// waits for that nested region to finish. The nested region must run
// inline on the caller; were it to queue work for the pool's only worker
// (busy with the outer task) and wait for it, the worker's bounded wait
// would time out.
TEST_F(ParallelTest, CallerTaskNestedRegionDoesNotWaitOnBusyWorkers) {
  set_num_threads(2);  // One worker plus the calling thread.
  const std::thread::id caller = std::this_thread::get_id();
  constexpr auto kPatience = std::chrono::seconds(2);
  std::mutex mutex;
  std::condition_variable changed;
  bool worker_waiting = false;
  bool nested_done = false;
  bool worker_saw_nested = false;
  std::atomic<int> nested_total{0};
  parallel_for(0, 2, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mutex);
    if (std::this_thread::get_id() != caller) {
      worker_waiting = true;
      changed.notify_all();
      worker_saw_nested =
          changed.wait_for(lock, kPatience, [&] { return nested_done; });
      return;
    }
    if (nested_done) return;  // The caller ran both outer tasks.
    changed.wait_for(lock, kPatience, [&] { return worker_waiting; });
    lock.unlock();
    parallel_for(0, 16, [&](std::size_t) { nested_total.fetch_add(1); });
    lock.lock();
    nested_done = true;
    changed.notify_all();
  });
  EXPECT_EQ(nested_total.load(), 16);
  EXPECT_TRUE(nested_done);
  if (worker_waiting) {
    EXPECT_TRUE(worker_saw_nested)
        << "the caller's nested region waited on the busy worker";
  }
}

// Two unrelated threads share the global pool: one region runs on it, the
// other inline on its own caller, and each covers its range exactly once.
TEST_F(ParallelTest, ConcurrentCallersFromPlainThreadsEachCoverEveryIndex) {
  set_num_threads(4);
  (void)global_pool();  // Create the pool before the callers race for it.
  constexpr std::size_t kN = 2000;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> a(kN), b(kN);
    for (auto& c : a) c.store(0);
    for (auto& c : b) c.store(0);
    std::thread first([&] {
      parallel_for(0, kN, [&](std::size_t i) { a[i].fetch_add(1); });
    });
    std::thread second([&] {
      parallel_for(0, kN, [&](std::size_t i) { b[i].fetch_add(1); });
    });
    first.join();
    second.join();
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(a[i].load(), 1) << "first caller, i=" << i;
      ASSERT_EQ(b[i].load(), 1) << "second caller, i=" << i;
    }
  }
}

TEST_F(ParallelTest, ThreadPoolRunIsReusable) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::atomic<int>> counts(257);
    for (auto& c : counts) c.store(0);
    ASSERT_TRUE(pool.try_run(counts.size(),
                             [&](std::size_t i) { counts[i].fetch_add(1); }));
    for (auto& c : counts) ASSERT_EQ(c.load(), 1);
  }
}

TEST_F(ParallelTest, TryRunRefusesWhileARegionIsInFlight) {
  ThreadPool pool(2);
  std::atomic<int> refused{0};
  ASSERT_TRUE(pool.try_run(6, [&](std::size_t) {
    if (!pool.try_run(4, [](std::size_t) {})) refused.fetch_add(1);
  }));
  EXPECT_EQ(refused.load(), 6);
  // Free again once the region closed.
  EXPECT_TRUE(pool.try_run(4, [](std::size_t) {}));
}

TEST_F(ParallelTest, ThrowingTaskPropagatesAndPoolStaysUsable) {
  set_num_threads(4);
  EXPECT_THROW(parallel_for(0, 1000,
                            [&](std::size_t i) {
                              if (i == 137)
                                throw std::runtime_error("boom at 137");
                            }),
               std::runtime_error);
  // The pool must have drained cleanly and still schedule new work.
  std::vector<std::atomic<int>> counts(500);
  for (auto& c : counts) c.store(0);
  parallel_for(0, counts.size(),
               [&](std::size_t i) { counts[i].fetch_add(1); });
  for (auto& c : counts) ASSERT_EQ(c.load(), 1);
}

TEST_F(ParallelTest, ThrowingTaskOnBareThreadPoolPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(
      (void)pool.try_run(100,
                         [](std::size_t i) {
                           if (i == 42) throw std::invalid_argument("task 42");
                         }),
      std::invalid_argument);
  // Still alive afterwards.
  std::atomic<int> total{0};
  EXPECT_TRUE(pool.try_run(10, [&](std::size_t) { total.fetch_add(1); }));
  EXPECT_EQ(total.load(), 10);
}

TEST_F(ParallelTest, MatmulBitIdenticalAcrossThreadCounts) {
  // Big enough to cross matmul's parallel threshold (120·40·90 flops).
  const Matrix a = linalg::random_uniform_matrix(120, 40, 11, -1.0, 1.0);
  const Matrix b = linalg::random_uniform_matrix(40, 90, 12, -1.0, 1.0);
  set_num_threads(1);
  const Matrix serial = linalg::matmul(a, b);
  for (std::size_t threads : {2u, 8u}) {
    set_num_threads(threads);
    const Matrix parallel = linalg::matmul(a, b);
    ASSERT_EQ(parallel.rows(), serial.rows());
    ASSERT_EQ(parallel.cols(), serial.cols());
    EXPECT_EQ(std::memcmp(parallel.data(), serial.data(),
                          serial.size() * sizeof(double)),
              0)
        << "matmul not bit-identical at " << threads << " threads";
  }
}

TEST_F(ParallelTest, RankSweepAndChooseRankIdenticalAcrossThreadCounts) {
  const Matrix e = linalg::random_uniform_matrix(60, 30, 21, 0.0, 1.0);
  const std::vector<std::size_t> ranks = {2, 3, 5, 8};
  nmf::RankSweepOptions options;
  options.nmf.max_iterations = 40;

  set_num_threads(1);
  const std::vector<nmf::RankPoint> serial = nmf::rank_sweep(e, ranks, options);
  const nmf::RankChoice serial_choice = nmf::choose_rank(serial);
  ASSERT_EQ(serial.size(), ranks.size());

  for (std::size_t threads : {2u, 8u}) {
    set_num_threads(threads);
    const std::vector<nmf::RankPoint> parallel =
        nmf::rank_sweep(e, ranks, options);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].rank, serial[i].rank);
      EXPECT_EQ(parallel[i].accuracy_original, serial[i].accuracy_original)
          << "rank " << serial[i].rank << " at " << threads << " threads";
      EXPECT_EQ(parallel[i].accuracy_sparse, serial[i].accuracy_sparse)
          << "rank " << serial[i].rank << " at " << threads << " threads";
    }
    const nmf::RankChoice choice = nmf::choose_rank(parallel);
    EXPECT_EQ(choice.rank, serial_choice.rank);
    EXPECT_EQ(choice.sweep_index, serial_choice.sweep_index);
  }
}

TEST_F(ParallelTest, DiagnoseBatchIdenticalAcrossThreadCounts) {
  const auto synthetic =
      vn2::testing::make_synthetic(vn2::testing::standard_causes(), 300, 77);
  TrainingOptions training;
  training.rank = 5;
  training.nmf.max_iterations = 150;
  set_num_threads(1);
  const TrainingReport report = train(synthetic.states, training);

  // Reference: the serial single-state front door.
  std::vector<Diagnosis> serial;
  serial.reserve(synthetic.states.rows());
  for (std::size_t i = 0; i < synthetic.states.rows(); ++i)
    serial.push_back(diagnose(report.model, synthetic.states.row_vector(i)));

  for (std::size_t threads : {1u, 2u, 8u}) {
    set_num_threads(threads);
    const std::vector<Diagnosis> batch =
        diagnose_batch(report.model, synthetic.states);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].residual, serial[i].residual);
      EXPECT_EQ(batch[i].exception_score, serial[i].exception_score);
      EXPECT_EQ(batch[i].is_exception, serial[i].is_exception);
      ASSERT_EQ(batch[i].weights.size(), serial[i].weights.size());
      for (std::size_t r = 0; r < batch[i].weights.size(); ++r)
        EXPECT_EQ(batch[i].weights[r], serial[i].weights[r])
            << "state " << i << " weight " << r << " at " << threads
            << " threads";
      ASSERT_EQ(batch[i].ranked.size(), serial[i].ranked.size());
    }
    const Matrix strengths =
        correlation_strengths(report.model, synthetic.states);
    ASSERT_EQ(strengths.rows(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
      for (std::size_t r = 0; r < report.model.rank(); ++r)
        EXPECT_EQ(strengths(i, r), serial[i].weights[r]);
  }
}

}  // namespace
}  // namespace vn2::core
