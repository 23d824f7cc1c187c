#include "common/task_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace xdbft {
namespace {

TEST(TaskPoolTest, ParallelForEachRunsEveryIndexExactlyOnce) {
  TaskPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelForEach(kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(TaskPoolTest, ZeroWorkersRunsInlineOnCaller) {
  TaskPool pool(0);
  std::atomic<int> count{0};
  pool.ParallelForEach(50, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 50);
  EXPECT_EQ(pool.stats().tasks_inline, 50u);
  EXPECT_EQ(pool.stats().tasks_executed, 0u);
}

TEST(TaskPoolTest, ExceptionPropagatesAndRemainingTasksStillRun) {
  TaskPool pool(2);
  std::atomic<int> count{0};
  EXPECT_THROW(
      pool.ParallelForEach(100,
                           [&](size_t i) {
                             ++count;
                             if (i == 42) {
                               throw std::runtime_error("task 42 failed");
                             }
                           }),
      std::runtime_error);
  // The join is a barrier: every task ran even though one threw.
  EXPECT_EQ(count.load(), 100);
}

TEST(TaskPoolTest, NoTaskLostOnShutdown) {
  std::atomic<int> count{0};
  constexpr int kN = 500;
  {
    TaskPool pool(3);
    for (int i = 0; i < kN; ++i) {
      pool.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        count.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Destructor must drain all queued tasks before joining.
  }
  EXPECT_EQ(count.load(), kN);
}

TEST(TaskPoolTest, WorkIsStolenFromABlockedWorkersQueue) {
  TaskPool pool(4);
  std::atomic<int> remaining{63};
  // One task submits the other 63 from inside the pool, which puts them
  // all in its own worker's queue, then blocks that worker until they are
  // done: only the idle workers, by stealing, can run them. (Submitting
  // from the main thread would spread them round-robin, and a worker
  // could drain its own share before anyone steals.) No helping happens
  // here because the main thread only waits.
  pool.Submit([&pool, &remaining] {
    for (int i = 0; i < 63; ++i) {
      pool.Submit(
          [&remaining] { remaining.fetch_sub(1, std::memory_order_acq_rel); });
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (remaining.load(std::memory_order_acquire) > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (remaining.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(remaining.load(), 0);
  EXPECT_GT(pool.stats().tasks_stolen, 0u);
  EXPECT_EQ(pool.stats().tasks_executed, 64u);
}

TEST(TaskPoolTest, FullQueuesFallBackToInlineExecutionNotLoss) {
  TaskPool pool(1, /*queue_capacity=*/2);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<int> count{0};
  pool.Submit([&] {
    started.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Wait until the worker has taken the parking task off its queue: the
  // worker pops its own queue LIFO, so a parking task still queued would
  // let it run the counting tasks instead of parking.
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Worker is parked; the 2-slot queue fills and the rest run inline.
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_GE(pool.stats().tasks_inline, 8u);
  release.store(true, std::memory_order_release);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (count.load() < 10 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(count.load(), 10);
}

TEST(TaskPoolTest, CurrentWorkerIdIsScopedToThePool) {
  std::atomic<int> bad_ids{0};
  {
    TaskPool pool(3);
    EXPECT_EQ(pool.CurrentWorkerId(), -1);  // not a worker of this pool
    for (int i = 0; i < 30; ++i) {
      // Submitted (not helped) tasks run on workers only, so the id must
      // be a valid worker index.
      pool.Submit([&pool, &bad_ids] {
        const int id = pool.CurrentWorkerId();
        if (id < 0 || id >= pool.num_threads()) ++bad_ids;
      });
    }
  }  // destructor drains all 30 tasks
  EXPECT_EQ(bad_ids.load(), 0);
}

TEST(TaskPoolTest, StatsAccountEveryExecutedTask) {
  TaskPool pool(2);
  pool.ParallelForEach(200, [](size_t) {});
  const TaskPoolStats s = pool.stats();
  EXPECT_EQ(s.tasks_executed + s.tasks_inline, 200u);
  EXPECT_LE(s.tasks_stolen, s.tasks_executed);
}

TEST(TaskPoolTest, TrySubmitRejectsWithNoWorkers) {
  TaskPool pool(0);
  std::atomic<int> count{0};
  EXPECT_FALSE(pool.TrySubmit([&] { count.fetch_add(1); }));
  EXPECT_EQ(count.load(), 0);  // rejected task never ran
}

TEST(TaskPoolTest, TrySubmitRejectsWhenEveryQueueIsFullThenDrains) {
  TaskPool pool(1, /*queue_capacity=*/2);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<int> count{0};
  pool.Submit([&] {
    started.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Wait until the worker holds the blocker (so it no longer occupies a
  // queue slot): the 2-slot queue then fills, and further TrySubmits must
  // report rejection instead of running inline.
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (pool.TrySubmit([&] { count.fetch_add(1); })) ++accepted;
  }
  EXPECT_EQ(accepted, 2);
  release.store(true, std::memory_order_release);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (count.load() < accepted &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(count.load(), accepted);  // accepted tasks all ran, no extras
}

}  // namespace
}  // namespace xdbft
