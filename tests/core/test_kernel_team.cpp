// Kernel worker team coverage: concurrent dispatchers (the busy-slot inline
// path), chunk exceptions rethrown on the caller, set_max_threads cycling,
// lazy first use from many threads, nested dispatch from team chunks, and
// the allocation-free dispatch contract. Run under the `tsan` preset
// (ctest --preset tsan -R KernelTeamStress) to shake out wake-up and
// retirement races. Lives in its own binary because
// ORBIT2_INSTALL_ALLOC_COUNTER replaces the global allocator for the whole
// process.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/debug_check.hpp"
#include "core/error.hpp"
#include "core/kernels.hpp"

ORBIT2_INSTALL_ALLOC_COUNTER();

namespace orbit2 {
namespace {

/// Pins the kernel thread count for one test and restores the default.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { kernels::set_max_threads(n); }
  ~ScopedThreads() { kernels::set_max_threads(0); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;
};

/// Covers [0, count) with grain 1 and asserts every index ran exactly once.
void expect_covers_once(std::int64_t count) {
  std::vector<int> hits(static_cast<std::size_t>(count), 0);
  kernels::parallel_for(count, 1, [&hits](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (int h : hits) ASSERT_EQ(h, 1);
}

TEST(KernelTeamStress, RunsEveryChunk) {
  ScopedThreads threads(4);
  std::atomic<int> counter{0};
  kernels::parallel_for(100, 1, [&counter](std::int64_t b, std::int64_t e) {
    counter.fetch_add(static_cast<int>(e - b), std::memory_order_relaxed);
  });
  EXPECT_EQ(counter.load(), 100);
}

TEST(KernelTeamStress, CoversEveryIndexOnce) {
  ScopedThreads threads(3);
  expect_covers_once(257);
}

TEST(KernelTeamStress, ZeroCountIsNoop) {
  ScopedThreads threads(2);
  EXPECT_NO_THROW(kernels::parallel_for(
      0, 1, [](std::int64_t, std::int64_t) { FAIL(); }));
  EXPECT_EQ(kernels::parallel_reduce(
                0, 1, [](std::int64_t, std::int64_t) -> double {
                  ADD_FAILURE();
                  return 1.0;
                }),
            0.0);
}

TEST(KernelTeamStress, EdgeCounts) {
  ScopedThreads threads(4);
  std::atomic<int> ran_one{0};
  kernels::parallel_for(1, 1, [&ran_one](std::int64_t, std::int64_t) {
    ran_one.fetch_add(1);
  });
  EXPECT_EQ(ran_one.load(), 1);
  expect_covers_once(std::int64_t{1} << 18);  // far more chunks than threads
}

TEST(KernelTeamStress, ChunksPartitionExactly) {
  // Prime count, uneven grain: boundaries are [0,g), [g,2g), ... with a
  // short last chunk, whichever thread claims each chunk.
  ScopedThreads threads(4);
  constexpr std::int64_t kCount = 100003;
  constexpr std::int64_t kGrain = 7;
  std::mutex mutex;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  kernels::parallel_for(kCount, kGrain, [&](std::int64_t b, std::int64_t e) {
    std::lock_guard<std::mutex> lock(mutex);
    chunks.emplace_back(b, e);
  });
  std::sort(chunks.begin(), chunks.end());
  std::int64_t expected_begin = 0;
  for (const auto& [b, e] : chunks) {
    ASSERT_EQ(b, expected_begin);
    ASSERT_EQ(e, std::min(kCount, b + kGrain));
    expected_begin = e;
  }
  EXPECT_EQ(expected_begin, kCount);
}

TEST(KernelTeamStress, ChunkBoundariesIgnoreThreadCount) {
  auto record = [] {
    std::mutex mutex;
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    kernels::parallel_for(10, 3, [&](std::int64_t b, std::int64_t e) {
      std::lock_guard<std::mutex> lock(mutex);
      chunks.emplace_back(b, e);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  kernels::set_max_threads(1);
  const auto serial = record();
  kernels::set_max_threads(4);
  const auto parallel = record();
  kernels::set_max_threads(0);
  const std::vector<std::pair<std::int64_t, std::int64_t>> expected = {
      {0, 3}, {3, 6}, {6, 9}, {9, 10}};
  EXPECT_EQ(serial, expected);
  EXPECT_EQ(parallel, expected);
}

TEST(KernelTeamStress, ConcurrentCallersCoverOwnIndexSpace) {
  // More dispatchers than the one job slot: whoever finds it taken runs its
  // chunks inline. Each caller must still cover its own space exactly once.
  ScopedThreads threads(4);
  constexpr int kCallers = 8;
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(5000, 0));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&hits, c] {
      std::vector<int>& mine = hits[static_cast<std::size_t>(c)];
      for (int rep = 0; rep < 20; ++rep) {
        kernels::parallel_for(
            static_cast<std::int64_t>(mine.size()), 64,
            [&mine](std::int64_t b, std::int64_t e) {
              for (std::int64_t i = b; i < e; ++i) {
                ++mine[static_cast<std::size_t>(i)];
              }
            });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const std::vector<int>& mine : hits) {
    for (int h : mine) ASSERT_EQ(h, 20);
  }
}

TEST(KernelTeamStress, ManyCallersRepeatedDispatch) {
  ScopedThreads threads(4);
  constexpr int kCallers = 8;
  constexpr int kDispatches = 250;
  std::atomic<std::int64_t> counter{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&counter] {
      for (int d = 0; d < kDispatches; ++d) {
        kernels::parallel_for(4, 1, [&counter](std::int64_t b, std::int64_t e) {
          counter.fetch_add(e - b, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(counter.load(), std::int64_t{kCallers} * kDispatches * 4);
}

TEST(KernelTeamStress, ChunkExceptionRethrownOnCaller) {
  ScopedThreads threads(4);
  EXPECT_THROW(kernels::parallel_for(1000, 1,
                                     [](std::int64_t b, std::int64_t) {
                                       if (b == 617) {
                                         throw Error("chunk failed", __FILE__,
                                                     __LINE__);
                                       }
                                     }),
               Error);
  expect_covers_once(1000);  // the team is usable right after
}

TEST(KernelTeamStress, ExceptionLeavesTeamUsable) {
  // A failing chunk does not cancel the others: every chunk runs, then the
  // first captured exception is rethrown and the next dispatch is clean.
  ScopedThreads threads(4);
  std::atomic<int> survivors{0};
  EXPECT_THROW(kernels::parallel_for(64, 1,
                                     [&survivors](std::int64_t b, std::int64_t) {
                                       if (b == 13) {
                                         throw Error("chunk 13 failed",
                                                     __FILE__, __LINE__);
                                       }
                                       survivors.fetch_add(1);
                                     }),
               Error);
  EXPECT_EQ(survivors.load(), 63);
  EXPECT_NO_THROW(kernels::parallel_for(
      4, 1, [&survivors](std::int64_t, std::int64_t) { survivors.fetch_add(1); }));
  EXPECT_EQ(survivors.load(), 67);
}

TEST(KernelTeamStress, EveryChunkThrowingRethrowsOne) {
  ScopedThreads threads(4);
  for (int rep = 0; rep < 20; ++rep) {
    EXPECT_THROW(kernels::parallel_reduce(
                     64, 1,
                     [](std::int64_t, std::int64_t) -> double {
                       throw Error("every chunk fails", __FILE__, __LINE__);
                     }),
                 Error);
  }
  EXPECT_EQ(kernels::parallel_reduce(
                64, 1,
                [](std::int64_t b, std::int64_t e) {
                  return static_cast<double>(e - b);
                }),
            64.0);
}

TEST(KernelTeamStress, SetMaxThreadsCycle) {
  for (std::size_t n : {1, 4, 2, 4}) {
    kernels::set_max_threads(n);
    EXPECT_EQ(kernels::max_threads(), n);
    expect_covers_once(777);
    EXPECT_EQ(kernels::max_threads(), n);  // the built team has that size
  }
  kernels::set_max_threads(0);
}

TEST(KernelTeamStress, LazyFirstUseFromManyThreads) {
  // set_max_threads joins the team; the first dispatch after it builds a
  // new one. Release 8 threads at once so that build races.
  for (int round = 0; round < 5; ++round) {
    ScopedThreads threads(4);
    constexpr int kThreads = 8;
    std::atomic<bool> go{false};
    std::atomic<std::int64_t> counter{0};
    std::vector<std::thread> racers;
    racers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      racers.emplace_back([&go, &counter] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < 50; ++i) {
          kernels::parallel_for(8, 1, [&counter](std::int64_t b, std::int64_t e) {
            counter.fetch_add(e - b, std::memory_order_relaxed);
          });
        }
      });
    }
    go.store(true);
    for (std::thread& racer : racers) racer.join();
    EXPECT_EQ(counter.load(), std::int64_t{kThreads} * 50 * 8);
  }
}

TEST(KernelTeamStress, NestedDispatchFromTeamChunk) {
  // A kernel called from inside a team chunk runs inline on that thread:
  // the inner loop and reduction still cover their spaces exactly once and
  // the reduction keeps its ascending combine order.
  ScopedThreads threads(4);
  constexpr std::int64_t kOuter = 16;
  constexpr std::int64_t kInner = 100;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(kOuter * kInner));
  std::vector<double> sums(static_cast<std::size_t>(kOuter), 0.0);
  kernels::parallel_for(kOuter, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t outer = b; outer < e; ++outer) {
      EXPECT_TRUE(kernels::in_parallel_region());
      const std::thread::id self = std::this_thread::get_id();
      kernels::parallel_for(kInner, 7, [&](std::int64_t ib, std::int64_t ie) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        for (std::int64_t i = ib; i < ie; ++i) {
          hits[static_cast<std::size_t>(outer * kInner + i)]++;
        }
      });
      sums[static_cast<std::size_t>(outer)] = kernels::parallel_reduce(
          kInner, 9, [](std::int64_t ib, std::int64_t ie) {
            return static_cast<double>(ie - ib);
          });
    }
  });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
  for (double s : sums) EXPECT_EQ(s, static_cast<double>(kInner));
  EXPECT_FALSE(kernels::in_parallel_region());
}

// ---- allocation-free dispatch ------------------------------------------------

TEST(Kernels, DispatchAllocatesNothingAtFourThreads) {
  if (!debug::alloc_counting_installed()) {
    GTEST_SKIP() << "alloc counter not installed";
  }
  ScopedThreads threads(4);
  std::atomic<std::int64_t> chunks{0};
  auto body = [&chunks](std::int64_t, std::int64_t) {
    chunks.fetch_add(1, std::memory_order_relaxed);
  };
  auto partial = [](std::int64_t b, std::int64_t e) {
    return static_cast<double>(e - b);
  };
  kernels::parallel_for(4, 1, body);  // builds the team
  (void)kernels::parallel_reduce(4, 1, partial);
  std::int64_t delta = -1;
  double total = 0.0;
  {
    debug::AllocCountScope scope;
    for (int i = 0; i < 1000; ++i) kernels::parallel_for(4, 1, body);
    for (int i = 0; i < 1000; ++i) {
      total += kernels::parallel_reduce(4, 1, partial);
    }
    delta = scope.delta();
  }
  EXPECT_EQ(delta, 0) << "kernel dispatch allocated at 4 threads";
  EXPECT_EQ(chunks.load(), 1001 * 4);
  EXPECT_EQ(total, 4000.0);
}

}  // namespace
}  // namespace orbit2
