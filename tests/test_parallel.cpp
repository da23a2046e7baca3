// The process-wide worker pool behind parallel_for (util/parallel.hpp):
// exactly-once index coverage, slot bounds and exclusivity, inline
// serial and nested calls, and the guarantee that no fn runs after the
// call returns.
#include "tufp/util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

namespace tufp {
namespace {

constexpr int kThreads = 4;

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{kThreads - 1},
        std::size_t{10000}}) {
    std::vector<std::atomic<int>> runs(n);
    parallel_for(n, kThreads, [&](std::size_t i, int) {
      runs[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(runs[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ParallelFor, SlotsStayBelowThreadsAndAreNeverShared) {
  for (const int threads : {2, kThreads, 8}) {
    std::vector<std::atomic<bool>> busy(static_cast<std::size_t>(threads));
    std::atomic<int> bad_slot{0};
    std::atomic<int> shared_slot{0};
    parallel_for(2000, threads, [&](std::size_t, int slot) {
      if (slot < 0 || slot >= threads) {
        bad_slot.fetch_add(1);
        return;
      }
      std::atomic<bool>& flag = busy[static_cast<std::size_t>(slot)];
      if (flag.exchange(true)) shared_slot.fetch_add(1);
      volatile int spin = 0;
      for (int k = 0; k < 200; ++k) spin = spin + 1;
      flag.store(false);
    });
    EXPECT_EQ(bad_slot.load(), 0) << "threads=" << threads;
    EXPECT_EQ(shared_slot.load(), 0) << "threads=" << threads;
  }
}

TEST(ParallelFor, OneThreadRunsOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  int foreign = 0;
  int last = -1;
  bool in_order = true;
  parallel_for(500, 1, [&](std::size_t i, int slot) {
    if (std::this_thread::get_id() != caller || slot != 0) ++foreign;
    in_order = in_order && static_cast<int>(i) == last + 1;
    last = static_cast<int>(i);
  });
  EXPECT_EQ(foreign, 0);
  EXPECT_TRUE(in_order);
  EXPECT_EQ(last, 499);
}

TEST(ParallelFor, NestedCallRunsInline) {
  constexpr std::size_t kOuter = 64;
  constexpr std::size_t kInner = 32;
  std::vector<std::atomic<int>> runs(kOuter * kInner);
  std::atomic<int> not_inline{0};
  parallel_for(kOuter, kThreads, [&](std::size_t i, int) {
    const std::thread::id outer = std::this_thread::get_id();
    parallel_for(kInner, kThreads, [&](std::size_t j, int slot) {
      if (std::this_thread::get_id() != outer || slot != 0) {
        not_inline.fetch_add(1);
      }
      runs[i * kInner + j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(not_inline.load(), 0);
  for (const std::atomic<int>& r : runs) ASSERT_EQ(r.load(), 1);
}

TEST(ParallelFor, NoFnRunsAfterReturn) {
  // Each call tags its fn with its own number; a fn that ran after its
  // call returned would see a later number, or leave `running` non-zero
  // when the caller looks.
  std::atomic<int> current{0};
  std::atomic<int> running{0};
  std::atomic<int> late{0};
  for (int call = 0; call < 3000; ++call) {
    current.store(call);
    const std::size_t n = 1 + static_cast<std::size_t>(call % 7);
    parallel_for(n, kThreads, [&, call](std::size_t, int) {
      running.fetch_add(1);
      if (current.load() != call) late.fetch_add(1);
      running.fetch_sub(1);
    });
    ASSERT_EQ(running.load(), 0) << "call " << call;
  }
  EXPECT_EQ(late.load(), 0);
}

TEST(ParallelFor, ConcurrentCallersEachCoverTheirIndices) {
  // Two callers race for the one pool: one gets it, the other runs
  // inline, and both cover their own indices exactly once.
  constexpr std::size_t kN = 3000;
  std::vector<std::atomic<int>> a(kN);
  std::vector<std::atomic<int>> b(kN);
  const auto drive = [](std::vector<std::atomic<int>>* runs) {
    for (int round = 0; round < 20; ++round) {
      parallel_for(kN / 20, kThreads, [&](std::size_t i, int) {
        (*runs)[static_cast<std::size_t>(round) * (kN / 20) + i].fetch_add(1);
      });
    }
  };
  std::thread other(drive, &b);
  drive(&a);
  other.join();
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(a[i].load(), 1);
    ASSERT_EQ(b[i].load(), 1);
  }
}

TEST(ParallelFor, EffectiveThreadCount) {
  EXPECT_EQ(effective_num_threads(1), 1);
  EXPECT_EQ(effective_num_threads(3), 3);
  EXPECT_EQ(effective_num_threads(1000), kMaxThreads);
  const int all = static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_EQ(effective_num_threads(0), std::max(1, std::min(all, kMaxThreads)));
}

TEST(ParallelForDeathTest, EscapingExceptionTerminates) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(parallel_for(64, kThreads,
                            [](std::size_t i, int) {
                              if (i == 37) throw std::runtime_error("boom");
                            }),
               "");
}

}  // namespace
}  // namespace tufp
