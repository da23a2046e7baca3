#include "tufp/util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace tufp {

namespace {

// How long an idle worker (or a caller waiting on claimed indices) spins
// before parking on std::atomic::wait. The refreshes of one solve come
// microseconds apart, so a worker that parked after every call would pay
// a futex wake-up per refresh; one that never parked would burn a core
// between epochs and on an oversubscribed machine.
constexpr auto kSpinWindow = std::chrono::microseconds(100);

// The live call's claim state is one 64-bit word, so a worker takes a
// seat and an index, or just an index, with one compare-and-swap that
// fails once the call has finished or been replaced:
//   [gen:24][free seats:6][next index:17][count:17]
// A worker that took a seat keeps claiming only while the generation is
// the one it joined, so a slot never leaks from one call into the next.
constexpr int kCountBits = 17;
constexpr int kSeatBits = 6;
constexpr std::uint64_t kCountMask = (std::uint64_t{1} << kCountBits) - 1;
constexpr std::uint64_t kSeatMask = (std::uint64_t{1} << kSeatBits) - 1;
constexpr std::uint64_t kNextOne = std::uint64_t{1} << kCountBits;
constexpr std::uint64_t kSeatOne = std::uint64_t{1} << (2 * kCountBits);
constexpr int kGenShift = 2 * kCountBits + kSeatBits;
// Larger loops run as consecutive calls of at most this many indices.
constexpr std::size_t kMaxCount = kCountMask;
static_assert(kMaxThreads - 1 <= static_cast<int>(kSeatMask));

std::uint64_t count_of(std::uint64_t w) { return w & kCountMask; }
std::uint64_t next_of(std::uint64_t w) {
  return (w >> kCountBits) & kCountMask;
}
std::uint64_t seats_of(std::uint64_t w) {
  return (w >> (2 * kCountBits)) & kSeatMask;
}
std::uint64_t gen_of(std::uint64_t w) { return w >> kGenShift; }

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Set on pool workers for their lifetime and on a caller while its call
// runs: a parallel_for issued there runs inline.
thread_local bool t_in_parallel = false;

// noexcept: an exception escaping fn terminates the process.
void invoke(detail::IndexFn fn, std::size_t index, int slot) noexcept {
  fn.call(fn.object, index, slot);
}

class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    stop_.store(true);
    signal_.fetch_add(1);
    signal_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  // Runs the loop on the pool; false when another thread's call holds it.
  bool run(std::size_t n, int threads, detail::IndexFn fn) {
    std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
    if (!lock.owns_lock()) return false;
    while (static_cast<int>(workers_.size()) < threads - 1) {
      workers_.emplace_back([this] { worker_main(); });
    }
    t_in_parallel = true;
    fn_ = fn;
    for (std::size_t base = 0; base < n; base += kMaxCount) {
      const std::uint64_t count = std::min(kMaxCount, n - base);
      base_ = base;
      pending_.store(static_cast<std::uint32_t>(count));
      gen_ = (gen_ + 1) & (~std::uint64_t{0} >> kGenShift);
      word_.store((gen_ << kGenShift) |
                      (static_cast<std::uint64_t>(threads - 1)
                       << (2 * kCountBits)) |
                      count,
                  std::memory_order_release);
      wake(threads - 1);
      std::size_t index = 0;
      while (claim_index(gen_, &index)) {
        invoke(fn_, base_ + index, 0);
        finish_index();
      }
      wait_pending();
    }
    t_in_parallel = false;
    return true;
  }

 private:
  // Bumps the signal every idle worker watches; wakes up to `wanted`
  // parked ones (spinning ones see the bump themselves). The seq_cst
  // signal bump and parked_ read pair with the worker's parked_
  // increment and signal re-check, so no worker sleeps through a call.
  void wake(int wanted) {
    signal_.fetch_add(1);
    const int parked = parked_.load();
    if (parked <= 0) return;
    if (parked <= wanted) {
      signal_.notify_all();
    } else {
      for (int i = 0; i < wanted; ++i) signal_.notify_one();
    }
  }

  // Claims the next index of call `gen`, without taking a seat.
  bool claim_index(std::uint64_t gen, std::size_t* index) {
    std::uint64_t w = word_.load(std::memory_order_acquire);
    while (gen_of(w) == gen && next_of(w) < count_of(w)) {
      if (word_.compare_exchange_weak(w, w + kNextOne,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        *index = next_of(w);
        return true;
      }
    }
    return false;
  }

  void finish_index() {
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }

  void wait_pending() {
    const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
    std::uint32_t left = 0;
    while ((left = pending_.load(std::memory_order_acquire)) != 0) {
      if (std::chrono::steady_clock::now() < deadline) {
        cpu_relax();
      } else {
        pending_.wait(left, std::memory_order_acquire);
      }
    }
  }

  // Takes a free seat and an index of the live call in one step, then
  // keeps claiming indices of that call until none is left.
  void participate() {
    std::uint64_t w = word_.load(std::memory_order_acquire);
    for (;;) {
      if (seats_of(w) == 0 || next_of(w) >= count_of(w)) return;
      if (word_.compare_exchange_weak(w, w - kSeatOne + kNextOne,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        break;
      }
    }
    // The claimed index keeps the call live, so fn_ and base_ are its own.
    const std::uint64_t gen = gen_of(w);
    const int slot = static_cast<int>(seats_of(w));
    const detail::IndexFn fn = fn_;
    const std::size_t base = base_;
    std::size_t index = next_of(w);
    do {
      invoke(fn, base + index, slot);
      finish_index();
    } while (claim_index(gen, &index));
  }

  void worker_main() {
    t_in_parallel = true;
    for (;;) {
      // Read the signal before looking for work (or for the stop flag),
      // so a call published after the look still ends the wait below.
      const std::uint32_t seen = signal_.load();
      if (stop_.load()) return;
      participate();
      const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
      while (signal_.load() == seen) {
        if (std::chrono::steady_clock::now() < deadline) {
          cpu_relax();
          continue;
        }
        parked_.fetch_add(1);
        signal_.wait(seen);
        parked_.fetch_sub(1);
      }
    }
  }

  std::mutex mutex_;  // one call at a time; guards the fields below
  std::vector<std::thread> workers_;
  std::uint64_t gen_ = 0;
  // Written by the call's owner before it publishes word_; read by a
  // worker only while its claimed index keeps the call live.
  detail::IndexFn fn_{};
  std::size_t base_ = 0;

  std::atomic<std::uint64_t> word_{0};
  std::atomic<std::uint32_t> pending_{0};  // unfinished indices
  std::atomic<std::uint32_t> signal_{0};   // bumped once per call
  std::atomic<int> parked_{0};
  std::atomic<bool> stop_{false};
};

Pool& pool() {
  static Pool instance;
  return instance;
}

}  // namespace

int effective_num_threads(int requested) {
  const int threads =
      requested > 0
          ? requested
          : static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(threads, 1, kMaxThreads);
}

namespace detail {

void run_parallel(std::size_t n, int threads, IndexFn fn) {
  threads = effective_num_threads(threads);
  if (threads == 1 || n <= 1 || t_in_parallel || !pool().run(n, threads, fn)) {
    for (std::size_t i = 0; i < n; ++i) invoke(fn, i, 0);
  }
}

}  // namespace detail
}  // namespace tufp
