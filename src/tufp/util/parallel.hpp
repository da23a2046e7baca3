// One process-wide worker pool behind a single loop primitive.
//
//   parallel_for(n, threads, [&](std::size_t i, int slot) { ... });
//
// runs fn(i, slot) exactly once for every i in [0, n), on the calling
// thread and up to threads - 1 pool workers. `slot` is below `threads`
// and no two concurrently running calls share one, so it indexes
// per-worker scratch (SpCache's engines, for example). Which slot or
// thread runs which index is schedule-dependent: every caller writes
// only state owned by its index or its slot, which is what keeps the
// det channel byte-identical for any thread count.
//
// Contract:
//   * threads == 1 (or n <= 1) runs every index inline on the caller;
//     threads <= 0 means std::thread::hardware_concurrency().
//   * The caller claims indices like any worker, and the call returns as
//     soon as every index has finished. It never waits for a worker that
//     has not claimed an index, so on an oversubscribed machine the
//     caller degrades to serial speed instead of waiting a scheduler
//     timeslice per call.
//   * fn never runs after parallel_for returns.
//   * A parallel_for issued from inside fn, or while another thread's
//     call holds the pool, runs inline.
//   * An exception escaping fn terminates the process.
//
// Idle workers spin for a short fixed window after each call, so the
// back-to-back calls of one solve find them awake, then park on
// std::atomic::wait (parallel.cpp, kSpinWindow).
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>

namespace tufp {

// Kept only because wirebench/wirebench.cpp calls it: every build has
// the thread pool.
inline bool openmp_available() { return true; }

// Threads one parallel_for may use, the caller included.
inline constexpr int kMaxThreads = 64;

// Threads parallel_for runs with for `requested`: requested itself when
// positive, std::thread::hardware_concurrency() otherwise, capped at
// kMaxThreads. Size per-slot scratch with this.
int effective_num_threads(int requested);

namespace detail {

struct IndexFn {
  void* object;
  void (*call)(void* object, std::size_t index, int slot);
};

void run_parallel(std::size_t n, int threads, IndexFn fn);

}  // namespace detail

template <class Fn>
void parallel_for(std::size_t n, int threads, Fn&& fn) {
  using F = std::remove_reference_t<Fn>;
  detail::run_parallel(
      n, threads,
      {const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
       [](void* object, std::size_t index, int slot) {
         (*static_cast<F*>(object))(index, slot);
       }});
}

}  // namespace tufp
