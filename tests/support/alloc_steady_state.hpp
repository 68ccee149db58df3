#pragma once
// Steady-state allocation measurement for the zero-allocation contracts
// (compiled replay, serving) at any kernel thread count. Needs a binary
// that expands ORBIT2_INSTALL_ALLOC_COUNTER().

#include <atomic>
#include <cstdint>
#include <thread>

#include "core/debug_check.hpp"
#include "core/kernels.hpp"

namespace orbit2::test {

/// Runs `fn` once on every kernel thread at the same time, so that each
/// thread's grow-only thread_local scratch reaches the size `fn` needs.
/// Each thread holds one chunk of a max_threads()-chunk dispatch until all
/// have arrived (a thread waiting in its chunk cannot claim another), and
/// the kernels `fn` calls run inline there, every chunk of them. `fn` must
/// be safe to run concurrently, and no other dispatch may be in flight.
template <typename Fn>
void warm_every_kernel_thread(const Fn& fn) {
  const auto threads = static_cast<std::int64_t>(kernels::max_threads());
  std::atomic<std::int64_t> arrived{0};
  kernels::parallel_for(threads, 1, [&](std::int64_t, std::int64_t) {
    arrived.fetch_add(1);
    while (arrived.load() < threads) std::this_thread::yield();
    fn();
  });
}

/// Allocations over 16 calls of `call` once it has settled: warm-up calls
/// continue until 3 in a row allocate nothing (at most 64).
template <typename Fn>
std::int64_t steady_state_allocs(const Fn& call) {
  int clean = 0;
  for (int warmup = 0; warmup < 64 && clean < 3; ++warmup) {
    debug::AllocCountScope scope;
    call();
    clean = scope.delta() == 0 ? clean + 1 : 0;
  }
  debug::AllocCountScope scope;
  for (int i = 0; i < 16; ++i) call();
  return scope.delta();
}

}  // namespace orbit2::test
