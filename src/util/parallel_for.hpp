// One shared chunk-claiming task pool for every data-parallel loop in the
// repo: the Monte-Carlo trial runner (mc::run_trials), CellBatch lane
// sharding, the retention sweep, the ECC explorer, the memsys fidelity tiers
// and BlockSchurLu's per-block loops all schedule through here instead of
// carrying bespoke thread pools.
//
// Scheduling model. The index space [0, n) is split into fixed-size chunks;
// participating threads claim contiguous chunks off an atomic cursor until
// the space is exhausted. Which thread executes which chunk is
// nondeterministic — so the DETERMINISM CONTRACT is on the body, not the
// pool:
//
//   The result of processing index i must depend on i (and captured
//   read-only state) alone — never on the executing thread, the chunk
//   boundaries, or what other indices ran before it. Randomized bodies
//   derive their stream from a (seed, index) function (mc::trial_rng is the
//   canonical one); per-worker contexts are allocation caches, not channels.
//
// Under that contract results are bit-identical for any thread count and any
// chunk size, which the parallel_for determinism suite pins for the call
// sites at 1, 2 and 8 threads.
//
// Threads. The pool is persistent: its workers are started lazily, the first
// time a call needs them, and live until the process exits. A call at
// `threads` workers runs on the calling thread plus pool workers
// 0 .. threads-2, so the caller is one of the `threads` and a pool grown by a
// wide call never makes a narrow call wider. Idle workers block on a
// condition variable rather than spin, so a process pinned to fewer CPUs than
// it has workers is not kept busy by them. Two rules make the pool safe to
// call from anywhere; both run the call inline and serially on the calling
// thread, as at threads = 1, and both are deadlock-free by construction
// because an inline call never waits on the pool:
//
//   1. Nesting: a call made on a thread that is already running a pool
//      dispatch's body (a worker, or a caller taking part in its own
//      dispatch) runs inline.
//   2. Busy: a call that finds the pool running another caller's dispatch
//      runs inline instead of queueing behind it.
//
// Error handling: a throwing body (or context factory) aborts the run —
// in-flight chunks finish, no new chunks are claimed, and the first exception
// is rethrown on the caller once every participating thread has left the
// call. The pool itself records no telemetry (util sits below obs in the
// layering); call sites instrument their own counters inside the body and
// can feed the returned thread count to their own gauges.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>

namespace oxmlc::util {

struct ParallelForOptions {
  std::size_t threads = 0;  // 0 = CPUs this process may run on (min 1); capped at n
  std::size_t chunk = 0;    // indices per claim; 0 = auto (~8 chunks/worker)
};

// Worker count actually requested for `items` work items: `requested`, or
// when 0 the number of CPUs in the calling thread's affinity mask (falling
// back to hardware_concurrency where that is unavailable), capped at the item
// count, floor 1.
std::size_t resolve_threads(std::size_t requested, std::size_t items);

// Chunk size actually used: `requested`, or when 0 aim for ~8 chunks per
// worker — large enough that a per-worker context is reused across many
// items and the claim counter stays cold, small enough that one straggler
// chunk cannot idle the rest of the pool.
std::size_t resolve_chunk(std::size_t requested, std::size_t items, std::size_t threads);

namespace detail {

// Runs `participant` on the calling thread and on pool workers
// 0 .. helpers-1, returning once every worker that took it has finished.
// Returns false without running anything when the call must run inline:
// the calling thread is inside a dispatch's body, or another caller holds the
// pool. `participant` must not throw.
bool dispatch(std::size_t helpers, const std::function<void()>& participant);

}  // namespace detail

// Runs body(begin, end, context) over [0, n) in claimed chunks and returns
// the number of threads that ran at least one chunk (0 when n == 0; 1 for a
// serial or inline call). make_context builds one context per participating
// thread, on its first claimed chunk, reused across every chunk that thread
// claims; the serial path builds one context and visits the same chunk
// boundaries in order.
template <typename Context>
std::size_t parallel_for(std::size_t n, const ParallelForOptions& options,
                         const std::function<Context()>& make_context,
                         const std::function<void(std::size_t, std::size_t, Context&)>& body) {
  if (n == 0) return 0;
  const std::size_t threads = resolve_threads(options.threads, n);
  const std::size_t chunk = resolve_chunk(options.chunk, n, threads);

  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> participants{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const auto participate = [&] {
    try {
      if (failed.load(std::memory_order_acquire)) return;
      std::size_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      participants.fetch_add(1, std::memory_order_relaxed);
      Context context = make_context();
      for (;;) {
        body(begin, std::min(begin + chunk, n), context);
        if (failed.load(std::memory_order_acquire)) return;
        begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= n) return;
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      failed.store(true, std::memory_order_release);
    }
  };

  if (threads <= 1 || !detail::dispatch(threads - 1, std::ref(participate))) {
    Context context = make_context();
    for (std::size_t begin = 0; begin < n; begin += chunk) {
      body(begin, std::min(begin + chunk, n), context);
    }
    return 1;
  }
  if (first_error) std::rethrow_exception(first_error);
  return participants.load(std::memory_order_relaxed);
}

// Context-free convenience overload: body(begin, end).
std::size_t parallel_for(std::size_t n, const ParallelForOptions& options,
                         const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace oxmlc::util
