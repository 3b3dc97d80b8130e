// Determinism and scheduling suite for the shared util::parallel_for pool.
//
// Two layers of pinning:
//   1. The pool itself: full index coverage for awkward (n, threads, chunk)
//     combinations, per-worker context reuse, first-exception propagation,
//     n = 0 as a no-op, and the persistent pool's rules: nested and
//     pool-busy calls run inline, back-to-back calls reuse the same workers,
//     the pool survives a throwing body, and the auto thread count follows
//     the CPU affinity mask.
//   2. The bit-identity contract at every migrated call site: mc::run_trials,
//      run_retention_study, and CellBatch lane sharding must return
//      byte-for-byte identical results at 1, 2 and 8 threads — the property
//      every EXPERIMENTS.md number relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mc/runner.hpp"
#include "mlc/levels.hpp"
#include "mlc/program.hpp"
#include "mlc/retention.hpp"
#include "oxram/batch_kernel.hpp"
#include "oxram/fast_cell.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace oxmlc {
namespace {

TEST(ParallelFor, ResolveHelpers) {
  EXPECT_EQ(util::resolve_threads(4, 100), 4u);
  EXPECT_EQ(util::resolve_threads(8, 3), 3u);   // capped at the item count
  EXPECT_EQ(util::resolve_threads(0, 0), 1u);   // floor 1 even with no work
  EXPECT_GE(util::resolve_threads(0, 1000), 1u);

  EXPECT_EQ(util::resolve_chunk(7, 100, 4), 7u);          // explicit wins
  EXPECT_EQ(util::resolve_chunk(0, 64, 2), 4u);           // ~8 chunks/worker
  EXPECT_EQ(util::resolve_chunk(0, 3, 8), 1u);            // floor 1
}

TEST(ParallelFor, ZeroItemsIsANoOpAndNeverRunsTheBody) {
  std::atomic<int> calls{0};
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::ParallelForOptions options;
    options.threads = threads;
    util::parallel_for(0, options,
                       [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  }
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (std::size_t n : {1u, 2u, 7u, 64u, 257u}) {
    for (std::size_t threads : {1u, 2u, 3u, 8u}) {
      for (std::size_t chunk : {0u, 1u, 5u, 1000u}) {
        std::vector<std::atomic<int>> visits(n);
        for (auto& v : visits) v.store(0);
        util::ParallelForOptions options;
        options.threads = threads;
        options.chunk = chunk;
        util::parallel_for(n, options, [&](std::size_t begin, std::size_t end) {
          ASSERT_LE(begin, end);
          ASSERT_LE(end, n);
          for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(visits[i].load(), 1)
              << "n=" << n << " threads=" << threads << " chunk=" << chunk
              << " index=" << i;
        }
      }
    }
  }
}

TEST(ParallelFor, OneContextPerWorkerReusedAcrossChunks) {
  std::atomic<int> contexts_built{0};
  struct Context {
    int chunks_seen = 0;
  };
  constexpr std::size_t kThreads = 3;
  util::ParallelForOptions options;
  options.threads = kThreads;
  options.chunk = 4;  // 256 / 4 = 64 chunks >> 3 workers: reuse is forced
  std::atomic<int> total_chunks{0};
  util::parallel_for<Context>(
      256, options,
      [&] {
        contexts_built.fetch_add(1);
        return Context{};
      },
      [&](std::size_t, std::size_t, Context& context) {
        ++context.chunks_seen;
        total_chunks.fetch_add(1);
      });
  EXPECT_LE(contexts_built.load(), static_cast<int>(kThreads));
  EXPECT_EQ(total_chunks.load(), 64);
}

TEST(ParallelFor, FirstExceptionPropagatesAndStopsClaiming) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::ParallelForOptions options;
    options.threads = threads;
    options.chunk = 1;
    std::atomic<int> executed{0};
    EXPECT_THROW(
        util::parallel_for(1000, options,
                           [&](std::size_t begin, std::size_t) {
                             executed.fetch_add(1);
                             if (begin >= 3) throw std::runtime_error("boom");
                           }),
        std::runtime_error)
        << "threads=" << threads;
    // After the failure no new chunks are claimed; only in-flight work (at
    // most one chunk per worker) may still land.
    EXPECT_LT(executed.load(), 1000) << "threads=" << threads;
  }
}

TEST(ParallelFor, ContextFactoryExceptionPropagates) {
  util::ParallelForOptions options;
  options.threads = 2;
  EXPECT_THROW(util::parallel_for<int>(
                   16, options, []() -> int { throw std::runtime_error("no context"); },
                   [](std::size_t, std::size_t, int&) {}),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Re-entrancy: the memsys scheduler's usage pattern (an outer tick loop whose
// body dispatches a batched word write through a nested parallel_for)
// ---------------------------------------------------------------------------

TEST(ParallelFor, ReentrantNestedLoopsCoverBothIndexSpaces) {
  // Outer "scheduler ticks" over 16 words; each tick fans a nested
  // parallel_for over the word's 8 "bit lines". Every (word, lane) pair must
  // execute exactly once regardless of either call's thread count — the inner
  // call runs inline on the claiming thread and must not interfere with the
  // outer claims.
  constexpr std::size_t kWords = 16;
  constexpr std::size_t kLanes = 8;
  for (std::size_t outer_threads : {std::size_t{1}, std::size_t{4}}) {
    for (std::size_t inner_threads : {std::size_t{1}, std::size_t{3}}) {
      std::vector<std::atomic<int>> visits(kWords * kLanes);
      for (auto& v : visits) v.store(0);
      util::ParallelForOptions outer;
      outer.threads = outer_threads;
      outer.chunk = 1;
      util::parallel_for(kWords, outer, [&](std::size_t begin, std::size_t end) {
        for (std::size_t word = begin; word < end; ++word) {
          util::ParallelForOptions inner;
          inner.threads = inner_threads;
          inner.chunk = 1;
          util::parallel_for(kLanes, inner, [&](std::size_t lane_begin, std::size_t lane_end) {
            for (std::size_t lane = lane_begin; lane < lane_end; ++lane) {
              visits[word * kLanes + lane].fetch_add(1);
            }
          });
        }
      });
      for (std::size_t i = 0; i < visits.size(); ++i) {
        ASSERT_EQ(visits[i].load(), 1)
            << "outer=" << outer_threads << " inner=" << inner_threads << " cell=" << i;
      }
    }
  }
}

TEST(ParallelFor, ReentrantNestedResultsBitIdenticalAcrossThreadCounts) {
  // The determinism contract must survive nesting: a (seed, index)-keyed body
  // inside a nested pool yields the same bytes for any (outer, inner) thread
  // combination.
  const auto run = [](std::size_t outer_threads, std::size_t inner_threads) {
    constexpr std::size_t kWords = 12;
    constexpr std::size_t kLanes = 6;
    std::vector<std::uint64_t> out(kWords * kLanes, 0);
    util::ParallelForOptions outer;
    outer.threads = outer_threads;
    util::parallel_for(kWords, outer, [&](std::size_t begin, std::size_t end) {
      for (std::size_t word = begin; word < end; ++word) {
        util::ParallelForOptions inner;
        inner.threads = inner_threads;
        util::parallel_for(kLanes, inner, [&](std::size_t lane_begin, std::size_t lane_end) {
          for (std::size_t lane = lane_begin; lane < lane_end; ++lane) {
            Rng rng = mc::trial_rng(0xFEEDull, word * kLanes + lane);
            out[word * kLanes + lane] = rng.next_u64() ^ rng.next_u64();
          }
        });
      }
    });
    return out;
  };
  const std::vector<std::uint64_t> reference = run(1, 1);
  EXPECT_EQ(run(2, 1), reference);
  EXPECT_EQ(run(1, 4), reference);
  EXPECT_EQ(run(4, 2), reference);
  EXPECT_EQ(run(8, 8), reference);
}

TEST(ParallelFor, ExceptionInNestedInnerLoopPropagatesThroughOuterPool) {
  // A worker task that itself runs a parallel_for must surface the inner
  // loop's first exception through BOTH pools to the original caller, and the
  // outer pool must stop claiming new ticks afterwards.
  for (std::size_t outer_threads : {std::size_t{1}, std::size_t{4}}) {
    util::ParallelForOptions outer;
    outer.threads = outer_threads;
    outer.chunk = 1;
    std::atomic<int> outer_ticks{0};
    EXPECT_THROW(
        util::parallel_for(1000, outer,
                           [&](std::size_t begin, std::size_t) {
                             outer_ticks.fetch_add(1);
                             util::ParallelForOptions inner;
                             inner.threads = 2;
                             inner.chunk = 1;
                             util::parallel_for(
                                 8, inner, [&](std::size_t lane, std::size_t) {
                                   if (begin >= 2 && lane >= 4) {
                                     throw std::runtime_error("lane fault");
                                   }
                                 });
                           }),
        std::runtime_error)
        << "outer=" << outer_threads;
    EXPECT_LT(outer_ticks.load(), 1000) << "outer=" << outer_threads;
  }
}

// ---------------------------------------------------------------------------
// The persistent pool: caller participation, the inline rules, reuse
// ---------------------------------------------------------------------------

// Blocks each of the first `parties` chunk bodies until all of them have
// started (or a generous timeout passes), so a 2-chunk call at 2 threads is
// forced onto two distinct threads.
class StartBarrier {
 public:
  explicit StartBarrier(int parties) : parties_(parties) {}
  void arrive_and_wait() {
    arrived_.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived_.load() < parties_ && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }

 private:
  const int parties_;
  std::atomic<int> arrived_{0};
};

TEST(ParallelForPool, NestedCallsRunOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  StartBarrier barrier(2);
  std::mutex mutex;
  std::vector<std::thread::id> outer_ids;
  std::vector<std::size_t> inner_ran;
  bool inner_on_outer_thread = true;

  util::ParallelForOptions outer;
  outer.threads = 2;
  outer.chunk = 1;
  const std::size_t outer_ran = util::parallel_for(2, outer, [&](std::size_t, std::size_t) {
    barrier.arrive_and_wait();
    const std::thread::id self = std::this_thread::get_id();
    util::ParallelForOptions inner;
    inner.threads = 4;
    inner.chunk = 1;
    std::vector<std::thread::id> seen;
    std::mutex seen_mutex;
    const std::size_t ran = util::parallel_for(16, inner, [&](std::size_t, std::size_t) {
      const std::lock_guard<std::mutex> lock(seen_mutex);
      seen.push_back(std::this_thread::get_id());
    });
    const std::lock_guard<std::mutex> lock(mutex);
    outer_ids.push_back(self);
    inner_ran.push_back(ran);
    for (const std::thread::id id : seen) inner_on_outer_thread &= (id == self);
  });

  EXPECT_EQ(outer_ran, 2u);
  ASSERT_EQ(outer_ids.size(), 2u);
  EXPECT_NE(outer_ids[0], outer_ids[1]);
  // One chunk ran on the participating caller, the other on a pool worker;
  // both nested calls stayed on their own thread and report one thread.
  EXPECT_TRUE(outer_ids[0] == caller || outer_ids[1] == caller);
  EXPECT_TRUE(inner_on_outer_thread);
  EXPECT_EQ(inner_ran, (std::vector<std::size_t>{1, 1}));
}

TEST(ParallelForPool, ReturnsTheThreadsThatRan) {
  util::ParallelForOptions options;
  options.threads = 1;
  EXPECT_EQ(util::parallel_for(100, options, [](std::size_t, std::size_t) {}), 1u);
  options.threads = 4;
  EXPECT_EQ(util::parallel_for(0, options, [](std::size_t, std::size_t) {}), 0u);
  const std::size_t ran = util::parallel_for(100, options, [](std::size_t, std::size_t) {});
  EXPECT_GE(ran, 1u);
  EXPECT_LE(ran, 4u);
}

TEST(ParallelForPool, BackToBackCallsReuseTheSameWorkers) {
  util::ParallelForOptions options;
  options.threads = 2;
  options.chunk = 1;
  std::mutex mutex;
  std::set<std::thread::id> ids;
  for (int call = 0; call < 10'000; ++call) {
    util::parallel_for(2, options, [&](std::size_t, std::size_t) {
      const std::lock_guard<std::mutex> lock(mutex);
      ids.insert(std::this_thread::get_id());
    });
  }
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 2u);
}

TEST(ParallelForPool, NextCallCoversEveryIndexAfterAThrow) {
  util::ParallelForOptions options;
  options.threads = 4;
  options.chunk = 1;
  EXPECT_THROW(util::parallel_for(1000, options,
                                  [](std::size_t begin, std::size_t) {
                                    if (begin % 7 == 3) throw std::runtime_error("boom");
                                  }),
               std::runtime_error);
  std::vector<std::atomic<int>> visits(1000);
  for (auto& v : visits) v.store(0);
  util::parallel_for(visits.size(), options, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < visits.size(); ++i) ASSERT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelForPool, ConcurrentExternalCallersBothComplete) {
  // Whichever caller finds the pool busy runs inline; both must still cover
  // their whole index space exactly once.
  constexpr std::size_t kN = 2000;
  constexpr int kRounds = 50;
  const auto caller = [](std::size_t threads, bool& ok) {
    util::ParallelForOptions options;
    options.threads = threads;
    options.chunk = 3;
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::atomic<int>> visits(kN);
      for (auto& v : visits) v.store(0);
      util::parallel_for(kN, options, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
      });
      for (const auto& v : visits) ok &= (v.load() == 1);
    }
  };
  bool ok_a = true;
  bool ok_b = true;
  std::thread a(caller, std::size_t{2}, std::ref(ok_a));
  std::thread b(caller, std::size_t{3}, std::ref(ok_b));
  a.join();
  b.join();
  EXPECT_TRUE(ok_a);
  EXPECT_TRUE(ok_b);
}

#if defined(__linux__)
TEST(ParallelForPool, AutoThreadCountFollowsCpuAffinity) {
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  const auto allowed = static_cast<std::size_t>(CPU_COUNT(&original));
  EXPECT_EQ(util::resolve_threads(0, 100'000), allowed);

  int first = 0;
  while (!CPU_ISSET(first, &original)) ++first;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  CPU_SET(first, &pinned);
  ASSERT_EQ(sched_setaffinity(0, sizeof(pinned), &pinned), 0);
  const std::size_t while_pinned = util::resolve_threads(0, 100'000);
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);

  EXPECT_EQ(while_pinned, 1u);
  EXPECT_EQ(util::resolve_threads(0, 100'000), allowed);
}
#endif

// ---------------------------------------------------------------------------
// Call-site bit-identity at 1 / 2 / 8 threads
// ---------------------------------------------------------------------------

// mc::run_trials: an rng-heavy trial whose sample is the exact bit pattern of
// its draws. Any scheduling leak between trials changes the bytes.
TEST(ParallelForDeterminism, RunTrialsBitIdenticalAcrossThreadCounts) {
  const auto run = [](std::size_t threads) {
    mc::McOptions options;
    options.trials = 64;
    options.seed = 0xD15EA5Eull;
    options.threads = threads;
    const std::function<std::vector<double>(std::size_t, Rng&)> trial =
        [](std::size_t index, Rng& rng) {
          std::vector<double> draws(8);
          for (double& d : draws) d = rng.normal(static_cast<double>(index), 1.0);
          return draws;
        };
    return mc::run_trials<std::vector<double>>(options, trial);
  };

  const auto reference = run(1);
  for (std::size_t threads : {2u, 8u}) {
    const auto parallel = run(threads);
    ASSERT_EQ(parallel.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      for (std::size_t k = 0; k < reference[i].size(); ++k) {
        ASSERT_EQ(std::memcmp(&parallel[i][k], &reference[i][k], sizeof(double)), 0)
            << "threads=" << threads << " trial=" << i << " draw=" << k;
      }
    }
  }
}

// run_retention_study: the flat (level x trial) index space must reproduce
// the sequential per-level sweep byte-for-byte (retention_test pins 1/2/5;
// this pins the 8-thread point the issue calls out).
TEST(ParallelForDeterminism, RetentionStudyBitIdenticalAcrossThreadCounts) {
  mlc::RetentionConfig config = mlc::RetentionConfig::paper_default(2, 8);
  config.times = {1e-2, 1e2};
  config.relax_verify = true;

  config.study.mc.threads = 1;
  const std::string reference = to_json(run_retention_study(config)).dump(2);
  for (std::size_t threads : {2u, 8u}) {
    config.study.mc.threads = threads;
    EXPECT_EQ(to_json(run_retention_study(config)).dump(2), reference)
        << "threads=" << threads;
  }
}

// CellBatch lane sharding: a 16-level word programmed with sharded lanes must
// leave every cell and result bit-identical to the single-thread run.
TEST(ParallelForDeterminism, CellBatchShardingBitIdenticalAcrossThreadCounts) {
  const mlc::QlcConfig config = mlc::QlcConfig::paper_default();
  const std::size_t n_levels = config.allocation.count();

  struct Snapshot {
    std::vector<double> gaps;
    std::vector<oxram::OperationResult> results;
  };
  const auto run = [&](std::size_t threads) {
    Rng rng(0xC0FFEEull);
    std::vector<oxram::OxramParams> devices;
    for (std::size_t k = 0; k < n_levels; ++k) {
      Rng lane_rng = rng.split();
      devices.push_back(
          oxram::sample_device(oxram::OxramParams{}, oxram::OxramVariability{}, lane_rng));
    }
    std::vector<oxram::FastCell> cells;
    oxram::CellBatch batch;
    for (std::size_t k = 0; k < n_levels; ++k) {
      cells.push_back(oxram::FastCell::formed_lrs(devices[k], config.stack));
      cells[k].apply_set(config.set_op);
    }
    for (std::size_t k = 0; k < n_levels; ++k) {
      oxram::ResetOperation reset = config.reset_op;
      reset.iref = config.allocation.levels[k].iref;
      batch.add_reset(cells[k], reset);
    }
    oxram::BatchRunOptions options;
    options.threads = threads;
    Snapshot snap;
    snap.results = batch.run(options);
    for (const oxram::FastCell& cell : cells) snap.gaps.push_back(cell.gap());
    return snap;
  };

  const Snapshot reference = run(1);
  for (std::size_t threads : {2u, 8u}) {
    const Snapshot parallel = run(threads);
    ASSERT_EQ(parallel.gaps.size(), reference.gaps.size());
    for (std::size_t k = 0; k < n_levels; ++k) {
      ASSERT_EQ(std::memcmp(&parallel.gaps[k], &reference.gaps[k], sizeof(double)), 0)
          << "threads=" << threads << " lane=" << k;
      ASSERT_EQ(parallel.results[k].terminated, reference.results[k].terminated);
      ASSERT_EQ(std::memcmp(&parallel.results[k].final_gap,
                            &reference.results[k].final_gap, sizeof(double)),
                0)
          << "threads=" << threads << " lane=" << k;
      ASSERT_EQ(std::memcmp(&parallel.results[k].t_terminate,
                            &reference.results[k].t_terminate, sizeof(double)),
                0)
          << "threads=" << threads << " lane=" << k;
      ASSERT_EQ(std::memcmp(&parallel.results[k].energy_cell,
                            &reference.results[k].energy_cell, sizeof(double)),
                0)
          << "threads=" << threads << " lane=" << k;
    }
  }
}

}  // namespace
}  // namespace oxmlc
