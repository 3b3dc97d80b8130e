#include "util/parallel_for.hpp"

#include <condition_variable>
#include <memory>
#include <system_error>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace oxmlc::util {
namespace {

// CPUs the calling thread may run on: its affinity mask where the platform
// exposes one (a process pinned with taskset or a cgroup cpuset sees its own
// share, not the whole host), else hardware_concurrency.
std::size_t available_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
#endif
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

// True while this thread runs a dispatch's participant: always on a pool
// worker, and on a caller for the duration of its own dispatch.
thread_local bool t_in_dispatch = false;

class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    for (const std::unique_ptr<Worker>& worker : workers_) {
      {
        const std::lock_guard<std::mutex> lock(worker->mutex);
        worker->stop = true;
      }
      worker->wake.notify_one();
    }
    for (const std::unique_ptr<Worker>& worker : workers_) worker->thread.join();
  }

  bool run(std::size_t helpers, const std::function<void()>& participant) {
    if (t_in_dispatch) return false;
    const std::unique_lock<std::mutex> dispatch(dispatch_mutex_, std::try_to_lock);
    if (!dispatch.owns_lock()) return false;
    helpers = grow(helpers);

    for (std::size_t i = 0; i < helpers; ++i) {
      Worker& worker = *workers_[i];
      {
        const std::lock_guard<std::mutex> lock(worker.mutex);
        worker.task = &participant;
      }
      worker.wake.notify_one();
    }
    t_in_dispatch = true;
    participant();
    t_in_dispatch = false;
    // Withdraw the task from workers that have not woken yet; each of the
    // others took it under its own mutex and is counted in active_.
    for (std::size_t i = 0; i < helpers; ++i) {
      const std::lock_guard<std::mutex> lock(workers_[i]->mutex);
      workers_[i]->task = nullptr;
    }
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_.wait(lock, [this] { return active_ == 0; });
    return true;
  }

 private:
  struct Worker {
    std::mutex mutex;
    std::condition_variable wake;
    const std::function<void()>* task = nullptr;  // posted and not yet taken
    bool stop = false;
    std::thread thread;
  };

  // Starts workers until there are `helpers`; returns how many exist when the
  // system refuses more threads (the call then runs narrower, never fails).
  std::size_t grow(std::size_t helpers) {
    workers_.reserve(helpers);  // push_back below must not throw after a start
    while (workers_.size() < helpers) {
      auto worker = std::make_unique<Worker>();
      try {
        worker->thread = std::thread([this, w = worker.get()] { work(*w); });
      } catch (const std::system_error&) {
        break;
      }
      workers_.push_back(std::move(worker));
    }
    return std::min(helpers, workers_.size());
  }

  void work(Worker& worker) {
    t_in_dispatch = true;
    for (;;) {
      const std::function<void()>* task = nullptr;
      {
        std::unique_lock<std::mutex> lock(worker.mutex);
        worker.wake.wait(lock, [&worker] { return worker.task != nullptr || worker.stop; });
        if (worker.stop) return;
        task = worker.task;
        worker.task = nullptr;
        const std::lock_guard<std::mutex> done(done_mutex_);
        ++active_;
      }
      (*task)();
      const std::lock_guard<std::mutex> done(done_mutex_);
      if (--active_ == 0) done_.notify_one();
    }
  }

  std::mutex dispatch_mutex_;  // held by the one caller whose dispatch runs
  std::vector<std::unique_ptr<Worker>> workers_;  // grows under dispatch_mutex_
  std::mutex done_mutex_;
  std::condition_variable done_;
  std::size_t active_ = 0;  // workers running the current dispatch's task
};

Pool& pool() {
  static Pool instance;
  return instance;
}

struct NoContext {};

}  // namespace

std::size_t resolve_threads(std::size_t requested, std::size_t items) {
  std::size_t threads = requested != 0 ? requested : available_cpus();
  threads = std::min(threads, items != 0 ? items : std::size_t{1});
  return std::max<std::size_t>(1, threads);
}

std::size_t resolve_chunk(std::size_t requested, std::size_t items, std::size_t threads) {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, items / (threads * 8));
}

bool detail::dispatch(std::size_t helpers, const std::function<void()>& participant) {
  return pool().run(helpers, participant);
}

std::size_t parallel_for(std::size_t n, const ParallelForOptions& options,
                         const std::function<void(std::size_t, std::size_t)>& body) {
  return parallel_for<NoContext>(
      n, options, [] { return NoContext{}; },
      [&body](std::size_t begin, std::size_t end, NoContext&) { body(begin, end); });
}

}  // namespace oxmlc::util
