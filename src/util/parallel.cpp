#include "src/util/parallel.h"

#include <atomic>
#include <exception>
#include <memory>

#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace atom {

namespace {

// Pool telemetry, aggregated process-wide across every ThreadPool (a
// process normally runs one shared pool; benches that host several see
// one combined series, which is what "how busy are my cores" wants).
// Counters/gauges are always on; queue-dwell histograms sample only when
// obs::TimingEnabled().
struct PoolMetrics {
  obs::Gauge* queue_depth;
  obs::Gauge* queue_depth_peak;
  obs::Counter* tasks[3];
  obs::Histogram* dwell[3];

  static PoolMetrics& Get() {
    static PoolMetrics m = [] {
      obs::Registry& reg = obs::Registry::Global();
      PoolMetrics out;
      out.queue_depth = reg.GetGauge("atom_pool_queue_depth");
      out.queue_depth_peak = reg.GetGauge("atom_pool_queue_depth_peak");
      const char* classes[3] = {"default", "engine", "transport"};
      for (size_t c = 0; c < 3; c++) {
        std::string label = std::string("{class=\"") + classes[c] + "\"}";
        out.tasks[c] = reg.GetCounter("atom_pool_tasks_total" + label);
        out.dwell[c] =
            reg.GetHistogram("atom_pool_task_dwell_us" + label);
      }
      return out;
    }();
    return m;
  }
};

// Buckets submissions by the weight bands the callers actually use:
// sender-lane drains run at 1<<40 (src/net/mesh.cpp), engine hop/exit
// tasks at layer strides of 1<<20 (src/core/engine.cpp), everything else
// at the default 0.
uint8_t WeightClass(int64_t weight) {
  if (weight >= (int64_t{1} << 40)) {
    return 2;  // transport
  }
  if (weight >= (int64_t{1} << 20)) {
    return 1;  // engine
  }
  return 0;
}

}  // namespace

// One ParallelFor region. Iterations are claimed with an atomic cursor
// (dynamic scheduling in chunks of one: crypto work per item is uniform but
// this keeps tail latency low when n is not a multiple of the worker
// count). The region is done when every iteration has been claimed AND
// executed; helpers that arrive late see next >= n and return immediately.
struct ThreadPool::ForState {
  ForState(size_t total, const std::function<void(size_t)>& f)
      : n(total), fn(&f) {}

  const size_t n;
  const std::function<void(size_t)>* fn;
  std::atomic<size_t> next{0};
  std::atomic<size_t> completed{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  // first exception, written under mu
};

void ThreadPool::RunSlice(ForState& state) {
  for (;;) {
    size_t i = state.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= state.n) {
      return;
    }
    if (!state.failed.load(std::memory_order_relaxed)) {
      try {
        (*state.fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state.mu);
        if (state.error == nullptr) {
          state.error = std::current_exception();
        }
        state.failed.store(true, std::memory_order_relaxed);
      }
    }
    if (state.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        state.n) {
      // Taking the lock orders the notification after the waiter's
      // predicate check, so the wake-up cannot be lost.
      std::lock_guard<std::mutex> lock(state.mu);
      state.cv.notify_all();
    }
  }
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = 1;
  }
  threads_.reserve(num_threads);
  for (size_t t = 0; t < num_threads; t++) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

void ThreadPool::WorkerLoop() {
  PoolMetrics& metrics = PoolMetrics::Get();
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        // Timed releases whose time has come join the ready queue.
        const auto now = std::chrono::steady_clock::now();
        while (!timed_.empty() && timed_.begin()->first <= now) {
          auto node = timed_.extract(timed_.begin());
          tasks_.emplace(node.mapped().first, std::move(node.mapped().second));
          metrics.queue_depth_peak->UpdateMax(
              static_cast<int64_t>(tasks_.size()));
        }
        if (!tasks_.empty()) {
          break;
        }
        if (!timed_.empty()) {
          // A copy: another worker may promote and free that entry while
          // this one waits.
          const auto next_due = timed_.begin()->first;
          cv_.wait_until(lock, next_due);
        } else if (shutdown_) {
          return;  // shutdown with nothing left to run
        } else {
          cv_.wait(lock);
        }
      }
      auto it = tasks_.begin();  // highest weight, FIFO within a weight
      task = std::move(it->second);
      tasks_.erase(it);
      metrics.queue_depth->Set(static_cast<int64_t>(tasks_.size()));
      if (!tasks_.empty()) {
        cv_.notify_one();  // releases promoted together need more hands
      }
    }
    if (task.enqueued != std::chrono::steady_clock::time_point{}) {
      // Sampled only when timing was enabled at submit; pure observation
      // (the clock read happens outside mu_ and never reorders work).
      auto dwell = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - task.enqueued);
      metrics.dwell[task.weight_class]->Observe(
          static_cast<uint64_t>(dwell.count()));
    }
    task.fn();
  }
}

void ThreadPool::Submit(std::function<void()> task, int64_t weight,
                        std::chrono::steady_clock::time_point not_before) {
  PoolMetrics& metrics = PoolMetrics::Get();
  const auto now = std::chrono::steady_clock::now();
  const bool timed = not_before > now;
  QueuedTask queued;
  queued.fn = std::move(task);
  queued.weight_class = WeightClass(weight);
  if (obs::TimingEnabled()) {
    queued.enqueued = timed ? not_before : now;  // dwell counts from due
  }
  metrics.tasks[queued.weight_class]->Add(1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Accepted even during shutdown: the destructor drains the queue
    // before joining, so a task Submitted by a still-running task is
    // executed rather than aborting the process.
    if (timed) {
      timed_.emplace(not_before, std::make_pair(weight, std::move(queued)));
    } else {
      tasks_.emplace(weight, std::move(queued));
      const auto depth = static_cast<int64_t>(tasks_.size());
      metrics.queue_depth->Set(depth);
      metrics.queue_depth_peak->UpdateMax(depth);
    }
  }
  // A new timed release may be due before the one idle workers wait for.
  cv_.notify_one();
}

void ThreadPool::For(size_t max_workers, size_t n,
                     const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (max_workers <= 1 || n == 1) {
    for (size_t i = 0; i < n; i++) {
      fn(i);
    }
    return;
  }
  auto state = std::make_shared<ForState>(n, fn);
  // The caller is one worker; helpers never exceed the pool size or the
  // iteration count. shared_ptr keeps the state alive for helpers that are
  // dequeued after the region already drained.
  size_t helpers = std::min(max_workers - 1, std::min(n - 1, num_threads()));
  for (size_t h = 0; h < helpers; h++) {
    Submit([state] { RunSlice(*state); });
  }
  RunSlice(*state);
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] {
      return state->completed.load(std::memory_order_acquire) == n;
    });
  }
  if (state->error != nullptr) {
    std::rethrow_exception(state->error);
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(HardwareThreads());
  return pool;
}

void ParallelFor(size_t workers, size_t n,
                 const std::function<void(size_t)>& fn) {
  ThreadPool::Shared().For(workers, n, fn);
}

SerialExecutor::SerialExecutor(ThreadPool* pool)
    : pool_(pool != nullptr ? pool : &ThreadPool::Shared()) {}

SerialExecutor::~SerialExecutor() { Drain(); }

void SerialExecutor::Submit(std::function<void()> task) {
  std::lock_guard<std::mutex> lock(mu_);
  queue_.push_back(std::move(task));
  if (!active_) {
    active_ = true;
    pool_->Submit([this] { Pump(); });
  }
}

void SerialExecutor::Pump() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!queue_.empty()) {
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
  // active_ clears only once the queue is empty, so at most one pump task
  // exists and tasks of one executor never run concurrently.
  active_ = false;
  cv_.notify_all();
}

void SerialExecutor::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return queue_.empty() && !active_; });
}

size_t HardwareThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace atom
