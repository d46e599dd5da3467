// Persistent worker pool shared by the data-parallel crypto loops
// (ParallelFor: shuffle rerandomization, reencryption, proof batches,
// submission-proof verification in Round::SubmitNizkBatch/SubmitTrapBatch,
// exit-phase KEM decryption), the round engine's dependency-scheduled
// hop, sort, check, and finalize tasks (src/core/engine.h), and — via
// SerialExecutor — the TCP transport's inbound handler queues
// (src/net/node_process.h), whose socket reader threads hand protocol work
// to the pool instead of processing it on the blocking read path.
//
// The paper's Figure 7 measures exactly what ParallelFor provides: how one
// mixing iteration speeds up with core count. Intra-hop parallelism and
// cross-group/cross-layer pipelining run on one shared set of threads, so
// they compose instead of oversubscribing the machine.
#ifndef SRC_UTIL_PARALLEL_H_
#define SRC_UTIL_PARALLEL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace atom {

class ThreadPool {
 public:
  // Spawns `num_threads` persistent workers (at least one).
  explicit ThreadPool(size_t num_threads);
  // Drains queued tasks, timed ones at their due time, then joins the
  // workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  // Enqueues an independent task. Tasks may Submit further tasks and may
  // run For() regions; they must not block waiting for a task that has not
  // been submitted yet, and must not let exceptions escape (there is no
  // caller to rethrow to — an escaping exception terminates the process).
  //
  // `weight` orders the ready queue: workers always take the
  // highest-weight queued task, FIFO among equal weights (so weight-0
  // callers keep the pool's historical FIFO behavior exactly). The round
  // engine uses this to drain deep/exit-stage hops before fresh intake
  // (latency-aware scheduling); the TCP transport runs its sender-lane
  // drains above the crypto so sealed frames never wait behind queued
  // mixing work. Weights order only — a finite task set (the hop DAG is
  // one) cannot starve.
  //
  // A `not_before` later than now makes the task a timed release: it joins
  // the ready queue at that time, an idle worker waits for it (no thread is
  // added), and its queue dwell counts from then. The TCP transport
  // releases frames at their emulated due time this way.
  void Submit(std::function<void()> task, int64_t weight = 0,
              std::chrono::steady_clock::time_point not_before = {});

  // Runs fn(i) for i in [0, n) using up to `max_workers` threads. The
  // caller participates (claims iterations itself), so the region completes
  // even when every pool thread is busy — which makes nested use from pool
  // tasks deadlock-free. Blocks until all iterations finish. If fn throws,
  // the first exception is captured and rethrown on the caller after the
  // region drains; remaining unclaimed iterations are skipped.
  void For(size_t max_workers, size_t n, const std::function<void(size_t)>& fn);

  // Process-wide pool with HardwareThreads() workers, created on first use.
  static ThreadPool& Shared();

 private:
  struct ForState;
  // One parked task plus its telemetry: the weight class it was admitted
  // under (transport / engine / default — see WeightClass in parallel.cpp)
  // and, when obs::TimingEnabled(), its enqueue timestamp so the worker
  // that dequeues it can record queue dwell. A default-constructed
  // timestamp means "not sampled".
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued{};
    uint8_t weight_class = 0;
  };
  static void RunSlice(ForState& state);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  // Ready queue ordered by weight (descending); multimap keeps equal
  // weights in insertion order, so this degenerates to the old FIFO deque
  // when every caller uses the default weight.
  std::multimap<int64_t, QueuedTask, std::greater<int64_t>> tasks_;
  // Timed releases not yet due, by due time, with the weight each joins
  // the ready queue under.
  std::multimap<std::chrono::steady_clock::time_point,
                std::pair<int64_t, QueuedTask>>
      timed_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

// Runs fn(i) for i in [0, n) using up to `workers` threads of the shared
// pool. With workers <= 1 runs inline on the caller's thread. fn must be
// safe to call concurrently for distinct i. Blocks until all iterations
// complete; rethrows the first exception fn throws.
void ParallelFor(size_t workers, size_t n,
                 const std::function<void(size_t)>& fn);

// FIFO serial queue on top of a ThreadPool: tasks run one at a time, in
// submission order, as pool tasks — never more than one in flight. This is
// the per-server message discipline of the TCP transport's NodeProcess
// (socket reader threads Submit inbound deliveries here so handlers run on
// the pool, in arrival order, off the blocking read path). Tasks must not
// throw (same contract as ThreadPool::Submit) and must not block on later
// submissions.
class SerialExecutor {
 public:
  // Uses `pool`, or ThreadPool::Shared() when null.
  explicit SerialExecutor(ThreadPool* pool = nullptr);
  // Drains outstanding tasks before returning.
  ~SerialExecutor();

  SerialExecutor(const SerialExecutor&) = delete;
  SerialExecutor& operator=(const SerialExecutor&) = delete;

  // Enqueues a task; schedules a pump task on the pool if none is active.
  // Thread-safe.
  void Submit(std::function<void()> task);

  // Blocks until every task submitted before this call has finished.
  void Drain();

 private:
  void Pump();

  ThreadPool* pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool active_ = false;  // a pump task is scheduled or running
};

// Number of hardware threads (>= 1).
size_t HardwareThreads();

}  // namespace atom

#endif  // SRC_UTIL_PARALLEL_H_
