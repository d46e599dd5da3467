// Unit tests for src/util: hex, byte helpers, serialization, RNG, parallel.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/hex.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "src/util/serde.h"

namespace atom {
namespace {

TEST(Hex, RoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  std::string hex = HexEncode(BytesView(data));
  EXPECT_EQ(hex, "0001abff7f");
  auto back = HexDecode(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(Hex, DecodeUppercase) {
  auto out = HexDecode("DEADBEEF");
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, (Bytes{0xde, 0xad, 0xbe, 0xef}));
}

TEST(Hex, DecodeRejectsOddLength) {
  EXPECT_FALSE(HexDecode("abc").has_value());
}

TEST(Hex, DecodeRejectsNonHex) {
  EXPECT_FALSE(HexDecode("zz").has_value());
}

TEST(Hex, EmptyString) {
  EXPECT_EQ(HexEncode(BytesView()), "");
  auto out = HexDecode("");
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST(Bytes, Concat) {
  Bytes a = {1, 2}, b = {3}, c;
  Bytes out = Concat({BytesView(a), BytesView(b), BytesView(c)});
  EXPECT_EQ(out, (Bytes{1, 2, 3}));
}

TEST(Bytes, ConstantTimeEqual) {
  Bytes a = {1, 2, 3}, b = {1, 2, 3}, c = {1, 2, 4}, d = {1, 2};
  EXPECT_TRUE(ConstantTimeEqual(BytesView(a), BytesView(b)));
  EXPECT_FALSE(ConstantTimeEqual(BytesView(a), BytesView(c)));
  EXPECT_FALSE(ConstantTimeEqual(BytesView(a), BytesView(d)));
}

TEST(Serde, PrimitivesRoundTrip) {
  ByteWriter w;
  w.U8(0xab);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.Var(Bytes{9, 8, 7});
  Bytes buf = w.Take();

  ByteReader r{BytesView(buf)};
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.Var(), (Bytes{9, 8, 7}));
  EXPECT_TRUE(r.Done());
}

TEST(Serde, ReaderFailsOnTruncation) {
  Bytes buf = {1, 2, 3};
  ByteReader r{BytesView(buf)};
  EXPECT_FALSE(r.U32().has_value());
}

TEST(Serde, VarFailsOnBadLength) {
  ByteWriter w;
  w.U32(1000);  // claims 1000 bytes follow; none do
  Bytes buf = w.Take();
  ByteReader r{BytesView(buf)};
  EXPECT_FALSE(r.Var().has_value());
}

TEST(Rng, Deterministic) {
  Rng a(42u), b(42u);
  EXPECT_EQ(a.NextBytes(64), b.NextBytes(64));
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1u), b(2u);
  EXPECT_NE(a.NextBytes(32), b.NextBytes(32));
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7u);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(rng.NextBelow(10), 10u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(7u);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; i++) {
    seen.insert(rng.NextBelow(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, ForkIndependent) {
  Rng parent(3u);
  Rng child = parent.Fork();
  // The child stream differs from the parent's continued stream.
  EXPECT_NE(parent.NextBytes(32), child.NextBytes(32));
}

TEST(Parallel, RunsAllIndices) {
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(4, 100, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(Parallel, InlineWhenSingleWorker) {
  std::vector<int> hits(10, 0);  // not atomic: must run on caller thread
  ParallelFor(1, 10, [&](size_t i) { hits[i]++; });
  for (int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(Parallel, ZeroIterations) {
  ParallelFor(4, 0, [](size_t) { FAIL(); });
}

TEST(Parallel, MoreWorkersThanWork) {
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(16, 3, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(Parallel, RethrowsFirstWorkerException) {
  // A throw from fn(i) on a pool thread must surface on the caller, not
  // terminate the process.
  EXPECT_THROW(ParallelFor(4, 100,
                           [&](size_t i) {
                             if (i == 37) {
                               throw std::runtime_error("worker boom");
                             }
                           }),
               std::runtime_error);
  // The shared pool is still usable afterwards.
  std::atomic<int> count{0};
  ParallelFor(4, 50, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(Parallel, RethrowsInlineException) {
  EXPECT_THROW(
      ParallelFor(1, 10, [](size_t) { throw std::runtime_error("inline"); }),
      std::runtime_error);
}

// Sync state for tasks that outlive the test scope briefly: heap-shared so
// a task blocked on mu while the waiter already returned cannot touch a
// destroyed mutex.
struct TaskSync {
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;  // guarded by mu
  std::atomic<size_t> total{0};
};

TEST(ThreadPoolTest, SubmittedTasksAllRun) {
  auto sync = std::make_shared<TaskSync>();
  constexpr size_t kTasks = 64;
  for (size_t t = 0; t < kTasks; t++) {
    ThreadPool::Shared().Submit([sync] {
      std::lock_guard<std::mutex> lock(sync->mu);
      if (++sync->done == kTasks) {
        sync->cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(sync->mu);
  sync->cv.wait(lock, [&] { return sync->done == kTasks; });
  EXPECT_EQ(sync->done, kTasks);
}

TEST(ThreadPoolTest, NestedParallelForFromPoolTasksCompletes) {
  // Hop tasks run ParallelFor from inside pool threads; the caller
  // participates in its own region, so this must not deadlock even when
  // every pool thread is occupied by an outer task.
  const size_t outer = ThreadPool::Shared().num_threads() + 2;
  auto sync = std::make_shared<TaskSync>();
  for (size_t t = 0; t < outer; t++) {
    ThreadPool::Shared().Submit([sync, outer] {
      ParallelFor(4, 25, [&](size_t) { sync->total.fetch_add(1); });
      std::lock_guard<std::mutex> lock(sync->mu);
      if (++sync->done == outer) {
        sync->cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(sync->mu);
  sync->cv.wait(lock, [&] { return sync->done == outer; });
  EXPECT_EQ(sync->total.load(), outer * 25);
}

TEST(ThreadPoolTest, DedicatedPoolDrainsOnDestruction) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int t = 0; t < 16; t++) {
      pool.Submit([&] { count.fetch_add(1); });
    }
  }  // destructor drains the queue before joining
  EXPECT_EQ(count.load(), 16);
}

using Clock = std::chrono::steady_clock;

TEST(ThreadPoolTimedRelease, NeverRunsBeforeItsDueTime) {
  ThreadPool pool(2);
  constexpr int kTasks = 8;
  std::mutex mu;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> runs;
  const Clock::time_point start = Clock::now();
  const Clock::time_point first = start + std::chrono::milliseconds(200);
  for (int t = 0; t < kTasks; t++) {
    const Clock::time_point due = first + std::chrono::milliseconds(5 * t);
    pool.Submit(
        [&, due] {
          std::lock_guard<std::mutex> lock(mu);
          runs.emplace_back(due, Clock::now());
        },
        0, due);
  }
  // An untimed task is not held behind the timed ones.
  std::atomic<bool> untimed{false};
  pool.Submit([&] { untimed.store(true); });
  while (!untimed.load()) {
    std::this_thread::yield();
  }
  EXPECT_LT(Clock::now(), first)
      << "the untimed task waited for the timed releases";
  while (true) {
    std::lock_guard<std::mutex> lock(mu);
    if (runs.size() == kTasks) {
      break;
    }
  }
  for (const auto& [due, ran] : runs) {
    EXPECT_GE(ran, due);
  }
}

TEST(ThreadPoolTimedRelease, WeightOrderHoldsAmongDueTasks) {
  // One worker, held by a gate while timed tasks of several weights come
  // due: once released it runs them highest weight first, FIFO within a
  // weight, exactly like tasks submitted ready.
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool open = false;
  std::vector<int> order;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  const Clock::time_point due = Clock::now() + std::chrono::milliseconds(5);
  const int64_t weights[] = {1, 7, 3, 7, 0};
  for (int i = 0; i < 5; i++) {
    pool.Submit(
        [&, i] {
          std::lock_guard<std::mutex> lock(mu);
          order.push_back(i);
        },
        weights[i], due + std::chrono::microseconds(i));
  }
  pool.Submit(
      [&] {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(5);
      },
      2);
  std::this_thread::sleep_until(due + std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
  }
  cv.notify_all();
  while (true) {
    std::lock_guard<std::mutex> lock(mu);
    if (order.size() == 6) {
      break;
    }
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 5, 0, 4}));
}

TEST(ThreadPoolTimedRelease, ShutdownRunsPendingReleasesWithoutHanging) {
  std::atomic<int> ran{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point due = start + std::chrono::milliseconds(50);
  Clock::time_point ran_at;
  {
    ThreadPool pool(2);
    pool.Submit(
        [&] {
          ran_at = Clock::now();
          ran.fetch_add(1);
        },
        0, due);
    pool.Submit([&] { ran.fetch_add(1); });
  }  // the destructor waits for the release, then joins
  EXPECT_EQ(ran.load(), 2);
  EXPECT_GE(ran_at, due);
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(5));
}

}  // namespace
}  // namespace atom
