// Tests for the parallel DAG runtime (src/runtime): thread pool semantics
// (futures, exception and Status propagation, drain-on-shutdown), the
// dependency-driven parallel scheduler (ordering, error cut-off, inactive
// nodes), and the asynchronous materialization pipeline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/file_util.h"
#include "common/status.h"
#include "dataflow/data_collection.h"
#include "graph/dag.h"
#include "obs/metrics.h"
#include "runtime/async_materializer.h"
#include "runtime/parallel_scheduler.h"
#include "runtime/thread_pool.h"
#include "storage/cost_stats.h"
#include "storage/store.h"
#include "writer_gate_clock.h"

namespace helix {
namespace runtime {
namespace {

using dataflow::DataCollection;
using dataflow::Schema;
using dataflow::TableData;
using dataflow::Value;

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolTest, RunsSubmittedTasksAndReturnsValues) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, WorkersRunConcurrently) {
  // Two tasks that can only both finish if they overlap in time: each
  // waits for the other to have started. A serial pool would deadlock;
  // the generous timeout turns that deadlock into a test failure.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  auto task = [&]() {
    std::unique_lock<std::mutex> lock(mu);
    ++started;
    cv.notify_all();
    return cv.wait_for(lock, std::chrono::seconds(10),
                       [&]() { return started >= 2; });
  };
  auto a = pool.Submit(task);
  auto b = pool.Submit(task);
  EXPECT_TRUE(a.get());
  EXPECT_TRUE(b.get());
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);  // single worker: tasks queue up behind each other
    for (int i = 0; i < 16; ++i) {
      pool.Schedule([&done]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done.fetch_add(1);
      });
    }
    // Destruction begins with most tasks still queued.
  }
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(1);
  auto future = pool.Submit(
      []() -> int { throw std::runtime_error("operator exploded"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, StatusPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto ok = pool.Submit([]() { return Status::OK(); });
  auto err = pool.Submit(
      []() { return Status::ResourceExhausted("budget gone"); });
  EXPECT_TRUE(ok.get().ok());
  Status status = err.get();
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_EQ(status.message(), "budget gone");
}

TEST(ThreadPoolTest, WaitIdleObservesCompletion) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.Schedule([&done]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1);
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 8);
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

// --- ParallelDagScheduler ---------------------------------------------------

// Builds the diamond a -> {b, c} -> d.
graph::Dag Diamond() {
  graph::Dag dag;
  dag.AddNodes(4);
  EXPECT_TRUE(dag.AddEdge(0, 1).ok());
  EXPECT_TRUE(dag.AddEdge(0, 2).ok());
  EXPECT_TRUE(dag.AddEdge(1, 3).ok());
  EXPECT_TRUE(dag.AddEdge(2, 3).ok());
  return dag;
}

TEST(ParallelDagSchedulerTest, RespectsDependencyOrderOnDiamond) {
  graph::Dag dag = Diamond();
  std::mutex mu;
  std::vector<int> order;
  ThreadPool pool(4);
  ParallelDagScheduler scheduler(&dag, std::vector<bool>(4, true));
  Status status = scheduler.Run(&pool, [&](int node) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(node);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 0);
  EXPECT_EQ(order.back(), 3);
  EXPECT_EQ(std::set<int>(order.begin(), order.end()),
            (std::set<int>{0, 1, 2, 3}));
}

TEST(ParallelDagSchedulerTest, EachNodeRunsExactlyOnce) {
  // A wider DAG: 2 roots, 8 mids, 1 sink.
  graph::Dag dag;
  dag.AddNodes(11);
  for (int mid = 2; mid < 10; ++mid) {
    EXPECT_TRUE(dag.AddEdge(mid % 2, mid).ok());
    EXPECT_TRUE(dag.AddEdge(mid, 10).ok());
  }
  std::vector<std::atomic<int>> runs(11);
  ThreadPool pool(4);
  ParallelDagScheduler scheduler(&dag, std::vector<bool>(11, true));
  Status status = scheduler.Run(&pool, [&](int node) {
    runs[static_cast<size_t>(node)].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok());
  for (int i = 0; i < 11; ++i) {
    EXPECT_EQ(runs[static_cast<size_t>(i)].load(), 1) << "node " << i;
  }
}

TEST(ParallelDagSchedulerTest, ErrorStopsDescendants) {
  // Chain 0 -> 1 -> 2; node 1 fails, node 2 must never start.
  graph::Dag dag;
  dag.AddNodes(3);
  EXPECT_TRUE(dag.AddEdge(0, 1).ok());
  EXPECT_TRUE(dag.AddEdge(1, 2).ok());
  std::atomic<bool> tail_ran{false};
  ThreadPool pool(2);
  ParallelDagScheduler scheduler(&dag, std::vector<bool>(3, true));
  Status status = scheduler.Run(&pool, [&](int node) -> Status {
    if (node == 1) {
      return Status::Internal("node 1 died");
    }
    if (node == 2) {
      tail_ran.store(true);
    }
    return Status::OK();
  });
  EXPECT_TRUE(status.IsInternal());
  EXPECT_EQ(status.message(), "node 1 died");
  EXPECT_FALSE(tail_ran.load());
}

TEST(ParallelDagSchedulerTest, InactiveNodesAreSkippedAndUnblockChildren) {
  // Diamond with node 1 inactive: 3 still runs once 2 is done.
  graph::Dag dag = Diamond();
  std::vector<bool> active = {true, false, true, true};
  std::mutex mu;
  std::vector<int> order;
  ThreadPool pool(2);
  ParallelDagScheduler scheduler(&dag, active);
  Status status = scheduler.Run(&pool, [&](int node) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(node);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(std::set<int>(order.begin(), order.end()),
            (std::set<int>{0, 2, 3}));
}

TEST(ParallelDagSchedulerTest, EmptyActiveSetReturnsOk) {
  graph::Dag dag = Diamond();
  ThreadPool pool(2);
  ParallelDagScheduler scheduler(&dag, std::vector<bool>(4, false));
  Status status = scheduler.Run(&pool, [](int) {
    return Status::Internal("must not run");
  });
  EXPECT_TRUE(status.ok());
}

TEST(ParallelDagSchedulerTest, WideFanoutOverlapsWork) {
  // 8 independent nodes each sleeping 20ms on a 8-wide pool: total must be
  // well under the 160ms a serial execution would take. Generous margin to
  // survive noisy CI machines.
  graph::Dag dag;
  dag.AddNodes(8);
  ThreadPool pool(8);
  ParallelDagScheduler scheduler(&dag, std::vector<bool>(8, true));
  auto start = std::chrono::steady_clock::now();
  Status status = scheduler.Run(&pool, [](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return Status::OK();
  });
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_TRUE(status.ok());
  EXPECT_LT(elapsed.count(), 120);
}

// --- AsyncMaterializer ------------------------------------------------------

using testutil::WriterGateClock;

DataCollection MakeCollection(const std::string& content, int rows = 1) {
  auto table = std::make_shared<TableData>(Schema::AllStrings({"v"}));
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(table->AppendRow({Value(content)}).ok());
  }
  return DataCollection::FromTable(table);
}

AsyncMaterializer::Request MakeRequest(uint64_t signature,
                                       const std::string& content = "",
                                       int rows = 1) {
  AsyncMaterializer::Request request;
  request.signature = signature;
  request.node_name = "n" + std::to_string(signature);
  request.data = MakeCollection(
      content.empty() ? "payload-" + std::to_string(signature) : content,
      rows);
  return request;
}

class AsyncMaterializerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("helix-async-mat-test");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.value();
  }
  void TearDown() override { (void)RemoveDirRecursively(dir_); }

  std::unique_ptr<storage::IntermediateStore> OpenStore(
      int64_t budget = 1 << 20, Clock* clock = SystemClock::Default()) {
    storage::StoreOptions options;
    options.budget_bytes = budget;
    options.clock = clock;
    auto store = storage::IntermediateStore::Open(dir_, options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(store).value();
  }

  int64_t Count(const std::string& name) {
    return metrics_.GetCounter("materializer." + name)->Value();
  }

  std::string dir_;
  obs::MetricsRegistry metrics_;
};

TEST_F(AsyncMaterializerTest, WritesLandInStoreAndRecordStoredSizes) {
  auto store = OpenStore();
  storage::CostStatsRegistry stats;
  AsyncMaterializer materializer(store.get());
  materializer.EnableTelemetry(&metrics_);
  for (int i = 0; i < 4; ++i) {
    AsyncMaterializer::Request request = MakeRequest(100 + i);
    request.iteration = 7;
    request.stats = &stats;
    materializer.Enqueue(std::move(request));
  }
  materializer.Drain();
  EXPECT_EQ(Count("writes_ok"), 4);
  EXPECT_EQ(Count("writes_failed"), 0);
  for (uint64_t sig = 100; sig < 104; ++sig) {
    auto entry = store->GetEntry(sig);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->iteration, 7);
    // The serialized size, not the in-memory estimate, reaches the stats.
    auto recorded = stats.Get(sig);
    ASSERT_TRUE(recorded.has_value());
    EXPECT_EQ(recorded->size_bytes, entry->size_bytes);
    EXPECT_FALSE(materializer.IsPending(sig));
  }
  EXPECT_EQ(materializer.Pending(), 0u);
}

TEST_F(AsyncMaterializerTest, OverBudgetWriteIsCountedAsFailed) {
  auto store = OpenStore(/*budget=*/16);  // nothing real fits
  storage::CostStatsRegistry stats;
  AsyncMaterializer materializer(store.get());
  materializer.EnableTelemetry(&metrics_);
  AsyncMaterializer::Request request =
      MakeRequest(42, "way too large for sixteen bytes", 64);
  request.stats = &stats;
  materializer.Enqueue(std::move(request));
  materializer.Drain();
  EXPECT_EQ(Count("writes_ok"), 0);
  EXPECT_EQ(Count("writes_failed"), 1);
  EXPECT_FALSE(store->GetEntry(42).has_value());
  EXPECT_EQ(store->TotalBytes(), 0);
  EXPECT_EQ(stats.size(), 0u);  // no size for a result that is not stored
}

TEST_F(AsyncMaterializerTest, DestructorFinishesOutstandingWrites) {
  auto store = OpenStore();
  {
    AsyncMaterializer materializer(store.get());
    for (int i = 0; i < 8; ++i) {
      materializer.Enqueue(MakeRequest(200 + i, "data", 4));
    }
    // Destroyed with writes likely still queued.
  }
  EXPECT_EQ(store->NumEntries(), 8u);
}

TEST_F(AsyncMaterializerTest, DuplicateSignatureFailsWithAlreadyExists) {
  auto store = OpenStore();
  AsyncMaterializer materializer(store.get());
  materializer.EnableTelemetry(&metrics_);
  for (int i = 0; i < 2; ++i) {
    materializer.Enqueue(MakeRequest(7, "same"));  // same key twice
  }
  materializer.Drain();
  EXPECT_EQ(Count("writes_ok"), 1);
  EXPECT_EQ(Count("writes_failed"), 1);
  EXPECT_EQ(store->NumEntries(), 1u);
}

// Concurrent store hammering: the mutex-protected manifest/budget must
// stay consistent under parallel Put/Get/Remove from many threads.
TEST_F(AsyncMaterializerTest, StoreSurvivesConcurrentAccess) {
  auto store = OpenStore();
  ThreadPool pool(8);
  std::vector<std::future<Status>> puts;
  for (int i = 0; i < 32; ++i) {
    uint64_t sig = 1000 + static_cast<uint64_t>(i);
    puts.push_back(pool.Submit([&store, sig]() {
      return store->Put(sig, "n", MakeCollection("x", 8), 0);
    }));
  }
  for (auto& f : puts) {
    EXPECT_TRUE(f.get().ok());
  }
  std::vector<std::future<bool>> gets;
  for (int i = 0; i < 32; ++i) {
    uint64_t sig = 1000 + static_cast<uint64_t>(i);
    gets.push_back(pool.Submit([&store, sig]() {
      return store->Get(sig).ok() && store->Remove(sig).ok();
    }));
  }
  for (auto& f : gets) {
    EXPECT_TRUE(f.get());
  }
  EXPECT_EQ(store->NumEntries(), 0u);
  EXPECT_EQ(store->TotalBytes(), 0);
}

// --- WaitFor: readers of a pending signature --------------------------------

// WaitFor(signature) writes that signature's queued request on the calling
// thread — it returns while the writer thread is held inside another Put —
// and leaves every other request queued for the writer thread.
TEST_F(AsyncMaterializerTest, WaitForWritesOnlyItsSignature) {
  WriterGateClock clock;
  auto store = OpenStore(1 << 20, &clock);
  AsyncMaterializer materializer(store.get());
  materializer.Enqueue(MakeRequest(900));  // the writer thread takes this
  clock.WaitUntilWriterParked();
  materializer.Enqueue(MakeRequest(901));
  materializer.Enqueue(MakeRequest(910));
  materializer.Enqueue(MakeRequest(902));
  EXPECT_TRUE(materializer.IsPending(910));

  EXPECT_TRUE(materializer.WaitFor(910));
  EXPECT_TRUE(store->GetEntry(910).has_value());
  EXPECT_FALSE(materializer.IsPending(910));
  // Nothing pending for a signature never queued (or already written).
  EXPECT_FALSE(materializer.WaitFor(999));
  EXPECT_FALSE(materializer.WaitFor(910));
  // The others are untouched: one held in the writer's Put, two queued.
  EXPECT_EQ(materializer.Pending(), 3u);
  for (uint64_t sig : {900, 901, 902}) {
    EXPECT_TRUE(materializer.IsPending(sig)) << sig;
    EXPECT_FALSE(store->GetEntry(sig).has_value()) << sig;
  }

  clock.Release();
  materializer.Drain();
  EXPECT_EQ(materializer.Pending(), 0u);
  EXPECT_EQ(store->NumEntries(), 4u);
}

// A write already in flight on another thread is waited for, not raced:
// WaitFor returns only after the held writer finishes it.
TEST_F(AsyncMaterializerTest, WaitForBlocksOnAWriteInFlightElsewhere) {
  WriterGateClock clock;
  auto store = OpenStore(1 << 20, &clock);
  AsyncMaterializer materializer(store.get());
  materializer.Enqueue(MakeRequest(50));
  clock.WaitUntilWriterParked();  // inside the Put of 50
  std::atomic<bool> returned{false};
  std::thread reader([&]() {
    EXPECT_TRUE(materializer.WaitFor(50));
    returned.store(true);
    EXPECT_TRUE(store->GetEntry(50).has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  EXPECT_TRUE(materializer.IsPending(50));
  clock.Release();
  reader.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(materializer.Pending(), 0u);
}

// WaitFor never waits on another producer's continuing stream of
// requests: it returns once its own signatures are written, even while a
// second producer keeps the queue busy.
TEST_F(AsyncMaterializerTest, WaitForReturnsWhileAnotherProducerEnqueues) {
  auto store = OpenStore();
  AsyncMaterializer materializer(store.get());
  materializer.EnableTelemetry(&metrics_);
  std::atomic<bool> stop{false};
  std::atomic<int> enqueued_by_other{0};
  std::thread other([&]() {
    for (int i = 0; i < 400 && !stop.load(); ++i) {
      materializer.Enqueue(MakeRequest(10000 + i));
      enqueued_by_other.fetch_add(1);
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < 5; ++i) {
    materializer.Enqueue(MakeRequest(500 + i));
  }
  for (uint64_t sig = 500; sig < 505; ++sig) {
    materializer.WaitFor(sig);
    EXPECT_TRUE(store->GetEntry(sig).has_value()) << sig;
  }
  stop.store(true);
  other.join();
  // The other producer's writes are all eventually applied.
  materializer.Drain();
  EXPECT_EQ(Count("writes_ok"), 5 + enqueued_by_other.load());
  EXPECT_EQ(store->NumEntries(), 5u + enqueued_by_other.load());
}

// A caller that dequeues a signature the writer thread is still writing
// waits for that write instead of racing it: the earlier request wins and
// the later one fails with AlreadyExists, as behind one writer.
TEST_F(AsyncMaterializerTest, SameSignatureWritesStayInDequeueOrder) {
  WriterGateClock clock;
  auto store = OpenStore(1 << 20, &clock);
  AsyncMaterializer materializer(store.get());
  materializer.EnableTelemetry(&metrics_);
  obs::Gauge* queue_depth = metrics_.GetGauge("materializer.queue_depth");
  materializer.Enqueue(MakeRequest(77));
  clock.WaitUntilWriterParked();  // the writer is inside the first Put
  materializer.Enqueue(MakeRequest(77));
  std::thread drain([&]() { materializer.Drain(); });
  while (queue_depth->Value() != 0) {  // the drain has dequeued the second
    std::this_thread::yield();
  }
  clock.Release();
  drain.join();
  EXPECT_EQ(Count("writes_ok"), 1);
  EXPECT_EQ(Count("writes_failed"), 1);
  EXPECT_EQ(store->NumEntries(), 1u);
  EXPECT_FALSE(materializer.IsPending(77));
}

// Two concurrent WaitFor callers and the writer thread share the backlog;
// each writes exactly its own signatures, and Pending stays exact —
// including the one request the held writer thread is still working on.
TEST_F(AsyncMaterializerTest, ConcurrentWaitForsAndWriterKeepPendingExact) {
  WriterGateClock clock;
  auto store = OpenStore(8 << 20, &clock);
  AsyncMaterializer materializer(store.get());
  materializer.Enqueue(MakeRequest(2000));  // the writer thread takes this
  clock.WaitUntilWriterParked();
  constexpr int kPerCaller = 25;
  for (int i = 0; i < kPerCaller; ++i) {
    materializer.Enqueue(MakeRequest(3000 + i));
    materializer.Enqueue(MakeRequest(4000 + i));
  }
  auto wait_range = [&](uint64_t first) {
    for (uint64_t sig = first; sig < first + kPerCaller; ++sig) {
      EXPECT_TRUE(materializer.WaitFor(sig)) << sig;
    }
  };
  std::thread one([&]() { wait_range(3000); });
  std::thread two([&]() { wait_range(4000); });
  one.join();
  two.join();
  EXPECT_EQ(store->NumEntries(), 2u * kPerCaller);
  EXPECT_EQ(materializer.Pending(), 1u);
  EXPECT_TRUE(materializer.IsPending(2000));
  EXPECT_GT(materializer.QueuedBytes(), 0);

  clock.Release();
  EXPECT_TRUE(materializer.WaitFor(2000));
  EXPECT_EQ(materializer.Pending(), 0u);
  EXPECT_EQ(materializer.QueuedBytes(), 0);
  EXPECT_EQ(store->NumEntries(), 1u + 2u * kPerCaller);
}

// Under concurrent producers that each wait for their own signatures,
// every request is written exactly once and a signature shared across
// producers is stored exactly once: one write succeeds, every other
// attempt fails with AlreadyExists.
TEST_F(AsyncMaterializerTest, EveryRequestWrittenExactlyOnce) {
  auto store = OpenStore(/*budget=*/8 << 20);
  AsyncMaterializer materializer(store.get());
  materializer.EnableTelemetry(&metrics_);
  constexpr int kProducers = 3;
  constexpr int kRounds = 4;
  constexpr int kPerRound = 12;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p]() {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<uint64_t> mine;
        for (int i = 0; i < kPerRound; ++i) {
          int node = round * kPerRound + i;
          // Even nodes collide across producers; odd nodes are private.
          uint64_t sig = node % 2 == 0
                             ? 6000 + static_cast<uint64_t>(node)
                             : 7000 + (p + 1) * 1000 +
                                   static_cast<uint64_t>(node);
          materializer.Enqueue(MakeRequest(sig));
          mine.push_back(sig);
        }
        for (uint64_t sig : mine) {
          materializer.WaitFor(sig);
          EXPECT_TRUE(store->GetEntry(sig).has_value()) << sig;
        }
      }
    });
  }
  for (std::thread& producer : producers) {
    producer.join();
  }
  EXPECT_EQ(materializer.Pending(), 0u);
  const int64_t distinct = kRounds * kPerRound / 2 * (1 + kProducers);
  EXPECT_EQ(Count("writes_ok"), distinct);
  EXPECT_EQ(Count("writes_ok") + Count("writes_failed"),
            kProducers * kRounds * kPerRound);
  EXPECT_EQ(store->NumEntries(), static_cast<size_t>(distinct));
}

// Regression for the unbounded-queue RAM spike: a burst of large Puts used
// to pin every payload in the queue simultaneously. With a byte budget,
// Enqueue back-pressures the producer, so the queue's high-water mark (the
// `materializer.queue_bytes` gauge) stays under the bound.
TEST_F(AsyncMaterializerTest, ByteBudgetBoundsQueuedPayloadBytes) {
  auto store = OpenStore(/*budget=*/8 << 20);
  DataCollection payload = MakeCollection(std::string(1000, 'p'), 16);
  int64_t unit = payload.SizeBytes();
  // Room for one queued-or-in-flight request, never two.
  const int64_t bound = unit + unit / 2;
  AsyncMaterializer materializer(store.get(), bound);
  materializer.EnableTelemetry(&metrics_);
  for (int i = 0; i < 8; ++i) {
    materializer.Enqueue(MakeRequest(700 + i, std::string(1000, 'p'), 16));
  }
  materializer.Drain();
  EXPECT_EQ(Count("writes_ok"), 8);
  // The gauge's high-water mark proves the bound actually held while the
  // writes raced through — not just at the quiescent ends.
  obs::Gauge* queue_bytes = metrics_.GetGauge("materializer.queue_bytes");
  EXPECT_GE(queue_bytes->Max(), unit);  // something was actually queued
  EXPECT_LE(queue_bytes->Max(), bound);
  EXPECT_EQ(materializer.QueuedBytes(), 0);
}

// A single request larger than the whole bound is admitted once the queue
// is empty — back-pressure slows bursts, it must never deadlock one big
// write.
TEST_F(AsyncMaterializerTest, OversizedRequestIsAdmittedAloneNotDeadlocked) {
  auto store = OpenStore(/*budget=*/8 << 20);
  AsyncMaterializer materializer(store.get(), /*max_queue_bytes=*/256);
  materializer.EnableTelemetry(&metrics_);
  materializer.Enqueue(MakeRequest(800, "s"));
  AsyncMaterializer::Request big =
      MakeRequest(801, std::string(1000, 'q'), 64);  // >> 256 bytes
  EXPECT_GT(big.data.SizeBytes(), 256);
  materializer.Enqueue(std::move(big));  // must return, not hang
  materializer.Drain();
  EXPECT_EQ(Count("writes_ok"), 2);
  EXPECT_TRUE(store->GetEntry(801).has_value());
  EXPECT_EQ(materializer.QueuedBytes(), 0);
}

}  // namespace
}  // namespace runtime
}  // namespace helix
