// Asynchronous materialization pipeline.
//
// HELIX materializes intermediate results *while* the workflow executes
// (paper Section 2.3, the online constraint). Done inline, every
// store->Put stalls the operator that produced the result — serialization
// plus disk write sit on the critical path. The related-work challenges
// paper calls out overlapping computation with I/O as a key acceleration
// opportunity; this pipeline is that overlap: a background writer thread
// performs the Puts, compute threads only enqueue a (cheap,
// shared-payload) DataCollection handle and move on. Serialization also
// happens off the compute path — once, into a size-reserved buffer that
// is moved (never copied) into the storage backend (see
// DataCollection::SerializeToString and StorageBackend::Write's
// move-aware overload).
//
// A caller that needs writes to land does not sleep until the writer
// thread reaches them; it writes them itself, alongside the writer
// thread, running the same Put and bookkeeping:
//   * Drain writes everything still queued (a private writer's end of
//     iteration, shutdown, a metrics snapshot);
//   * WaitFor(signature) writes or waits for the writes of one signature
//     — how a reader of a result whose write is still pending (the
//     planner, the owner re-check, a wire fetch) sees it in the store.
//
// Multi-session sharing: one materializer may serve many concurrent
// sessions writing to one shared store (the service layer). No session
// drains the shared writer: each waits, by signature, only for the writes
// it is about to read or that it queued itself (see
// ExecutionOptions::earlier_writes), so one session never blocks on
// another's stream of requests.
#ifndef HELIX_RUNTIME_ASYNC_MATERIALIZER_H_
#define HELIX_RUNTIME_ASYNC_MATERIALIZER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "dataflow/data_collection.h"
#include "storage/store.h"

namespace helix {
namespace obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace obs

namespace runtime {

/// Background writer that persists results to an IntermediateStore off the
/// compute critical path. The store must be thread-safe (it is — see
/// storage/store.h). Writes run on the writer thread and on callers of
/// Drain and WaitFor, so requests for different signatures may land
/// concurrently; two requests for the same signature are written one
/// after the other in dequeue order, so the earlier one wins and the
/// later one fails with AlreadyExists, exactly as with a single writer.
///
/// Thread safety: every method is safe from any thread; multiple producers
/// may enqueue concurrently. Ownership: the store is borrowed and must
/// outlive the materializer; Requests (and their shared-payload
/// DataCollections) are owned by the queue until written. Failure modes:
/// a failed Put never aborts the pipeline and is reported to no caller —
/// it is logged and counted in `<prefix>.writes_failed` (the result then
/// simply stays unstored and is recomputed when next needed). The
/// materializer keeps no per-write outcome, so its memory is bounded by
/// the queue.
class AsyncMaterializer {
 public:
  /// One pending materialization. `data` shares its payload with the
  /// executor's in-memory result — enqueueing copies a pointer, not data.
  struct Request {
    uint64_t signature = 0;
    std::string node_name;
    dataflow::DataCollection data;
    int64_t iteration = 0;
    /// Producer's measured compute cost, forwarded to the store for
    /// eviction retention scoring (-1 = unknown).
    int64_t compute_micros = -1;
    /// Receives the serialized size of a successful write (nullptr =
    /// none), so later plans estimate with the bytes actually stored.
    /// Must outlive the write.
    storage::CostStatsRegistry* stats = nullptr;
    /// Payload bytes this request keeps alive while queued or writing.
    /// Filled by Enqueue from `data` (callers need not set it).
    int64_t size_bytes = 0;
  };

  /// Default Enqueue back-pressure threshold (see max_queue_bytes).
  static constexpr int64_t kDefaultMaxQueueBytes = 256LL << 20;

  /// `store` must outlive the materializer. `max_queue_bytes` bounds the
  /// payload bytes held alive by queued + in-flight requests: without a
  /// bound, a burst of large Puts pins every serialized buffer
  /// simultaneously — exactly the RAM spike memory planning schedules
  /// against. <= 0 disables the bound (legacy behavior).
  explicit AsyncMaterializer(storage::IntermediateStore* store,
                             int64_t max_queue_bytes = kDefaultMaxQueueBytes);

  /// Writes every outstanding request, then stops the writer thread.
  ~AsyncMaterializer();

  AsyncMaterializer(const AsyncMaterializer&) = delete;
  AsyncMaterializer& operator=(const AsyncMaterializer&) = delete;

  /// Queues a write. Returns immediately while queued payload bytes stay
  /// under max_queue_bytes; otherwise blocks the producer until the writer
  /// frees room (back-pressure: the producer re-enters its compute loop
  /// only as fast as the store absorbs writes). A request larger than the
  /// whole bound is admitted alone — when nothing is queued ahead of it —
  /// so it can never deadlock the pipeline.
  void Enqueue(Request request);

  /// Payload bytes currently held by queued + in-flight requests.
  int64_t QueuedBytes() const;

  /// Writes queued requests, oldest first, on the calling thread alongside
  /// the writer thread until none is queued, then waits for the writes
  /// still in flight. Under concurrent producers this returns at a
  /// momentarily empty pipeline.
  void Drain();

  /// Returns once no write of `signature` is queued or in flight: a queued
  /// one is written on the calling thread, one in flight elsewhere is
  /// waited for. Returns whether there was a write to wait for. Writes of
  /// other signatures are neither written nor waited for here.
  bool WaitFor(uint64_t signature);

  /// True while a write of `signature` is queued or in flight. O(1).
  bool IsPending(uint64_t signature) const;

  /// Writes queued or executing right now (diagnostics).
  size_t Pending() const;

  /// Registers `<prefix>.queue_depth` / `<prefix>.queue_bytes` (gauges),
  /// `<prefix>.write_micros` (histogram of successful Put latencies) and
  /// `<prefix>.writes_ok` / `<prefix>.writes_failed` (counters) in
  /// `registry` and starts updating them.
  void EnableTelemetry(obs::MetricsRegistry* registry,
                       const std::string& prefix = "materializer");

 private:
  // Requests of one signature that are queued, or dequeued and not yet
  // finished; at most one of the latter is inside Put at a time.
  struct PendingWrites {
    int queued = 0;
    int dequeued = 0;
    bool putting = false;
  };

  void WriterLoop();
  // Shared by the writer thread, Drain and WaitFor: removes
  // queue_[index], Puts it with mu_ released, and records the result.
  // `lock` holds mu_ on entry and on return.
  void WriteOne(std::unique_lock<std::mutex>& lock, size_t index);

  storage::IntermediateStore* store_;
  const int64_t max_queue_bytes_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // wakes the writer
  std::condition_variable done_cv_;  // a write finished (Drain, WaitFor)
  std::condition_variable space_cv_;  // wakes Enqueue back-pressure waits
  std::deque<Request> queue_;
  int64_t queued_bytes_ = 0;  // payload bytes queued + in-flight
  size_t writing_ = 0;        // requests dequeued and not yet finished
  // Signature -> its unfinished requests; an entry is erased when its
  // last request finishes, so the map is bounded by the queue.
  std::unordered_map<uint64_t, PendingWrites> pending_;
  bool shutdown_ = false;

  // Telemetry (null until EnableTelemetry; pointers written under mu_).
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* queue_bytes_ = nullptr;
  obs::Histogram* write_micros_ = nullptr;
  obs::Counter* writes_ok_ = nullptr;
  obs::Counter* writes_failed_ = nullptr;

  std::thread writer_;
};

}  // namespace runtime
}  // namespace helix

#endif  // HELIX_RUNTIME_ASYNC_MATERIALIZER_H_
