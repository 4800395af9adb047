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
// move-aware overload). Outcomes are collected and applied to execution
// records when the caller drains the pipeline at the end of the
// iteration.
//
// A draining caller has nothing left to compute, so instead of sleeping
// until the writer thread reaches its requests it writes them itself:
// Drain pops the caller's oldest queued request and runs the same Put
// and bookkeeping as the writer thread, which keeps working through the
// rest of the queue in parallel. At the end of an iteration the backlog
// is written by two threads rather than one, with no extra thread.
//
// Multi-session sharing: one materializer may serve many concurrent
// sessions writing to one shared store (the service layer). Requests
// carry an `owner` tag, and Drain(owner) waits only for that owner's
// writes, writes only that owner's requests, and returns only that
// owner's outcomes — one session finishing its iteration neither blocks
// on another session's (possibly endless) stream of requests nor steals
// its outcomes or its work.
#ifndef HELIX_RUNTIME_ASYNC_MATERIALIZER_H_
#define HELIX_RUNTIME_ASYNC_MATERIALIZER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
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
/// storage/store.h). Writes run on the writer thread and on draining
/// callers, so requests for different signatures may land concurrently;
/// two requests for the same signature are written one after the other
/// in dequeue order, so the earlier one wins and the later one reports
/// AlreadyExists, exactly as with a single writer. Outcomes are returned
/// in enqueue order.
///
/// Thread safety: Enqueue/Drain/Pending are safe from any thread;
/// multiple producers may enqueue concurrently. Ownership: the store is
/// borrowed and must outlive the materializer; Requests (and their
/// shared-payload DataCollections) are owned by the queue until written.
/// Failure modes: a failed Put never aborts the pipeline — the Status is
/// carried in the corresponding Outcome and the caller decides (the
/// executor demotes it to a skipped materialization).
class AsyncMaterializer {
 public:
  /// One pending materialization. `data` shares its payload with the
  /// executor's in-memory result — enqueueing copies a pointer, not data.
  struct Request {
    int node = -1;  // caller-defined tag (executor: DAG node id)
    uint64_t signature = 0;
    std::string node_name;
    dataflow::DataCollection data;
    int64_t iteration = 0;
    /// Producer's measured compute cost, forwarded to the store for
    /// eviction retention scoring (-1 = unknown).
    int64_t compute_micros = -1;
    /// Session tag for per-owner draining on a shared materializer
    /// (0 = the single-session default).
    uint64_t owner = 0;
    /// Payload bytes this request keeps alive while queued or writing.
    /// Filled by Enqueue from `data` (callers need not set it).
    int64_t size_bytes = 0;
  };

  /// Result of one attempted write.
  struct Outcome {
    int node = -1;
    uint64_t signature = 0;
    std::string node_name;
    Status status;             // Put's verdict (may be ResourceExhausted)
    int64_t write_micros = 0;  // measured write cost when status is OK
    uint64_t owner = 0;        // echo of Request::owner
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

  /// Drains outstanding writes (all owners), then stops the writer thread.
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

  /// Writes queued requests — any owner, oldest first — on the calling
  /// thread alongside the writer thread until none is queued, waits for
  /// the writes still in flight, then returns (and clears) every outcome
  /// in enqueue order. Only meaningful for a single-owner materializer:
  /// under concurrent producers this waits for a momentarily empty queue.
  std::vector<Outcome> Drain();

  /// Writes `owner`'s queued requests, oldest first, on the calling
  /// thread alongside the writer thread, waits for `owner`'s writes still
  /// in flight, then returns (and clears) that owner's outcomes in
  /// enqueue order. Other owners' requests are untouched: they are
  /// neither written nor waited for here nor returned — the writer thread
  /// writes them and their own Drain returns them.
  std::vector<Outcome> Drain(uint64_t owner);

  /// Writes queued or executing right now (diagnostics).
  size_t Pending() const;

  /// Writes queued or executing right now for `owner` (diagnostics).
  size_t Pending(uint64_t owner) const;

  /// Registers `<prefix>.queue_depth` / `<prefix>.queue_bytes` (gauges),
  /// `<prefix>.write_micros` (histogram of successful Put latencies) and
  /// `<prefix>.writes_ok` / `<prefix>.writes_failed` (counters) in
  /// `registry` and starts updating them.
  void EnableTelemetry(obs::MetricsRegistry* registry,
                       const std::string& prefix = "materializer");

 private:
  // A request plus its enqueue sequence number, which orders outcomes.
  struct Queued {
    Request request;
    uint64_t seq = 0;
  };

  void WriterLoop();
  // Shared by the writer thread and draining callers: removes
  // queue_[index], Puts it with mu_ released, and records the outcome.
  // `lock` holds mu_ on entry and on return.
  void WriteOne(std::unique_lock<std::mutex>& lock, size_t index);
  // Removes and returns (in enqueue order) the finished outcomes that
  // `keep` selects.
  template <typename Pred>
  std::vector<Outcome> TakeOutcomesLocked(Pred keep);

  storage::IntermediateStore* store_;
  const int64_t max_queue_bytes_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     // wakes the writer
  std::condition_variable drained_cv_;  // a write finished (Drain, WriteOne)
  std::condition_variable space_cv_;    // wakes Enqueue back-pressure waits
  std::deque<Queued> queue_;
  uint64_t next_seq_ = 0;
  int64_t queued_bytes_ = 0;  // payload bytes queued + in-flight
  // Finished writes by enqueue sequence: writers finish out of order.
  std::map<uint64_t, Outcome> outcomes_;
  // Queued + in-flight request count per owner; the entry is erased when
  // it reaches zero, so the map stays bounded by live owners.
  std::unordered_map<uint64_t, size_t> pending_per_owner_;
  size_t writing_ = 0;  // requests dequeued and not yet finished
  // Signatures whose Put is running now (at most one per writing thread).
  std::vector<uint64_t> writing_signatures_;
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
