#include "runtime/async_materializer.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "storage/cost_stats.h"

namespace helix {
namespace runtime {

AsyncMaterializer::AsyncMaterializer(storage::IntermediateStore* store,
                                     int64_t max_queue_bytes)
    : store_(store),
      max_queue_bytes_(max_queue_bytes),
      writer_([this]() { WriterLoop(); }) {}

AsyncMaterializer::~AsyncMaterializer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  writer_.join();
}

void AsyncMaterializer::Enqueue(Request request) {
  request.size_bytes = request.data.SizeBytes();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (max_queue_bytes_ > 0) {
      // Back-pressure: hold the producer until a writer frees room. A
      // request that alone exceeds the bound is admitted once the queue is
      // empty (queued_bytes_ == 0), so the wait always terminates.
      space_cv_.wait(lock, [this, &request]() {
        return shutdown_ || queued_bytes_ == 0 ||
               queued_bytes_ + request.size_bytes <= max_queue_bytes_;
      });
    }
    ++pending_[request.signature].queued;
    queued_bytes_ += request.size_bytes;
    queue_.push_back(std::move(request));
    if (queue_depth_ != nullptr) {
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
    if (queue_bytes_ != nullptr) {
      queue_bytes_->Set(queued_bytes_);
    }
  }
  work_cv_.notify_one();
}

int64_t AsyncMaterializer::QueuedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_bytes_;
}

void AsyncMaterializer::EnableTelemetry(obs::MetricsRegistry* registry,
                                        const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  queue_depth_ = registry->GetGauge(prefix + ".queue_depth");
  queue_bytes_ = registry->GetGauge(prefix + ".queue_bytes");
  queue_bytes_->Set(queued_bytes_);
  write_micros_ = registry->GetHistogram(prefix + ".write_micros");
  writes_ok_ = registry->GetCounter(prefix + ".writes_ok");
  writes_failed_ = registry->GetCounter(prefix + ".writes_failed");
}

void AsyncMaterializer::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    done_cv_.wait(lock, [this]() { return !queue_.empty() || writing_ == 0; });
    if (queue_.empty()) {
      return;
    }
    WriteOne(lock, 0);
  }
}

bool AsyncMaterializer::WaitFor(uint64_t signature) {
  std::unique_lock<std::mutex> lock(mu_);
  if (pending_.count(signature) == 0) {
    return false;
  }
  for (;;) {
    // Done, or a request of it is still queued for this thread to write;
    // otherwise every one is being written elsewhere, so wait for that.
    done_cv_.wait(lock, [this, signature]() {
      auto it = pending_.find(signature);
      return it == pending_.end() || it->second.queued > 0;
    });
    if (pending_.count(signature) == 0) {
      return true;
    }
    auto queued = std::find_if(
        queue_.begin(), queue_.end(),
        [signature](const Request& r) { return r.signature == signature; });
    WriteOne(lock, static_cast<size_t>(queued - queue_.begin()));
  }
}

bool AsyncMaterializer::IsPending(uint64_t signature) const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.count(signature) > 0;
}

size_t AsyncMaterializer::Pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + writing_;
}

void AsyncMaterializer::WriteOne(std::unique_lock<std::mutex>& lock,
                                 size_t index) {
  Request request = std::move(queue_[index]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  ++writing_;
  if (queue_depth_ != nullptr) {
    queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  }
  // unordered_map references stay valid until their element is erased,
  // and only the last finishing request of this signature erases it.
  PendingWrites& pending = pending_[request.signature];
  --pending.queued;
  ++pending.dequeued;
  // A second write of a signature already being written waits for the
  // first, so its Put sees the stored entry and fails with AlreadyExists
  // (and no duplicate record reaches the backend) — the single-writer
  // outcome.
  done_cv_.wait(lock, [&pending]() { return !pending.putting; });
  pending.putting = true;
  // Snapshot telemetry pointers under mu_ — EnableTelemetry also writes
  // them under mu_, so the Put below can report without the lock.
  obs::Histogram* write_micros = write_micros_;
  obs::Counter* writes_ok = writes_ok_;
  obs::Counter* writes_failed = writes_failed_;
  lock.unlock();

  int64_t micros = 0;
  Status status = store_->Put(request.signature, request.node_name,
                              request.data, request.iteration, &micros,
                              request.compute_micros);
  if (status.ok()) {
    if (writes_ok != nullptr) {
      writes_ok->Add(1);
    }
    if (write_micros != nullptr) {
      write_micros->Observe(micros);
    }
    // Recorded before the write stops being pending, so a reader that
    // waited for it also plans with its stored size.
    if (request.stats != nullptr) {
      std::optional<storage::StoreEntry> entry =
          store_->GetEntry(request.signature);
      if (entry.has_value()) {
        request.stats->RecordSize(request.signature, request.node_name,
                                  entry->size_bytes, request.iteration);
      }
    }
  } else {
    // An over-budget (or duplicate) Put leaves the result unstored: a
    // skipped materialization, not an error of the iteration.
    if (writes_failed != nullptr) {
      writes_failed->Add(1);
    }
    HELIX_LOG(Info) << "materialization of " << request.node_name
                    << " skipped: " << status.ToString();
  }

  lock.lock();
  --writing_;
  queued_bytes_ -= request.size_bytes;
  if (queue_bytes_ != nullptr) {
    queue_bytes_->Set(queued_bytes_);
  }
  pending.putting = false;
  if (--pending.dequeued == 0 && pending.queued == 0) {
    pending_.erase(request.signature);
  }
  // Drain and WaitFor must observe every finished write, not just the
  // queue-empty edge; back-pressured producers wake on the freed bytes.
  done_cv_.notify_all();
  space_cv_.notify_all();
}

void AsyncMaterializer::WriterLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this]() { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) {
      // Shutdown with a drained queue: exit. Pending requests are always
      // written first, so ~AsyncMaterializer never loses work.
      return;
    }
    WriteOne(lock, 0);
  }
}

}  // namespace runtime
}  // namespace helix
