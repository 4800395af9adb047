#include "runtime/async_materializer.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

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
    ++pending_per_owner_[request.owner];
    queued_bytes_ += request.size_bytes;
    queue_.push_back(Queued{std::move(request), next_seq_++});
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

template <typename Pred>
std::vector<AsyncMaterializer::Outcome> AsyncMaterializer::TakeOutcomesLocked(
    Pred keep) {
  std::vector<Outcome> out;
  for (auto it = outcomes_.begin(); it != outcomes_.end();) {
    if (keep(it->second)) {
      out.push_back(std::move(it->second));
      it = outcomes_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

std::vector<AsyncMaterializer::Outcome> AsyncMaterializer::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    drained_cv_.wait(lock,
                     [this]() { return !queue_.empty() || writing_ == 0; });
    if (queue_.empty()) {
      break;
    }
    WriteOne(lock, 0);
  }
  return TakeOutcomesLocked([](const Outcome&) { return true; });
}

std::vector<AsyncMaterializer::Outcome> AsyncMaterializer::Drain(
    uint64_t owner) {
  std::unique_lock<std::mutex> lock(mu_);
  auto first_mine = [this, owner]() {
    return std::find_if(
        queue_.begin(), queue_.end(),
        [owner](const Queued& q) { return q.request.owner == owner; });
  };
  for (;;) {
    // Wakes on every finished write: this owner's last in-flight write
    // (on the writer thread or a concurrent Drain) may be the one.
    drained_cv_.wait(lock, [this, owner, &first_mine]() {
      return pending_per_owner_.count(owner) == 0 ||
             first_mine() != queue_.end();
    });
    auto mine = first_mine();
    if (mine == queue_.end()) {
      break;
    }
    WriteOne(lock, static_cast<size_t>(mine - queue_.begin()));
  }
  return TakeOutcomesLocked(
      [owner](const Outcome& o) { return o.owner == owner; });
}

size_t AsyncMaterializer::Pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + writing_;
}

size_t AsyncMaterializer::Pending(uint64_t owner) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_per_owner_.find(owner);
  return it == pending_per_owner_.end() ? 0 : it->second;
}

void AsyncMaterializer::WriteOne(std::unique_lock<std::mutex>& lock,
                                 size_t index) {
  Queued queued = std::move(queue_[index]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  const Request& request = queued.request;
  ++writing_;
  if (queue_depth_ != nullptr) {
    queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  }
  // A second write of a signature already being written waits for the
  // first, so its Put sees the stored entry and reports AlreadyExists
  // (and no duplicate record reaches the backend) — the single-writer
  // outcome.
  drained_cv_.wait(lock, [this, &request]() {
    return std::find(writing_signatures_.begin(), writing_signatures_.end(),
                     request.signature) == writing_signatures_.end();
  });
  writing_signatures_.push_back(request.signature);
  // Snapshot telemetry pointers under mu_ — EnableTelemetry also writes
  // them under mu_, so the Put below can report without the lock.
  obs::Histogram* write_micros = write_micros_;
  obs::Counter* writes_ok = writes_ok_;
  obs::Counter* writes_failed = writes_failed_;
  lock.unlock();

  Outcome outcome;
  outcome.node = request.node;
  outcome.signature = request.signature;
  outcome.node_name = request.node_name;
  outcome.owner = request.owner;
  outcome.status =
      store_->Put(request.signature, request.node_name, request.data,
                  request.iteration, &outcome.write_micros,
                  request.compute_micros);
  if (outcome.status.ok()) {
    if (writes_ok != nullptr) {
      writes_ok->Add(1);
    }
    if (write_micros != nullptr) {
      write_micros->Observe(outcome.write_micros);
    }
  } else if (writes_failed != nullptr) {
    writes_failed->Add(1);
  }

  lock.lock();
  --writing_;
  writing_signatures_.erase(std::find(writing_signatures_.begin(),
                                      writing_signatures_.end(),
                                      request.signature));
  queued_bytes_ -= request.size_bytes;
  if (queue_bytes_ != nullptr) {
    queue_bytes_->Set(queued_bytes_);
  }
  outcomes_.emplace(queued.seq, std::move(outcome));
  auto it = pending_per_owner_.find(request.owner);
  if (it != pending_per_owner_.end() && --it->second == 0) {
    pending_per_owner_.erase(it);
  }
  // Per-owner drains must observe every completed write, not just the
  // queue-empty edge; back-pressured producers wake on the freed bytes.
  drained_cv_.notify_all();
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
