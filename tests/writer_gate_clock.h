// A clock that parks the background writer inside a store write, so tests
// can prove which work a caller does on its own thread and what a reader
// sees while a write is still pending.
//
// It parks the first thread, other than the one that created it, to read
// the clock — used as a store clock, that is the materializer's writer
// thread inside its first Put — until Release(). Every other thread passes.
// Shared by tests/runtime_test.cc, tests/service_test.cc and
// tests/net_test.cc.
#ifndef HELIX_TESTS_WRITER_GATE_CLOCK_H_
#define HELIX_TESTS_WRITER_GATE_CLOCK_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/clock.h"
#include "dataflow/data_collection.h"
#include "dataflow/metrics.h"
#include "runtime/async_materializer.h"

namespace helix {
namespace testutil {

class WriterGateClock final : public Clock {
 public:
  int64_t NowMicros() const override {
    std::unique_lock<std::mutex> lock(mu_);
    const std::thread::id self = std::this_thread::get_id();
    if (self != creator_ && !released_ &&
        (held_ == std::thread::id() || held_ == self)) {
      held_ = self;
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this]() { return released_; });
    }
    return SystemClock::Default()->NowMicros();
  }
  void AdvanceMicros(int64_t /*micros*/) override {}
  bool is_virtual() const override { return false; }

  void WaitUntilWriterParked() const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this]() { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  const std::thread::id creator_ = std::this_thread::get_id();
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::thread::id held_;
  mutable bool parked_ = false;
  bool released_ = false;
};

/// Parks `writer`'s thread (whose store reads `clock`) inside the Put of a
/// request no iteration reads, so every write queued after it stays
/// queued until a reader writes it on its own thread.
inline void ParkWriter(runtime::AsyncMaterializer* writer,
                       const WriterGateClock* clock) {
  runtime::AsyncMaterializer::Request request;
  request.signature = 0xD0D0;
  request.node_name = "parked";
  request.data = dataflow::DataCollection::FromMetrics(
      std::make_shared<dataflow::MetricsData>());
  writer->Enqueue(std::move(request));
  clock->WaitUntilWriterParked();
}

/// Releases the gate when it goes out of scope. Declare it after anything
/// whose destruction waits for the writer (a service, a server), so a
/// failed ASSERT returns instead of hanging on the parked thread.
class ReleaseOnExit {
 public:
  explicit ReleaseOnExit(WriterGateClock* clock) : clock_(clock) {}
  ~ReleaseOnExit() { clock_->Release(); }
  ReleaseOnExit(const ReleaseOnExit&) = delete;
  ReleaseOnExit& operator=(const ReleaseOnExit&) = delete;

 private:
  WriterGateClock* clock_;
};

}  // namespace testutil
}  // namespace helix

#endif  // HELIX_TESTS_WRITER_GATE_CLOCK_H_
