#include "workload/replay.h"

#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "common/file_util.h"
#include "common/hash.h"
#include "dataflow/data_collection.h"
#include "dataflow/simd.h"
#include "net/app_specs.h"
#include "net/client.h"

namespace helix {
namespace workload {
namespace {

// The one combined-output digest both targets agree on: (name,
// fingerprint) pairs in output-name order. The local map is name-sorted;
// the server emits its outputs list in the same order.
uint64_t CombineOutputs(
    const std::map<std::string, dataflow::DataCollection>& outputs) {
  Hasher hasher;
  for (const auto& [name, collection] : outputs) {
    hasher.Add(name).AddU64(collection.Fingerprint());
  }
  return hasher.Digest();
}

// Hashes name + fingerprint only: the wire entry also carries the store
// signature, but it is a cache key, not content — including it would make
// the digest disagree with the local-outputs overload above.
uint64_t CombineOutputs(const std::vector<net::RemoteOutput>& outputs) {
  Hasher hasher;
  for (const net::RemoteOutput& output : outputs) {
    hasher.Add(output.name).AddU64(output.fingerprint);
  }
  return hasher.Digest();
}

struct EventPlan {
  const TraceEvent* event = nullptr;
  /// Index into ReplayResult::records (= position in the trace).
  size_t slot = 0;
  /// Per-user iteration index.
  uint32_t index = 0;
};

Status EventContext(const Status& status, const EventPlan& plan) {
  return status.WithContext(
      "replaying event " + std::to_string(plan.slot) + " (user " +
      std::to_string(plan.event->user) + " iteration " +
      std::to_string(plan.index) + ", \"" + plan.event->description + "\")");
}

void SpendThinkTime(const TraceEvent& event, double scale, Clock* clock) {
  auto scaled = static_cast<int64_t>(
      static_cast<double>(event.think_micros) * scale);
  if (scaled <= 0) {
    return;
  }
  if (clock->is_virtual()) {
    clock->AdvanceMicros(scaled);
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(scaled));
  }
}

}  // namespace

Result<ReplayResult> ReplayTrace(const Trace& trace,
                                 const ReplayOptions& options) {
  if (trace.events.empty()) {
    return Status::InvalidArgument("trace has no events");
  }
  const Trace rebased =
      options.data_dir.empty()
          ? trace
          : RebaseTracePaths(trace, kWorkspacePlaceholder, options.data_dir);
  Clock* clock =
      options.clock != nullptr ? options.clock : SystemClock::Default();
  const bool remote = !options.remote_host.empty();
  // VirtualClock is not thread-safe and in-flight sharing is disabled on
  // it, so a virtual clock implies strict-order replay.
  const bool sequential = options.sequential || clock->is_virtual();

  uint32_t num_users = 0;
  for (const TraceEvent& event : rebased.events) {
    num_users = std::max(num_users, event.user + 1);
  }

  // Plans carry each event's record slot and per-user iteration index so
  // results land in trace order no matter which thread finishes when.
  std::vector<EventPlan> plans;
  plans.reserve(rebased.events.size());
  std::vector<uint32_t> next_index(num_users, 0);
  for (size_t i = 0; i < rebased.events.size(); ++i) {
    const TraceEvent& event = rebased.events[i];
    plans.push_back(EventPlan{&event, i, next_index[event.user]++});
  }

  ReplayResult result;
  result.records.resize(plans.size());

  auto finish = [&]() {
    Hasher hasher;
    for (const IterationRecord& record : result.records) {
      hasher.AddU64(record.user).AddU64(record.index).AddU64(
          record.fingerprint);
    }
    result.run_fingerprint = hasher.Digest();
  };

  if (remote) {
    // One client per user: one TCP connection per analyst, mirroring one
    // ServiceSession per user on the server.
    std::vector<std::unique_ptr<net::HelixClient>> clients;
    std::vector<uint64_t> session_ids;
    for (uint32_t u = 0; u < num_users; ++u) {
      HELIX_ASSIGN_OR_RETURN(
          std::unique_ptr<net::HelixClient> client,
          net::HelixClient::Connect(options.remote_host,
                                    options.remote_port));
      HELIX_ASSIGN_OR_RETURN(uint64_t session_id,
                             client->OpenSession("user-" + std::to_string(u)));
      clients.push_back(std::move(client));
      session_ids.push_back(session_id);
    }

    auto run_event = [&](const EventPlan& plan) -> Status {
      const TraceEvent& event = *plan.event;
      SpendThinkTime(event, options.think_scale, clock);
      int64_t start = clock->NowMicros();
      Result<net::RemoteIterationResult> remote_result =
          clients[event.user]->RunIteration(session_ids[event.user],
                                            event.spec, event.description,
                                            event.category);
      if (!remote_result.ok()) {
        return remote_result.status();
      }
      if (options.recorder != nullptr) {
        // The observer hook lives server-side; mirror it at the callsite.
        options.recorder->Record(event.user, event.spec, event.description,
                                 event.category, event.think_micros);
      }
      IterationRecord& record = result.records[plan.slot];
      record.user = event.user;
      record.index = plan.index;
      record.fingerprint = CombineOutputs(remote_result->outputs);
      record.latency_micros = clock->NowMicros() - start;
      record.num_computed = remote_result->num_computed;
      record.num_loaded = remote_result->num_loaded;
      record.num_shared = remote_result->num_shared;
      record.num_pruned = remote_result->num_pruned;
      return Status::OK();
    };

    int64_t wall_start = clock->NowMicros();
    if (sequential) {
      for (const EventPlan& plan : plans) {
        Status status = run_event(plan);
        if (!status.ok()) {
          return EventContext(status, plan);
        }
      }
    } else {
      std::vector<std::thread> threads;
      std::vector<Status> outcomes(num_users, Status::OK());
      for (uint32_t u = 0; u < num_users; ++u) {
        threads.emplace_back([&, u]() {
          for (const EventPlan& plan : plans) {
            if (plan.event->user != u) {
              continue;
            }
            Status status = run_event(plan);
            if (!status.ok()) {
              outcomes[u] = EventContext(status, plan);
              return;
            }
          }
        });
      }
      for (std::thread& thread : threads) {
        thread.join();
      }
      for (const Status& status : outcomes) {
        HELIX_RETURN_IF_ERROR(status);
      }
    }
    result.wall_micros = clock->NowMicros() - wall_start;
    HELIX_ASSIGN_OR_RETURN(result.totals, clients[0]->GetCounters(0));
    HELIX_ASSIGN_OR_RETURN(result.metrics_json, clients[0]->GetMetricsJson());
    HELIX_ASSIGN_OR_RETURN(result.trace_json, clients[0]->GetTraceJson());
    finish();
    return result;
  }

  // --- In-process target --------------------------------------------------
  if (!options.workspace_dir.empty()) {
    HELIX_RETURN_IF_ERROR(MakeDirs(options.workspace_dir));
  }
  service::ServiceOptions service_options;
  service_options.workspace_dir = options.workspace_dir;
  service_options.storage_backend = options.storage_backend;
  service_options.storage_budget_bytes = options.storage_budget_bytes;
  service_options.memory_budget_bytes = options.memory_budget_bytes;
  service_options.num_threads = options.threads;
  service_options.mat_policy = options.mat_policy;
  service_options.clock = options.clock;
  // Think times are a replay-side concept the observer cannot see; hand
  // the recorder each event's think through a per-user slot written by the
  // dispatching thread just before RunIteration (the observer fires
  // synchronously on that same thread).
  std::vector<int64_t> pending_think(num_users, 0);
  if (options.recorder != nullptr) {
    TraceRecorder* recorder = options.recorder;
    service_options.iteration_observer =
        [recorder, &pending_think](const service::IterationObservation& obs) {
          recorder->Record(obs.session_id, obs.spec, obs.description,
                           obs.category,
                           pending_think[obs.session_id - 1]);
        };
  }
  HELIX_ASSIGN_OR_RETURN(std::unique_ptr<service::SessionService> service,
                         service::SessionService::Open(service_options));
  std::vector<service::ServiceSession*> sessions;
  for (uint32_t u = 0; u < num_users; ++u) {
    HELIX_ASSIGN_OR_RETURN(
        service::ServiceSession * session,
        service->CreateSession("user-" + std::to_string(u)));
    sessions.push_back(session);
  }
  core::WorkflowResolver resolver = net::MakeStandardResolver();

  auto run_event = [&](const EventPlan& plan) -> Status {
    const TraceEvent& event = *plan.event;
    SpendThinkTime(event, options.think_scale, clock);
    Result<core::Workflow> workflow = resolver(event.spec);
    if (!workflow.ok()) {
      return workflow.status().WithContext("resolving workflow spec");
    }
    pending_think[event.user] = event.think_micros;
    int64_t start = clock->NowMicros();
    Result<core::IterationResult> iteration = service->RunIteration(
        sessions[event.user], workflow.value(), event.description,
        event.category, &event.spec);
    if (!iteration.ok()) {
      return iteration.status();
    }
    const core::ExecutionReport& report = iteration->report;
    IterationRecord& record = result.records[plan.slot];
    record.user = event.user;
    record.index = plan.index;
    record.fingerprint = CombineOutputs(report.outputs);
    record.latency_micros = clock->NowMicros() - start;
    record.num_computed = report.num_computed;
    record.num_loaded = report.num_loaded;
    record.num_shared = report.num_shared;
    record.num_pruned = report.num_pruned;
    return Status::OK();
  };

  int64_t wall_start = clock->NowMicros();
  if (sequential) {
    for (const EventPlan& plan : plans) {
      Status status = run_event(plan);
      if (!status.ok()) {
        return EventContext(status, plan);
      }
    }
  } else {
    std::vector<std::thread> threads;
    std::vector<Status> outcomes(num_users, Status::OK());
    for (uint32_t u = 0; u < num_users; ++u) {
      threads.emplace_back([&, u]() {
        for (const EventPlan& plan : plans) {
          if (plan.event->user != u) {
            continue;
          }
          Status status = run_event(plan);
          if (!status.ok()) {
            outcomes[u] = EventContext(status, plan);
            return;
          }
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    for (const Status& status : outcomes) {
      HELIX_RETURN_IF_ERROR(status);
    }
  }
  result.wall_micros = clock->NowMicros() - wall_start;
  result.totals = service->AggregateCounters();
  service->materializer()->Drain();  // count writes still behind
  dataflow::simd::FoldCountersInto(service->metrics());
  result.metrics_json = service->metrics()->SnapshotJson();
  result.trace_json = service->trace()->ToChromeJson();
  finish();
  return result;
}

}  // namespace workload
}  // namespace helix
