// Helix benchmark harness: replays a seeded human-in-the-loop edit trace
// against the system's public entry points and emits raw measurements.
//
// One invocation runs one workload for a time box. The time is spent in
// "passes": each pass sets the system up from scratch (generate the trace
// and its data, open the service or server, connect the clients), replays
// every event of the trace closed-loop with zero think time, and tears
// everything down. Every pass replays the same trace, so per-pass figures
// (cumulative latency, throughput, set-up time, store size) are repeated
// measurements of one thing and their median is reported.
//
//   edit-loop      localized scenario: one census and one IE analyst,
//                  sequential, in-process SessionService, disk backend.
//   stream-append  stream scenario: one analyst appending batches,
//                  sequential, in-process SessionService, disk backend.
//   team-wire      sweep scenario: several analysts, each with its own
//                  HelixClient, sharing one in-process event-loop
//                  HelixServer over loopback, memory backend.
//
// On team-wire each iteration is followed by a FetchOutput of its
// `predictions`; the team server keeps every result so that fetch cannot
// miss. Every iteration's combined output fingerprint is checked against
// a reference: the same spec executed with reuse off
// (PlannerKind::kNoReuse), computed after the timed passes and cached per
// spec. Every fetched payload is checked against the fingerprint its
// iteration reported. A mismatch counts as a failed operation, never an
// abort.
//
// With --trace=1, odd-numbered passes are traced: the harness records spans
// around its own calls into each module (compile, RunIteration, fetch,
// serialize), merges them with the executor's per-node spans from each
// iteration's ExecutionReport, computes self times, and writes one Chrome
// trace. Layer totals come from the reports, the service counters and the
// metrics snapshot (SnapshotJson in process, GetMetricsJson over the wire).
// Untraced passes run alongside, so the tracing overhead is measured too.
//
// The last line of stdout is one JSON document of raw samples; the
// perfbench/run.py wrapper turns it into the benchmark's metrics.
//
// Usage:
//   helix_bench --workload=edit-loop --seed=1 --seconds=10 --trace=0
//               --workdir=DIR [--ref-cache=DIR] [--trace-out=FILE]
//               [--toy=1] [--corrupt-reference=1]
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/result.h"
#include "common/status.h"
#include "common/strings.h"
#include "core/change_tracker.h"
#include "core/cse.h"
#include "core/program_slicer.h"
#include "core/session.h"
#include "core/workflow_dag.h"
#include "dataflow/data_collection.h"
#include "dataflow/simd.h"
#include "net/app_specs.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "service/session_service.h"
#include "workload/generator.h"
#include "workload/trace.h"

#ifndef HELIX_BENCH_BUILD_TYPE
#define HELIX_BENCH_BUILD_TYPE "unknown"
#endif

namespace helix {
namespace perfbench {
namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Restarts the kernel's peak-RSS tracking (VmHWM), so each pass reports
/// its own peak rather than the process's running maximum.
void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Peak resident set since the last reset (VmHWM), or since the process
/// started when the reset is unavailable.
int64_t PeakRssKb() {
  Result<std::string> status = ReadFileToString("/proc/self/status");
  if (status.ok()) {
    for (const std::string& line : Split(*status, '\n')) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtoll(line.c_str() + 6, nullptr, 10);
      }
    }
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// ------------------------------------------------------------ flags ---

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string ref_cache;
  std::string trace_out;
  bool toy = false;
  bool corrupt_reference = false;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "bad flag: %s\n", arg.c_str());
      return false;
    }
    std::string name = arg.substr(2, eq - 2);
    std::string value = arg.substr(eq + 1);
    if (name == "workload") {
      flags->workload = value;
    } else if (name == "seed") {
      flags->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (name == "seconds") {
      flags->seconds = std::atof(value.c_str());
    } else if (name == "trace") {
      flags->trace = value == "1";
    } else if (name == "workdir") {
      flags->workdir = value;
    } else if (name == "ref-cache") {
      flags->ref_cache = value;
    } else if (name == "trace-out") {
      flags->trace_out = value;
    } else if (name == "toy") {
      flags->toy = value == "1";
    } else if (name == "corrupt-reference") {
      flags->corrupt_reference = value == "1";
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (flags->workdir.empty() || flags->seconds <= 0) {
    std::fprintf(stderr, "--workdir and a positive --seconds are required\n");
    return false;
  }
  return true;
}

// --------------------------------------------------------- workloads ---

struct WorkloadShape {
  std::string scenario;
  int users = 1;
  int iterations = 1;  // per user
  int64_t rows = 2000;
  int64_t docs = 24;
  int64_t stream_batch_rows = 400;
  storage::StorageBackendKind backend = storage::StorageBackendKind::kDisk;
  /// Analysts reach the service through HelixClients over loopback, one
  /// thread and connection per analyst; otherwise one thread replays the
  /// trace in order against an in-process SessionService.
  bool remote = false;
};

std::optional<WorkloadShape> ShapeFor(const std::string& workload, bool toy) {
  WorkloadShape shape;
  if (workload == "edit-loop") {
    shape.scenario = "localized";
    shape.users = 2;
    shape.iterations = toy ? 4 : 30;
    shape.rows = toy ? 400 : 2500;
    shape.docs = toy ? 4 : 24;
  } else if (workload == "stream-append") {
    shape.scenario = "stream";
    shape.users = 1;
    shape.iterations = toy ? 4 : 40;
    shape.rows = toy ? 400 : 5000;
    shape.stream_batch_rows = toy ? 20 : 50;
  } else if (workload == "team-wire") {
    shape.scenario = "sweep";
    shape.users = 2;
    shape.iterations = toy ? 3 : 120;
    shape.rows = toy ? 400 : 5000;
    shape.backend = storage::StorageBackendKind::kMemory;
    shape.remote = true;
  } else {
    return std::nullopt;
  }
  return shape;
}

/// Trace seed of one pass: every pass replays a different trace drawn
/// from the run's seed, so one run averages over many analyst sessions.
uint64_t PassSeed(uint64_t seed, int pass) {
  return Hasher().AddU64(seed).AddU64(static_cast<uint64_t>(pass)).Digest();
}

workload::ScenarioConfig ScenarioFor(const WorkloadShape& shape,
                                     uint64_t seed) {
  workload::ScenarioConfig config;
  config.scenario = shape.scenario;
  config.seed = seed;
  config.users = shape.users;
  config.iterations = shape.iterations;
  config.rows = shape.rows;
  config.docs = shape.docs;
  config.stream_batch_rows = shape.stream_batch_rows;
  config.think_ms = 0;
  return config;
}

// Combined output digest: (name, fingerprint) in output-name order, the
// same value in process (name-sorted map) and over the wire (the server
// lists outputs in name order).
uint64_t CombineOutputs(
    const std::map<std::string, dataflow::DataCollection>& outputs) {
  Hasher hasher;
  for (const auto& [name, collection] : outputs) {
    hasher.Add(name).AddU64(collection.Fingerprint());
  }
  return hasher.Digest();
}

uint64_t CombineOutputs(const std::vector<net::RemoteOutput>& outputs) {
  Hasher hasher;
  for (const net::RemoteOutput& output : outputs) {
    hasher.Add(output.name).AddU64(output.fingerprint);
  }
  return hasher.Digest();
}

// ------------------------------------------------------------- spans ---

/// One benchmark-side or executor span of an iteration. `parent` indexes
/// the same iteration's span list (-1 for the iteration's root).
struct Span {
  std::string name;
  std::string category;
  int64_t start = 0;
  int64_t end = 0;
  int parent = -1;
};

/// Length of the union of [start, end) intervals.
int64_t CoveredMicros(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = INT64_MIN;
  for (const auto& [start, end] : intervals) {
    int64_t from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
    }
    reach = std::max(reach, end);
  }
  return covered;
}

/// Records one iteration's spans into `sink`, each tagged with the
/// iteration id, its parent and its self time (duration minus the part
/// its children cover).
void RecordIterationSpans(obs::TraceCollector* sink, int64_t iteration,
                          uint64_t pass, uint64_t user,
                          const std::vector<Span>& spans) {
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>> children;
    for (const Span& child : spans) {
      if (child.parent == static_cast<int>(i)) {
        children.emplace_back(std::max(child.start, spans[i].start),
                              std::min(child.end, spans[i].end));
      }
    }
    obs::TraceSpan span;
    span.name = spans[i].name;
    span.category = spans[i].category;
    span.start_micros = spans[i].start;
    span.duration_micros = spans[i].end - spans[i].start;
    span.pid = pass;
    span.tid = user;
    span.int_args = {{"iteration", iteration},
                     {"span", static_cast<int64_t>(i)},
                     {"parent", spans[i].parent},
                     {"self_us", span.duration_micros -
                                     CoveredMicros(std::move(children))}};
    sink->Record(std::move(span));
  }
}

// ------------------------------------------------------- measurements ---

/// Layer totals of one traced pass (sums over its iterations unless
/// named otherwise).
struct LayerTotals {
  int64_t latency_us = 0;  // sum of RunIteration latencies
  int64_t compile_us = 0;
  int64_t plan_us = 0;
  int64_t compute_us = 0;
  int64_t load_us = 0;
  int64_t materialize_us = 0;
  int64_t nodes_computed = 0;
  int64_t nodes_loaded = 0;
  int64_t nodes_pruned = 0;
  int64_t nodes_materialized = 0;
  int64_t nodes_shared = 0;
  int64_t peak_resident_bytes = 0;  // max over iterations
  std::map<std::string, int64_t> compute_by_op_us;
  int64_t serde_bytes = 0;
  int64_t serialize_us = 0;
  int64_t deserialize_us = 0;
  int64_t written_bytes = 0;
  int64_t written_reused_bytes = 0;
  int64_t simd_calls = 0;
  int64_t scalar_calls = 0;
  int64_t get_bytes = 0;
  int64_t get_us = 0;
  int64_t cross_session_loads = 0;
  int64_t saved_us = 0;
  std::string metrics_json;

  // Materialized signature -> bytes, and whether a later load used it.
  std::map<uint64_t, std::pair<int64_t, bool>> written;
};

uint64_t SimdCalls(bool scalar) {
  uint64_t total = 0;
  for (int k = 0; k < static_cast<int>(dataflow::simd::Kernel::kNumKernels);
       ++k) {
    auto kernel = static_cast<dataflow::simd::Kernel>(k);
    if (scalar) {
      total += dataflow::simd::InvocationCount(kernel,
                                               dataflow::simd::Isa::kScalar);
    } else {
      total += dataflow::simd::InvocationCount(kernel,
                                               dataflow::simd::Isa::kAvx2) +
               dataflow::simd::InvocationCount(kernel,
                                               dataflow::simd::Isa::kNeon);
    }
  }
  return total;
}

/// One replayed iteration.
struct IterSample {
  size_t event = 0;
  int64_t latency_us = 0;
  uint64_t fingerprint = 0;
  bool ok = false;
  std::string error;
  int64_t fetch_us = -1;
  int64_t fetch_bytes = 0;
  int64_t fetch_retries = 0;
  bool fetch_ok = false;
};

constexpr int kMaxFetchRetries = 100;

struct PassResult {
  workload::Trace trace;
  bool traced = false;
  int64_t setup_us = 0;
  int64_t wall_us = 0;
  int64_t store_bytes = 0;
  /// Peak resident set of the process during this pass.
  int64_t peak_rss_kb = 0;
  std::vector<IterSample> samples;
  LayerTotals layers;
};

// ------------------------------------------------------------- passes ---

/// One pass: owns the set-up system and replays the trace once.
class Pass {
 public:
  Pass(const WorkloadShape& shape, const workload::Trace& trace,
       std::string dir, bool traced, int pass_index,
       obs::TraceCollector* trace_sink)
      : shape_(shape),
        trace_(trace),
        dir_(std::move(dir)),
        traced_(traced),
        pass_index_(pass_index),
        trace_sink_(trace_sink),
        resolver_(net::MakeStandardResolver()) {}

  ~Pass() {
    clients_.clear();
    server_.reset();
    service_.reset();
    (void)RemoveDirRecursively(dir_);
  }

  /// Data generation, the service or server, and the client connections.
  Status SetUp() {
    std::string data_dir = JoinPath(dir_, "data");
    HELIX_RETURN_IF_ERROR(workload::MaterializeTraceData(trace_, data_dir));
    rebased_ = workload::RebaseTracePaths(
        trace_, workload::kWorkspacePlaceholder, data_dir);
    service::ServiceOptions options;
    options.workspace_dir = JoinPath(dir_, "ws");
    options.storage_backend = shape_.backend;
    options.num_threads = shape_.remote ? shape_.users : 1;
    if (shape_.backend == storage::StorageBackendKind::kDisk) {
      HELIX_RETURN_IF_ERROR(MakeDirs(options.workspace_dir));
    } else {
      options.workspace_dir.clear();
    }
    if (traced_) {
      // The observer fires on the executing thread before the iteration
      // returns; it hands the report to the analyst thread that is
      // waiting on that session.
      options.iteration_observer =
          [this](const service::IterationObservation& observation) {
            std::lock_guard<std::mutex> lock(observed_mu_);
            observed_[observation.session_id] = observation.result;
          };
    }
    if (shape_.remote) {
      // The team server keeps every result so that any analyst can pull
      // any iteration's predictions; under the cost-model policy an
      // output may go unstored and its fetch would fail.
      options.mat_policy = std::make_shared<core::AlwaysMaterializePolicy>();
      net::ServerOptions server_options;
      server_options.service = options;
      HELIX_ASSIGN_OR_RETURN(
          server_, net::HelixServer::Start(server_options, resolver_));
      for (int u = 0; u < shape_.users; ++u) {
        HELIX_ASSIGN_OR_RETURN(
            std::unique_ptr<net::HelixClient> client,
            net::HelixClient::Connect("127.0.0.1", server_->port()));
        HELIX_ASSIGN_OR_RETURN(uint64_t id, client->OpenSession(
                                                "analyst-" +
                                                std::to_string(u)));
        clients_.push_back(std::move(client));
        session_ids_.push_back(id);
      }
    } else {
      HELIX_ASSIGN_OR_RETURN(service_, service::SessionService::Open(options));
      for (int u = 0; u < shape_.users; ++u) {
        HELIX_ASSIGN_OR_RETURN(
            service::ServiceSession * session,
            service_->CreateSession("analyst-" + std::to_string(u)));
        sessions_.push_back(session);
        session_ids_.push_back(session->id());
      }
    }
    return Status::OK();
  }

  /// Replays every event; failures are recorded per sample.
  void Replay(PassResult* result) {
    result->traced = traced_;
    result->samples.resize(rebased_.events.size());
    previous_dag_.resize(static_cast<size_t>(shape_.users));
    uint64_t simd_before = SimdCalls(false);
    uint64_t scalar_before = SimdCalls(true);
    int64_t start = NowMicros();
    if (shape_.remote) {
      std::vector<std::thread> threads;
      for (int u = 0; u < shape_.users; ++u) {
        threads.emplace_back([this, u, result]() {
          for (size_t i = 0; i < rebased_.events.size(); ++i) {
            if (rebased_.events[i].user == static_cast<uint32_t>(u)) {
              RunEvent(i, &result->samples[i]);
            }
          }
        });
      }
      for (std::thread& thread : threads) {
        thread.join();
      }
    } else {
      for (size_t i = 0; i < rebased_.events.size(); ++i) {
        RunEvent(i, &result->samples[i]);
      }
    }
    result->wall_us = NowMicros() - start;
    result->store_bytes = store()->TotalBytes();
    if (!traced_) {
      return;
    }
    LayerTotals& layers = result->layers;
    layers = std::move(layers_);
    for (const auto& [signature, entry] : layers.written) {
      layers.written_bytes += entry.first;
      layers.written_reused_bytes += entry.second ? entry.first : 0;
    }
    layers.simd_calls = static_cast<int64_t>(SimdCalls(false) - simd_before);
    layers.scalar_calls =
        static_cast<int64_t>(SimdCalls(true) - scalar_before);
    CollectServiceTelemetry(&layers);
    ProbeStoreGets(&layers);
  }

 private:
  storage::IntermediateStore* store() {
    return shape_.remote ? server_->service()->store() : service_->store();
  }

  void RunEvent(size_t index, IterSample* sample) {
    const workload::TraceEvent& event = rebased_.events[index];
    const size_t user = event.user;
    sample->event = index;
    std::vector<Span> spans;
    int64_t iteration_start = NowMicros();
    int64_t compile_us = 0;
    if (traced_) {
      spans.push_back({"bench.iteration", "bench", iteration_start, 0, -1});
      compile_us = TimeCompile(event, user, &spans);
    }
    std::optional<core::IterationResult> observed;
    std::string fetch_name;
    uint64_t fetch_signature = 0;
    uint64_t fetch_fingerprint = 0;

    int64_t start = NowMicros();
    if (shape_.remote) {
      Result<net::RemoteIterationResult> reply = clients_[user]->RunIteration(
          session_ids_[user], event.spec, event.description, event.category);
      sample->latency_us = NowMicros() - start;
      if (!reply.ok()) {
        sample->error = reply.status().ToString();
      } else {
        sample->ok = true;
        sample->fingerprint = CombineOutputs(reply->outputs);
        for (const net::RemoteOutput& output : reply->outputs) {
          if (output.name == "predictions") {
            fetch_name = output.name;
            fetch_signature = output.signature;
            fetch_fingerprint = output.fingerprint;
          }
        }
      }
    } else {
      Result<core::Workflow> workflow = resolver_(event.spec);
      Result<core::IterationResult> result = workflow.status();
      if (workflow.ok()) {
        start = NowMicros();
        result = service_->RunIteration(sessions_[user], *workflow,
                                        event.description, event.category,
                                        &event.spec);
        sample->latency_us = NowMicros() - start;
      }
      if (!result.ok()) {
        sample->error = result.status().ToString();
      } else {
        sample->ok = true;
        const core::ExecutionReport& report = result->report;
        sample->fingerprint = CombineOutputs(report.outputs);
      }
    }
    int call_span = -1;
    if (traced_) {
      call_span = static_cast<int>(spans.size());
      spans.push_back({shape_.remote ? "net.RunIteration"
                                     : "service.RunIteration",
                       shape_.remote ? "net" : "service", start,
                       start + sample->latency_us, 0});
      std::lock_guard<std::mutex> lock(observed_mu_);
      auto it = observed_.find(session_ids_[user]);
      if (it != observed_.end()) {
        observed = std::move(it->second);
        observed_.erase(it);
      }
    }

    if (sample->ok && shape_.remote) {
      int64_t fetch_start = NowMicros();
      Result<dataflow::DataCollection> data =
          Status::NotFound("iteration has no predictions output");
      // An output this iteration was served through the in-flight table
      // (block-and-share) is written by the sibling session that computed
      // it, and the reply can arrive before that write lands. A NotFound
      // is retried briefly; the retries are counted and the wait is part
      // of the fetch latency.
      for (int attempt = 0; !fetch_name.empty(); ++attempt) {
        data = clients_[user]->FetchOutput(fetch_signature);
        if (data.ok() || !data.status().IsNotFound() ||
            attempt == kMaxFetchRetries) {
          break;
        }
        ++sample->fetch_retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      sample->fetch_us = NowMicros() - fetch_start;
      if (traced_) {
        spans.push_back({"net.FetchOutput", "net", fetch_start,
                         fetch_start + sample->fetch_us, 0});
      }
      if (!data.ok()) {
        sample->error = "fetch " + fetch_name + ": " + data.status().ToString();
      } else if (data->Fingerprint() != fetch_fingerprint) {
        sample->error = "fetched " + fetch_name +
                        " does not match the fingerprint its iteration "
                        "reported";
      } else {
        sample->fetch_ok = true;
        sample->fetch_bytes = data->SizeBytes();
      }
    }

    if (traced_) {
      SerdeTiming serde;
      if (observed.has_value()) {
        AddNodeSpans(observed->report, call_span, &spans);
        serde = TimeSerde(observed->report, &spans);
      }
      {
        std::lock_guard<std::mutex> lock(layers_mu_);
        layers_.latency_us += sample->latency_us;
        layers_.compile_us += compile_us;
        layers_.serde_bytes += serde.bytes;
        layers_.serialize_us += serde.serialize_us;
        layers_.deserialize_us += serde.deserialize_us;
        if (observed.has_value()) {
          FoldReport(*observed, &layers_);
        }
      }
      spans[0].end = NowMicros();
      RecordIterationSpans(trace_sink_, static_cast<int64_t>(index),
                           static_cast<uint64_t>(pass_index_), user, spans);
    }
  }

  /// The compile pipeline a session runs before planning: CSE, compile,
  /// slice, and diff against the analyst's previous version. Timed on the
  /// benchmark's own copy of the workflow, outside the iteration latency;
  /// returns the time taken.
  int64_t TimeCompile(const workload::TraceEvent& event, size_t user,
                      std::vector<Span>* spans) {
    int64_t start = NowMicros();
    Result<core::Workflow> workflow = resolver_(event.spec);
    if (!workflow.ok()) {
      return 0;
    }
    core::CseResult cse = core::EliminateCommonSubexpressions(*workflow);
    Result<core::WorkflowDag> dag = core::WorkflowDag::Compile(cse.workflow);
    if (!dag.ok()) {
      return 0;
    }
    (void)core::SliceFromOutputs(*dag);
    std::optional<core::WorkflowDag>& previous = previous_dag_[user];
    (void)(previous.has_value() ? core::DiffWorkflows(*previous, *dag)
                                : core::InitialDiff(*dag));
    previous = std::move(dag).value();
    int64_t end = NowMicros();
    spans->push_back({"core.compile", "core", start, end, 0});
    return end - start;
  }

  /// Adds the report's executed nodes as children of the RunIteration
  /// span `call_span`.
  static void AddNodeSpans(const core::ExecutionReport& report,
                           int call_span, std::vector<Span>* spans) {
    for (const core::NodeExecution& node : report.nodes) {
      if (node.state != core::NodeState::kPrune) {
        spans->push_back({node.name, core::NodeOutcomeString(node),
                          node.start_micros,
                          node.start_micros + node.cost_micros, call_span});
      }
    }
  }

  /// Folds one iteration's report into the pass's layer totals.
  static void FoldReport(const core::IterationResult& result,
                         LayerTotals* layers) {
    const core::ExecutionReport& report = result.report;
    layers->plan_us += report.planning_micros;
    layers->materialize_us += report.materialize_micros;
    layers->nodes_computed += report.num_computed;
    layers->nodes_loaded += report.num_loaded;
    layers->nodes_pruned += report.num_pruned;
    layers->nodes_materialized += report.num_materialized;
    layers->nodes_shared += report.num_shared;
    layers->peak_resident_bytes =
        std::max(layers->peak_resident_bytes, report.peak_resident_bytes);
    for (const core::NodeExecution& node : report.nodes) {
      if (node.state == core::NodeState::kCompute) {
        int id = result.dag.FindNode(node.name);
        layers->compute_us += node.cost_micros;
        layers->compute_by_op_us[id >= 0 ? result.dag.op(id).op_type()
                                         : "unknown"] += node.cost_micros;
      } else if (node.state == core::NodeState::kLoad) {
        layers->load_us += node.cost_micros;
        auto it = layers->written.find(node.signature);
        if (it != layers->written.end()) {
          it->second.second = true;
        }
      }
      if (node.materialized) {
        layers->written.emplace(node.signature,
                                std::make_pair(node.output_bytes, false));
      }
    }
  }

  struct SerdeTiming {
    int64_t bytes = 0;
    int64_t serialize_us = 0;
    int64_t deserialize_us = 0;
  };

  /// Serialize/deserialize round trip of every output this iteration
  /// loaded from the store.
  static SerdeTiming TimeSerde(const core::ExecutionReport& report,
                               std::vector<Span>* spans) {
    SerdeTiming timing;
    for (const auto& [name, output] : report.outputs) {
      const core::NodeExecution* node = report.FindNode(name);
      if (node == nullptr || node->state != core::NodeState::kLoad) {
        continue;
      }
      int64_t start = NowMicros();
      std::string bytes = output.SerializeToString();
      int64_t mid = NowMicros();
      Result<dataflow::DataCollection> back =
          dataflow::DataCollection::DeserializeFromString(bytes);
      int64_t end = NowMicros();
      if (!back.ok()) {
        continue;
      }
      timing.bytes += static_cast<int64_t>(bytes.size());
      timing.serialize_us += mid - start;
      timing.deserialize_us += end - mid;
      spans->push_back({"dataflow.serialize", "dataflow", start, mid, 0});
      spans->push_back({"dataflow.deserialize", "dataflow", mid, end, 0});
    }
    return timing;
  }

  void CollectServiceTelemetry(LayerTotals* layers) {
    service::SessionCounters totals;
    if (shape_.remote) {
      Result<service::SessionCounters> counters = clients_[0]->GetCounters(0);
      if (counters.ok()) {
        totals = *counters;
      }
      Result<std::string> metrics = clients_[0]->GetMetricsJson();
      if (metrics.ok()) {
        layers->metrics_json = *metrics;
      }
    } else {
      totals = service_->AggregateCounters();
      layers->metrics_json = service_->metrics()->SnapshotJson();
    }
    layers->cross_session_loads = totals.cross_session_loads;
    layers->saved_us = totals.saved_micros;
  }

  /// IntermediateStore::Get over every entry left after the pass.
  void ProbeStoreGets(LayerTotals* layers) {
    storage::IntermediateStore* s = store();
    for (const storage::StoreEntry& entry : s->Entries()) {
      int64_t start = NowMicros();
      Result<dataflow::DataCollection> data = s->Get(entry.signature);
      int64_t elapsed = NowMicros() - start;
      if (data.ok()) {
        layers->get_bytes += entry.size_bytes;
        layers->get_us += elapsed;
      }
    }
  }

  const WorkloadShape& shape_;
  const workload::Trace& trace_;
  workload::Trace rebased_;
  const std::string dir_;
  const bool traced_;
  const int pass_index_;
  obs::TraceCollector* trace_sink_;
  core::WorkflowResolver resolver_;

  std::unique_ptr<service::SessionService> service_;
  std::vector<service::ServiceSession*> sessions_;
  std::unique_ptr<net::HelixServer> server_;
  std::vector<std::unique_ptr<net::HelixClient>> clients_;
  std::vector<uint64_t> session_ids_;

  // Traced-pass state. Each analyst's previous DAG is touched only by
  // that analyst's thread.
  std::vector<std::optional<core::WorkflowDag>> previous_dag_;
  std::mutex layers_mu_;  // guards layers_
  LayerTotals layers_;
  std::mutex observed_mu_;  // guards observed_
  std::map<uint64_t, core::IterationResult> observed_;
};

// ---------------------------------------------------------- reference ---

/// Reference fingerprints by spec hash.
using ReferenceMap = std::map<uint64_t, uint64_t>;

/// Identity of a ${WS}-relative spec (app and every parameter).
uint64_t SpecHash(const core::WorkflowSpec& spec) {
  Hasher hasher;
  hasher.Add(spec.app);
  for (const auto& [name, value] : spec.params) {
    hasher.Add(name).Add(value);
  }
  return hasher.Digest();
}

/// Cache file of the references computed on one run's data: the data is
/// a function of the scenario, the seed and the shape parameters.
std::string ReferenceCachePath(const std::string& cache_dir,
                               const workload::TraceHeader& header) {
  Hasher hasher;
  hasher.Add(header.scenario).AddU64(header.seed);
  for (const auto& [name, value] : header.params) {
    hasher.Add(name).Add(value);
  }
  return JoinPath(cache_dir, Hex64(hasher.Digest()) + ".ref");
}

ReferenceMap ReadReferenceCache(const std::string& path) {
  ReferenceMap refs;
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) {
    return refs;
  }
  for (const std::string& line : Split(*text, '\n')) {
    std::vector<std::string> fields = Split(line, ' ');
    if (fields.size() == 2) {
      refs[std::strtoull(fields[0].c_str(), nullptr, 16)] =
          std::strtoull(fields[1].c_str(), nullptr, 16);
    }
  }
  return refs;
}

void WriteReferenceCache(const std::string& path, const ReferenceMap& refs) {
  std::string text;
  for (const auto& [spec, fingerprint] : refs) {
    text += Hex64(spec) + " " + Hex64(fingerprint) + "\n";
  }
  std::string tmp = path + ".tmp";
  if (WriteStringToFile(tmp, text).ok()) {
    std::rename(tmp.c_str(), path.c_str());
  }
}

/// Adds to `refs` the reference fingerprint of every spec the traces use
/// that it lacks: each executed once, in a fresh in-memory session with
/// reuse off, on data materialized under `data_dir`. A spec whose
/// reference run fails stays absent.
void ComputeMissingReferences(const std::vector<const workload::Trace*>& traces,
                              const std::string& data_dir,
                              ReferenceMap* refs) {
  workload::Trace jobs;
  jobs.header = traces[0]->header;
  std::vector<uint64_t> keys;
  std::set<uint64_t> queued;
  for (const workload::Trace* trace : traces) {
    for (const workload::TraceEvent& event : trace->events) {
      uint64_t key = SpecHash(event.spec);
      if (refs->count(key) == 0 && queued.insert(key).second) {
        jobs.events.push_back(event);
        keys.push_back(key);
      }
    }
  }
  if (jobs.events.empty() ||
      !workload::MaterializeTraceData(jobs, data_dir).ok()) {
    return;
  }
  const workload::Trace rebased = workload::RebaseTracePaths(
      jobs, workload::kWorkspacePlaceholder, data_dir);
  std::vector<std::optional<uint64_t>> computed(keys.size());
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    core::WorkflowResolver resolver = net::MakeStandardResolver();
    for (size_t i = next++; i < keys.size(); i = next++) {
      Result<core::Workflow> workflow = resolver(rebased.events[i].spec);
      if (!workflow.ok()) {
        continue;
      }
      core::SessionOptions options;  // no workspace: no store, no reuse
      options.planner = core::PlannerKind::kNoReuse;
      options.enable_materialization = false;
      options.max_parallelism = 1;
      Result<std::unique_ptr<core::Session>> session =
          core::Session::Open(options);
      if (!session.ok()) {
        continue;
      }
      Result<core::IterationResult> result = (*session)->RunIteration(
          *workflow, "reference", core::ChangeCategory::kInitial);
      if (result.ok()) {
        computed[i] = CombineOutputs(result->report.outputs);
      }
    }
  };
  unsigned threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    if (computed[i].has_value()) {
      (*refs)[keys[i]] = *computed[i];
    }
  }
}

// -------------------------------------------------------------- output ---

void WriteLayers(const LayerTotals& l, JsonWriter* json) {
  json->Key("layers").BeginObject();
  json->KV("latency_us", l.latency_us)
      .KV("compile_us", l.compile_us)
      .KV("plan_us", l.plan_us)
      .KV("compute_us", l.compute_us)
      .KV("load_us", l.load_us)
      .KV("materialize_us", l.materialize_us)
      .KV("nodes_computed", l.nodes_computed)
      .KV("nodes_loaded", l.nodes_loaded)
      .KV("nodes_pruned", l.nodes_pruned)
      .KV("nodes_materialized", l.nodes_materialized)
      .KV("nodes_shared", l.nodes_shared)
      .KV("peak_resident_bytes", l.peak_resident_bytes)
      .KV("serde_bytes", l.serde_bytes)
      .KV("serialize_us", l.serialize_us)
      .KV("deserialize_us", l.deserialize_us)
      .KV("written_bytes", l.written_bytes)
      .KV("written_reused_bytes", l.written_reused_bytes)
      .KV("simd_calls", l.simd_calls)
      .KV("scalar_calls", l.scalar_calls)
      .KV("get_bytes", l.get_bytes)
      .KV("get_us", l.get_us)
      .KV("cross_session_loads", l.cross_session_loads)
      .KV("saved_us", l.saved_us)
      .KV("metrics_json", l.metrics_json);
  json->Key("compute_by_op_us").BeginObject();
  for (const auto& [op, us] : l.compute_by_op_us) {
    json->KV(op, us);
  }
  json->EndObject();
  json->EndObject();
}

int Run(const Flags& flags) {
  std::optional<WorkloadShape> shape = ShapeFor(flags.workload, flags.toy);
  if (!shape.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", flags.workload.c_str());
    return 2;
  }
  Status made = MakeDirs(flags.workdir);
  if (!made.ok()) {
    std::fprintf(stderr, "workdir: %s\n", made.ToString().c_str());
    return 1;
  }

  obs::TraceCollector trace_sink(1 << 20);
  std::vector<PassResult> passes;
  const int64_t budget_us = static_cast<int64_t>(flags.seconds * 1e6);
  const int64_t run_start = NowMicros();
  int untraced = 0;
  int traced = 0;
  for (int index = 0;; ++index) {
    bool trace_this = flags.trace && index % 2 == 1;
    std::string dir = JoinPath(flags.workdir, "pass-" + std::to_string(index));
    PassResult result;
    ResetPeakRss();
    {
      int64_t setup_start = NowMicros();
      Result<workload::Trace> generated = workload::GenerateTrace(
          ScenarioFor(*shape, PassSeed(flags.seed, index)));
      if (!generated.ok()) {
        std::fprintf(stderr, "generate: %s\n",
                     generated.status().ToString().c_str());
        return 1;
      }
      result.trace = std::move(generated).value();
      // The edits come from the pass's seed, the data from the run's:
      // every pass of a run reads the same files.
      result.trace.header.seed = flags.seed;
      Pass pass(*shape, result.trace, dir, trace_this, index, &trace_sink);
      Status setup = pass.SetUp();
      result.setup_us = NowMicros() - setup_start;
      if (!setup.ok()) {
        std::fprintf(stderr, "setup: %s\n", setup.ToString().c_str());
        return 1;
      }
      pass.Replay(&result);
      result.peak_rss_kb = PeakRssKb();
    }
    (trace_this ? traced : untraced) += 1;
    passes.push_back(std::move(result));
    if (NowMicros() - run_start >= budget_us && untraced >= 1 &&
        (!flags.trace || traced >= 1)) {
      break;
    }
  }

  // Every pass reads the same data (the trace header carries the run's
  // seed), so references are shared across passes and, through the
  // cache, across runs.
  std::vector<const workload::Trace*> traces;
  for (const PassResult& pass : passes) {
    traces.push_back(&pass.trace);
  }
  std::string cache_path;
  ReferenceMap reference;
  if (!flags.ref_cache.empty() && MakeDirs(flags.ref_cache).ok()) {
    cache_path = ReferenceCachePath(flags.ref_cache, passes[0].trace.header);
    reference = ReadReferenceCache(cache_path);
  }
  size_t cached = reference.size();
  std::string ref_dir = JoinPath(flags.workdir, "reference");
  ComputeMissingReferences(traces, ref_dir, &reference);
  (void)RemoveDirRecursively(ref_dir);
  if (!cache_path.empty() && reference.size() > cached) {
    WriteReferenceCache(cache_path, reference);
  }
  if (flags.corrupt_reference) {
    uint64_t first = SpecHash(passes[0].trace.events[0].spec);
    if (reference.count(first) != 0) {
      reference[first] ^= 1;
    }
  }

  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  auto fail = [&](std::string message) {
    ++failed;
    if (errors.size() < 5) {
      errors.push_back(std::move(message));
    }
  };
  for (size_t p = 0; p < passes.size(); ++p) {
    auto where = [p](const IterSample& sample) {
      return "pass " + std::to_string(p) + " event " +
             std::to_string(sample.event);
    };
    for (const IterSample& sample : passes[p].samples) {
      // One iteration, and on team-wire the fetch that follows it.
      const int ops = shape->remote ? 2 : 1;
      attempted += ops;
      if (!sample.ok) {
        fail(where(sample) + ": " + sample.error);
        failed += ops - 1;  // the fetch never ran
        continue;
      }
      auto ref = reference.find(
          SpecHash(passes[p].trace.events[sample.event].spec));
      if (ref == reference.end()) {
        fail(where(sample) + ": no reference fingerprint");
      } else if (ref->second != sample.fingerprint) {
        fail(where(sample) +
             ": output fingerprint differs from the no-reuse reference");
      }
      if (shape->remote && !sample.fetch_ok) {
        fail(where(sample) + ": " + sample.error);
      }
    }
  }

  if (flags.trace && !flags.trace_out.empty()) {
    Status written = WriteStringToFile(flags.trace_out,
                                       trace_sink.ToChromeJson());
    if (!written.ok()) {
      std::fprintf(stderr, "trace: %s\n", written.ToString().c_str());
    }
  }

  JsonWriter json;
  json.BeginObject()
      .KV("workload", flags.workload)
      .KV("scenario", shape->scenario)
      .KV("seed", flags.seed)
      .KV("users", shape->users)
      .KV("events", static_cast<int64_t>(passes[0].trace.events.size()))
      .KV("rows", shape->rows)
      .KV("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .KV("isa", dataflow::simd::ActiveIsaName())
      .KV("build_type", HELIX_BENCH_BUILD_TYPE)
      .KV("attempted", attempted)
      .KV("failed", failed);
  json.Key("errors").BeginArray();
  for (const std::string& error : errors) {
    json.String(error);
  }
  json.EndArray();
  json.Key("passes").BeginArray();
  for (const PassResult& pass : passes) {
    json.BeginObject()
        .KV("traced", pass.traced)
        .KV("setup_us", pass.setup_us)
        .KV("wall_us", pass.wall_us)
        .KV("store_bytes", pass.store_bytes)
        .KV("peak_rss_kb", pass.peak_rss_kb);
    json.Key("latency_us").BeginArray();
    for (const IterSample& sample : pass.samples) {
      json.Int(sample.latency_us);
    }
    json.EndArray();
    json.Key("fetch_us").BeginArray();
    for (const IterSample& sample : pass.samples) {
      if (sample.fetch_us >= 0) {
        json.Int(sample.fetch_us);
      }
    }
    json.EndArray();
    int64_t fetch_bytes = 0;
    int64_t fetch_retries = 0;
    for (const IterSample& sample : pass.samples) {
      fetch_bytes += sample.fetch_bytes;
      fetch_retries += sample.fetch_retries;
    }
    json.KV("fetch_bytes", fetch_bytes).KV("fetch_retries", fetch_retries);
    if (pass.traced) {
      WriteLayers(pass.layers, &json);
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace helix

int main(int argc, char** argv) {
  helix::perfbench::Flags flags;
  if (!helix::perfbench::ParseFlags(argc, argv, &flags)) {
    return 2;
  }
  return helix::perfbench::Run(flags);
}
