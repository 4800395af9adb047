// A deterministic synthetic application for service-layer and network
// property tests, parameterized by seed.
//
// The "prep" stage really sleeps, so concurrently started sessions overlap
// inside it and the in-flight table's block-and-share path is exercised
// deterministically. Every operator's output is a pure function of its
// input and tag — byte-identical whether computed, loaded, shared
// in-process, or requested over the wire. Shared between
// tests/service_test.cc (in-process property) and tests/net_test.cc (the
// remote differential property): the two tests must agree on what "the
// same workflow" is.
#ifndef HELIX_TESTS_SYNTHETIC_APP_H_
#define HELIX_TESTS_SYNTHETIC_APP_H_

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "common/rng.h"
#include "core/executor.h"
#include "core/materialization.h"
#include "core/session.h"
#include "core/std_ops.h"
#include "core/workflow.h"
#include "dataflow/metrics.h"
#include "service/session_service.h"

namespace helix {
namespace testutil {

struct SyntheticApp {
  uint64_t seed;
  int64_t source_tag;
  int64_t prep_tag;
  int64_t feat_tag;
  int64_t model_tag;
  int prep_sleep_ms;

  explicit SyntheticApp(uint64_t app_seed) : seed(app_seed) {
    Rng rng(app_seed);
    source_tag = rng.NextInt(1, 1 << 20);
    prep_tag = rng.NextInt(1, 1 << 20);
    feat_tag = rng.NextInt(1, 1 << 20);
    model_tag = rng.NextInt(1, 1 << 20);
    prep_sleep_ms = static_cast<int>(rng.NextInt(15, 30));
  }

  // Iteration i edits the model operator (an ML edit): everything
  // upstream keeps its signature and is reusable.
  core::Workflow Build(int iteration) const {
    namespace ops = core::ops;
    using core::Phase;
    core::Workflow wf("svc-app-" + std::to_string(seed));
    core::NodeRef source =
        wf.Add(ops::Synthetic("source", Phase::kDataPreprocessing, source_tag,
                              core::SyntheticCosts{}, /*payload_bytes=*/2048));
    int sleep_ms = prep_sleep_ms;
    int64_t tag = prep_tag;
    core::NodeRef prep = wf.Add(
        ops::Reducer("prep", Phase::kDataPreprocessing,
                     static_cast<int>(prep_tag),
                     [sleep_ms, tag](
                         const std::vector<const dataflow::DataCollection*>&
                             inputs) -> Result<dataflow::DataCollection> {
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(sleep_ms));
                       auto metrics = std::make_shared<dataflow::MetricsData>();
                       uint64_t in = inputs.empty()
                                         ? 0
                                         : inputs[0]->Fingerprint();
                       metrics->Set("prep",
                                    static_cast<double>((in ^ static_cast<
                                                             uint64_t>(tag)) %
                                                        100003));
                       return dataflow::DataCollection::FromMetrics(metrics);
                     }),
        {source});
    core::NodeRef feat =
        wf.Add(ops::Synthetic("feat", Phase::kDataPreprocessing, feat_tag,
                              core::SyntheticCosts{}, /*payload_bytes=*/4096),
               {prep});
    core::NodeRef model = wf.Add(
        ops::Synthetic("model", Phase::kMachineLearning,
                       model_tag + iteration, core::SyntheticCosts{},
                       /*payload_bytes=*/1024),
        {feat});
    core::NodeRef eval =
        wf.Add(ops::Synthetic("eval", Phase::kPostprocessing, 7,
                              core::SyntheticCosts{}),
               {model});
    wf.MarkOutput(eval);
    return wf;
  }
};

/// src -> feat, with declared costs (exact on a VirtualClock), for tests of
/// the reuse-aware materialization rule. `feat` is worth storing on first
/// sight: with the prior p̂ = 0.6, 0.6 · ((10000 + 1000) − 1500) > 1500.
/// Each new `feat_tag` is a new version nobody reads again; after six
/// such writes p̂ = 1.2 / 8 = 0.15 and the rule stops storing `feat`.
inline core::Workflow ChurnWorkflow(int64_t feat_tag) {
  namespace ops = core::ops;
  using core::Phase;
  core::Workflow wf("churn");
  core::NodeRef src =
      wf.Add(ops::Synthetic("src", Phase::kDataPreprocessing, 1,
                            core::SyntheticCosts{1000, 900, 900},
                            /*payload_bytes=*/256));
  core::NodeRef feat =
      wf.Add(ops::Synthetic("feat", Phase::kDataPreprocessing, feat_tag,
                            core::SyntheticCosts{10000, 1500, 1500},
                            /*payload_bytes=*/256),
             {src});
  wf.MarkOutput(feat);
  return wf;
}

/// How many churned versions of ChurnWorkflow the default rule stores
/// before it stops.
constexpr int kChurnWritesBeforeSkip = 6;

/// Per-iteration outputs, fingerprinted: the byte-identity unit of the
/// determinism properties.
using OutputFingerprints = std::vector<std::pair<std::string, uint64_t>>;

inline OutputFingerprints FingerprintOutputs(
    const core::ExecutionReport& report) {
  OutputFingerprints out;
  for (const auto& [name, data] : report.outputs) {
    out.emplace_back(name, data.Fingerprint());
  }
  return out;
}

/// [session][iteration] -> output fingerprints, plus total compute count:
/// the unit the determinism properties compare across execution styles.
struct RunTrace {
  std::vector<std::vector<OutputFingerprints>> outputs;
  int64_t total_computed = 0;
};

/// K isolated sequential sessions under `root` (one workspace each):
/// nothing is shared. The paper-faithful single-tenant baseline.
inline void RunIsolated(const std::string& root, const SyntheticApp& app,
                        int num_sessions, int num_iterations,
                        RunTrace* trace) {
  trace->outputs.resize(static_cast<size_t>(num_sessions));
  for (int s = 0; s < num_sessions; ++s) {
    core::SessionOptions options;
    options.workspace_dir = JoinPath(root, "isolated-" + std::to_string(s));
    options.mat_policy = std::make_shared<core::AlwaysMaterializePolicy>();
    options.max_parallelism = 1;
    auto session = core::Session::Open(options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (int i = 0; i < num_iterations; ++i) {
      auto result = (*session)->RunIteration(
          app.Build(i), "iter-" + std::to_string(i),
          i == 0 ? core::ChangeCategory::kInitial
                 : core::ChangeCategory::kMachineLearning);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      trace->outputs[static_cast<size_t>(s)].push_back(
          FingerprintOutputs(result->report));
      trace->total_computed += result->report.num_computed;
    }
  }
}

/// K concurrent sessions over one in-process SessionService rooted at
/// `workspace`: one store, one stats registry, one pool, one in-flight
/// table, one background writer. `aggregate_out` (optional) receives the
/// service-wide counters.
inline void RunShared(const std::string& workspace, const SyntheticApp& app,
                      int num_sessions, int num_iterations, RunTrace* trace,
                      service::SessionCounters* aggregate_out) {
  trace->outputs.resize(static_cast<size_t>(num_sessions));
  service::ServiceOptions options;
  options.workspace_dir = workspace;
  options.num_threads = num_sessions;
  options.mat_policy = std::make_shared<core::AlwaysMaterializePolicy>();
  auto service = service::SessionService::Open(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::vector<service::ServiceSession*> sessions;
  for (int s = 0; s < num_sessions; ++s) {
    auto session = (*service)->CreateSession("user-" + std::to_string(s));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    sessions.push_back(*session);
  }
  // One driver thread per user, iterations submitted to the shared pool;
  // all users start at once so their first iterations overlap.
  std::vector<std::thread> users;
  std::atomic<bool> failed{false};
  for (int s = 0; s < num_sessions; ++s) {
    users.emplace_back([&, s]() {
      for (int i = 0; i < num_iterations; ++i) {
        auto result =
            (*service)
                ->SubmitIteration(sessions[static_cast<size_t>(s)],
                                  app.Build(i), "iter-" + std::to_string(i),
                                  i == 0 ? core::ChangeCategory::kInitial
                                         : core::ChangeCategory::
                                               kMachineLearning)
                .get();
        if (!result.ok()) {
          ADD_FAILURE() << "session " << s << " iteration " << i << ": "
                        << result.status().ToString();
          failed.store(true);
          return;
        }
        trace->outputs[static_cast<size_t>(s)].push_back(
            FingerprintOutputs(result->report));
      }
    });
  }
  for (std::thread& t : users) {
    t.join();
  }
  ASSERT_FALSE(failed.load());
  service::SessionCounters aggregate = (*service)->AggregateCounters();
  trace->total_computed = aggregate.num_computed;
  if (aggregate_out != nullptr) {
    *aggregate_out = aggregate;
  }
}

}  // namespace testutil
}  // namespace helix

#endif  // HELIX_TESTS_SYNTHETIC_APP_H_
