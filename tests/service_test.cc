// Tests for the multi-session service layer (src/service): cross-session
// reuse over one shared store, block-and-share in-flight dedup, per-session
// counter bookkeeping, and — the core property — that concurrency never
// changes results: K concurrent sessions through a SessionService produce
// byte-identical per-iteration outputs to K isolated sequential sessions,
// while computing strictly less in total (reuse actually happened).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/file_util.h"
#include "core/materialization.h"
#include "core/session.h"
#include "core/std_ops.h"
#include "obs/metrics.h"
#include "service/session_service.h"
#include "storage/cost_stats.h"
#include "storage/store.h"
#include "synthetic_app.h"
#include "writer_gate_clock.h"

namespace helix {
namespace service {
namespace {

using core::ChangeCategory;
using core::Workflow;
using testutil::FingerprintOutputs;
using testutil::kChurnWritesBeforeSkip;
using testutil::OutputFingerprints;
using testutil::RunTrace;
using testutil::SyntheticApp;
using testutil::WriterGateClock;

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("helix-service-test");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.value();
  }
  void TearDown() override { (void)RemoveDirRecursively(dir_); }

  std::string dir_;
};

// The headline property, over many seeds: concurrency + sharing never
// change any session's outputs, and strictly reduce total computation.
TEST_F(ServiceTest, CrossSessionDeterminismProperty) {
  constexpr int kSeeds = 10;
  constexpr int kSessions = 4;
  constexpr int kIterations = 3;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SyntheticApp app(0xC0FFEE + static_cast<uint64_t>(seed) * 7919);
    std::string root = JoinPath(dir_, "seed-" + std::to_string(seed));

    RunTrace isolated;
    testutil::RunIsolated(root, app, kSessions, kIterations, &isolated);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    RunTrace shared;
    SessionCounters aggregate;
    testutil::RunShared(JoinPath(root, "shared"), app, kSessions,
                       kIterations, &shared, &aggregate);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }

    // Byte-identical outputs, per session, per iteration.
    ASSERT_EQ(shared.outputs.size(), isolated.outputs.size());
    for (size_t s = 0; s < shared.outputs.size(); ++s) {
      ASSERT_EQ(shared.outputs[s].size(), isolated.outputs[s].size());
      for (size_t i = 0; i < shared.outputs[s].size(); ++i) {
        EXPECT_EQ(shared.outputs[s][i], isolated.outputs[s][i])
            << "session " << s << " iteration " << i;
      }
    }
    // Reuse actually happened: strictly fewer computations in total.
    EXPECT_LT(shared.total_computed, isolated.total_computed);
    // And it is visible in the service's own accounting.
    EXPECT_GT(aggregate.num_shared + aggregate.cross_session_loads, 0)
        << "no cross-session reuse events recorded";
  }
}

// Concurrent sessions hitting the same cold intermediate block-and-share:
// with every session started at once and prep sleeping, exactly one
// session computes prep per signature — the rest wait and share.
TEST_F(ServiceTest, InflightSharingDeduplicatesConcurrentWork) {
  constexpr int kSessions = 4;
  SyntheticApp app(0xBEEF);
  ServiceOptions options;
  options.workspace_dir = JoinPath(dir_, "inflight");
  options.num_threads = kSessions;
  options.mat_policy = std::make_shared<core::AlwaysMaterializePolicy>();
  auto service = SessionService::Open(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::vector<std::future<Result<core::IterationResult>>> futures;
  for (int s = 0; s < kSessions; ++s) {
    auto session = (*service)->CreateSession("");
    ASSERT_TRUE(session.ok());
    futures.push_back((*service)->SubmitIteration(
        *session, app.Build(0), "initial", ChangeCategory::kInitial));
  }
  int prep_computes = 0;
  for (auto& f : futures) {
    auto result = f.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const core::NodeExecution* prep = result->report.FindNode("prep");
    ASSERT_NE(prep, nullptr);
    if (prep->state == core::NodeState::kCompute) {
      ++prep_computes;
    }
  }
  // The sleep makes the sessions overlap inside prep: one owner computes
  // per overlap group, everyone else shares or loads. (Not asserted to be
  // exactly 1: a session descheduled past the owner's publish may still
  // legitimately recompute — the invariant is deduplication, not a total
  // order.)
  EXPECT_LT(prep_computes, kSessions);
  SessionCounters aggregate = (*service)->AggregateCounters();
  EXPECT_GT(aggregate.num_shared, 0);
  EXPECT_EQ((*service)->inflight()->num_shared_hits(), aggregate.num_shared);
  EXPECT_EQ((*service)->inflight()->InflightCount(), 0u);
}

// A service reopened over the same workspace serves the previous run's
// materializations: multi-tenant reuse extends across process restarts.
TEST_F(ServiceTest, ReopenedServiceServesPriorRunsResults) {
  SyntheticApp app(0xFACADE);
  std::string ws = JoinPath(dir_, "reopen");
  {
    ServiceOptions options;
    options.workspace_dir = ws;
    options.num_threads = 2;
    options.mat_policy = std::make_shared<core::AlwaysMaterializePolicy>();
    auto service = SessionService::Open(options);
    ASSERT_TRUE(service.ok());
    auto session = (*service)->CreateSession("first");
    ASSERT_TRUE(session.ok());
    auto result = (*service)->RunIteration(*session, app.Build(0), "initial",
                                           ChangeCategory::kInitial);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->report.num_materialized, 0);
  }
  ServiceOptions options;
  options.workspace_dir = ws;
  options.num_threads = 2;
  auto service = SessionService::Open(options);
  ASSERT_TRUE(service.ok());
  // The shared stats registry survived too.
  EXPECT_GT((*service)->stats()->size(), 0u);
  auto session = (*service)->CreateSession("second");
  ASSERT_TRUE(session.ok());
  auto result = (*service)->RunIteration(*session, app.Build(0), "rerun",
                                         ChangeCategory::kInitial);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->report.num_computed, 0);
  EXPECT_GT(result->report.num_loaded, 0);
  SessionCounters counters = (*session)->counters();
  EXPECT_GT(counters.cross_session_loads, 0);
  EXPECT_GT(counters.saved_micros, 0);
}

// Regression: a memory-backed service with a workspace_dir never created
// that directory (only the disk store makes its own subdirectory), so
// every shutdown failed to persist STATS with an IOError.
TEST_F(ServiceTest, MemoryBackendPersistsStatsInItsWorkspace) {
  SyntheticApp app(0x57A75);
  std::string ws = JoinPath(dir_, "memory-ws");
  ASSERT_FALSE(FileExists(ws));
  ServiceOptions options;
  options.workspace_dir = ws;
  options.storage_backend = storage::StorageBackendKind::kMemory;
  options.num_threads = 1;
  {
    auto service = SessionService::Open(options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    auto session = (*service)->CreateSession("only");
    ASSERT_TRUE(session.ok());
    auto result = (*service)->RunIteration(*session, app.Build(0), "initial",
                                           ChangeCategory::kInitial);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_TRUE(FileExists(JoinPath(ws, "STATS")));
  auto reopened = SessionService::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GT((*reopened)->stats()->size(), 0u);
}

// Per-session counters are per-session: one busy session's work never
// bleeds into an idle session's numbers.
TEST_F(ServiceTest, CountersStayPerSession) {
  SyntheticApp app(0xA11CE);
  ServiceOptions options;
  options.workspace_dir = JoinPath(dir_, "counters");
  options.num_threads = 2;
  options.mat_policy = std::make_shared<core::AlwaysMaterializePolicy>();
  auto service = SessionService::Open(options);
  ASSERT_TRUE(service.ok());
  auto busy = (*service)->CreateSession("busy");
  auto idle = (*service)->CreateSession("idle");
  ASSERT_TRUE(busy.ok());
  ASSERT_TRUE(idle.ok());
  for (int i = 0; i < 2; ++i) {
    auto result =
        (*service)->RunIteration(*busy, app.Build(i), "it",
                                 i == 0 ? ChangeCategory::kInitial
                                        : ChangeCategory::kMachineLearning);
    ASSERT_TRUE(result.ok());
  }
  EXPECT_EQ((*busy)->counters().iterations, 2);
  EXPECT_GT((*busy)->counters().num_computed, 0);
  EXPECT_EQ((*idle)->counters().iterations, 0);
  EXPECT_EQ((*idle)->counters().num_computed, 0);
  EXPECT_EQ((*service)->num_sessions(), 2u);
}

// --- Write-behind materialization -------------------------------------------

ChangeCategory CategoryOf(int iteration) {
  return iteration == 0 ? ChangeCategory::kInitial
                        : ChangeCategory::kMachineLearning;
}

std::vector<uint64_t> MaterializedSignatures(
    const core::ExecutionReport& report) {
  std::vector<uint64_t> out;
  for (const core::NodeExecution& node : report.nodes) {
    if (node.materialized) {
      out.push_back(node.signature);
    }
  }
  return out;
}

// An iteration on the shared writer returns when its operators finish:
// RunIteration comes back while the writer thread is parked inside a Put
// and this iteration's writes are all still queued. The next iteration
// finds them pending before it plans, writes them itself, and loads them
// instead of recomputing; and once it returns nothing from the earlier
// iteration is pending any more, while its own writes are.
TEST_F(ServiceTest, WriteBehindIterationsReturnBeforeTheirWritesLand) {
  WriterGateClock clock;
  SyntheticApp app(0x5EED);
  ServiceOptions options;
  options.workspace_dir = JoinPath(dir_, "write-behind");
  options.num_threads = 1;
  options.clock = &clock;
  options.mat_policy = std::make_shared<core::AlwaysMaterializePolicy>();
  auto service = SessionService::Open(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  testutil::ReleaseOnExit release(&clock);
  runtime::AsyncMaterializer* writer = (*service)->materializer();
  testutil::ParkWriter(writer, &clock);
  auto session = (*service)->CreateSession("analyst");
  ASSERT_TRUE(session.ok());

  std::vector<std::vector<uint64_t>> queued;
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    auto result = (*service)->RunIteration(*session, app.Build(i), "it",
                                           CategoryOf(i));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const core::ExecutionReport& report = result->report;
    queued.push_back(MaterializedSignatures(report));
    ASSERT_FALSE(queued.back().empty());
    // This iteration's writes are still behind: the writer is parked.
    for (uint64_t sig : queued.back()) {
      EXPECT_TRUE(writer->IsPending(sig));
      EXPECT_FALSE((*service)->store()->GetEntry(sig).has_value());
    }
    if (i == 0) {
      continue;
    }
    // No request of an earlier iteration is pending once this one returns.
    for (size_t k = 0; k + 1 < queued.size(); ++k) {
      for (uint64_t sig : queued[k]) {
        EXPECT_FALSE(writer->IsPending(sig));
        EXPECT_TRUE((*service)->store()->GetEntry(sig).has_value());
      }
    }
    // The ML edit keeps source/prep/feat. Their writes were pending when
    // this iteration started, and it planned as over a drained store:
    // load the frontier, prune what lies behind it, recompute nothing.
    const std::pair<const char*, core::NodeState> planned[] = {
        {"source", core::NodeState::kPrune},
        {"prep", core::NodeState::kPrune},
        {"feat", core::NodeState::kLoad}};
    for (const auto& [name, state] : planned) {
      const core::NodeExecution* node = report.FindNode(name);
      ASSERT_NE(node, nullptr) << name;
      EXPECT_EQ(node->state, state) << name;
    }
    EXPECT_EQ(report.num_computed, 2);  // model and eval
  }
}

// Nothing queued is lost when a session closes with its last iteration's
// writes still behind — closing writes them — or when the service shuts
// down with an open session's writes behind: a reopened store holds every
// signature any iteration queued.
TEST_F(ServiceTest, NoQueuedWriteLostAcrossCloseSessionAndShutdown) {
  SyntheticApp app(0x10C4);
  std::string ws = JoinPath(dir_, "no-loss");
  std::vector<uint64_t> queued;
  {
    WriterGateClock clock;
    ServiceOptions options;
    options.workspace_dir = ws;
    options.num_threads = 1;
    options.clock = &clock;
    options.mat_policy = std::make_shared<core::AlwaysMaterializePolicy>();
    auto service = SessionService::Open(options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    testutil::ReleaseOnExit release(&clock);
    testutil::ParkWriter((*service)->materializer(), &clock);
    for (int s = 0; s < 2; ++s) {
      auto session = (*service)->CreateSession("");
      ASSERT_TRUE(session.ok());
      std::vector<uint64_t> last;
      for (int i = 0; i < 2; ++i) {
        auto result = (*service)->RunIteration(
            *session, app.Build(10 * s + i), "it", CategoryOf(i));
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        last = MaterializedSignatures(result->report);
        queued.insert(queued.end(), last.begin(), last.end());
      }
      for (uint64_t sig : last) {
        EXPECT_TRUE((*service)->materializer()->IsPending(sig));
      }
      if (s == 0) {
        ASSERT_TRUE((*service)->CloseSession((*session)->id()).ok());
        for (uint64_t sig : last) {
          EXPECT_TRUE((*service)->store()->GetEntry(sig).has_value());
        }
      }
    }
    // The open session's last writes are still behind the parked writer
    // (plus the parked request): shutdown must write them.
    EXPECT_GT((*service)->materializer()->Pending(), 1u);
  }
  ASSERT_FALSE(queued.empty());
  auto store = storage::IntermediateStore::Open(JoinPath(ws, "store"),
                                                storage::StoreOptions());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (uint64_t sig : queued) {
    EXPECT_TRUE((*store)->GetEntry(sig).has_value()) << sig;
  }
}

// Write-behind changes when writes land, never what an iteration
// computes: two concurrent sessions through the service produce the
// outputs of a reuse-free (PlannerKind::kNoReuse) execution, seed by seed.
TEST_F(ServiceTest, WriteBehindFingerprintsMatchNoReuse) {
  constexpr int kSeeds = 10;
  constexpr int kSessions = 2;
  constexpr int kIterations = 4;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SyntheticApp app(0xB0B + static_cast<uint64_t>(seed) * 104729);
    std::vector<OutputFingerprints> expected;
    {
      core::SessionOptions options;
      options.planner = core::PlannerKind::kNoReuse;
      options.enable_materialization = false;
      options.max_parallelism = 1;
      auto session = core::Session::Open(options);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      for (int i = 0; i < kIterations; ++i) {
        auto result =
            (*session)->RunIteration(app.Build(i), "ref", CategoryOf(i));
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        expected.push_back(FingerprintOutputs(result->report));
      }
    }
    RunTrace shared;
    testutil::RunShared(JoinPath(dir_, "seed-" + std::to_string(seed)), app,
                        kSessions, kIterations, &shared, nullptr);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    for (size_t s = 0; s < shared.outputs.size(); ++s) {
      ASSERT_EQ(shared.outputs[s].size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(shared.outputs[s][i], expected[i])
            << "session " << s << " iteration " << i;
      }
    }
  }
}

// Has() is the store's reuse probe, so store.hits + store.misses must
// count each live node exactly once per iteration: bookkeeping probes
// (materialization, the owner re-check) and nodes the slicer removed do
// not count.
TEST_F(ServiceTest, StoreHitsPlusMissesCountLiveNodesOnce) {
  SyntheticApp app(0xC0DE);
  ServiceOptions options;
  options.workspace_dir = JoinPath(dir_, "hit-miss");
  options.num_threads = 1;
  options.mat_policy = std::make_shared<core::AlwaysMaterializePolicy>();
  auto service = SessionService::Open(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto session = (*service)->CreateSession("");
  ASSERT_TRUE(session.ok());
  obs::Counter* hits = (*service)->metrics()->GetCounter("store.hits");
  obs::Counter* misses = (*service)->metrics()->GetCounter("store.misses");
  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    Workflow wf = app.Build(i);
    // A dead end the slicer removes: live in no plan, probed by no one.
    wf.Add(core::ops::Synthetic("unused", core::Phase::kPostprocessing,
                                100 + i, core::SyntheticCosts{}),
           {wf.Find("feat")});
    int64_t probes_before = hits->Value() + misses->Value();
    auto result = (*service)->RunIteration(*session, wf, "it", CategoryOf(i));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    int64_t live = 0;
    for (const core::NodeExecution& node : result->report.nodes) {
      live += node.sliced ? 0 : 1;
    }
    ASSERT_LT(live, static_cast<int64_t>(result->report.nodes.size()));
    EXPECT_EQ(hits->Value() + misses->Value() - probes_before, live);
  }
  EXPECT_GT(hits->Value(), 0);
}

// --- The reuse-aware default and its shared history -------------------------

// The reuse history lives in the service's stats registry, not in a policy
// object: what session A learned decides session B's first write.
TEST_F(ServiceTest, OneSessionsReuseHistorySteersAnothersDecision) {
  VirtualClock clock;
  ServiceOptions options;
  options.workspace_dir = JoinPath(dir_, "history");
  options.num_threads = 1;
  options.clock = &clock;
  auto service = SessionService::Open(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto a = (*service)->CreateSession("a");
  ASSERT_TRUE(a.ok());
  for (int t = 0; t < kChurnWritesBeforeSkip + 2; ++t) {
    SCOPED_TRACE("version " + std::to_string(t));
    auto result = (*service)->RunIteration(*a, testutil::ChurnWorkflow(t),
                                           "edit feat", CategoryOf(t));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const core::NodeExecution* feat = result->report.FindNode("feat");
    ASSERT_EQ(feat->state, core::NodeState::kCompute);
    EXPECT_EQ(feat->materialized, t < kChurnWritesBeforeSkip);
  }
  storage::ReuseHistory history =
      (*service)->stats()->GetReuseHistory("feat");
  EXPECT_EQ(history.materialized, kChurnWritesBeforeSkip);
  EXPECT_EQ(history.reused, 0);

  auto b = (*service)->CreateSession("b");
  ASSERT_TRUE(b.ok());
  auto steered = (*service)->RunIteration(*b, testutil::ChurnWorkflow(100),
                                          "first run", CategoryOf(0));
  ASSERT_TRUE(steered.ok()) << steered.status().ToString();
  EXPECT_FALSE(steered->report.FindNode("feat")->materialized);

  // Without the history the same first run stores `feat`.
  VirtualClock fresh_clock;
  options.workspace_dir = JoinPath(dir_, "no-history");
  options.clock = &fresh_clock;
  auto fresh = SessionService::Open(options);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto c = (*fresh)->CreateSession("c");
  ASSERT_TRUE(c.ok());
  auto unsteered = (*fresh)->RunIteration(*c, testutil::ChurnWorkflow(100),
                                          "first run", CategoryOf(0));
  ASSERT_TRUE(unsteered.ok()) << unsteered.status().ToString();
  EXPECT_TRUE(unsteered->report.FindNode("feat")->materialized);
}

// Under write-behind, session A's write may still be queued when session B
// plans; B waits for it and loads it, and that load is a reuse of the
// node A wrote.
TEST_F(ServiceTest, LoadOfAnotherSessionsWriteCountsAsReuse) {
  ServiceOptions options;
  options.workspace_dir = JoinPath(dir_, "cross-reuse");
  options.num_threads = 1;
  options.mat_policy = std::make_shared<core::AlwaysMaterializePolicy>();
  auto service = SessionService::Open(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto a = (*service)->CreateSession("a");
  auto b = (*service)->CreateSession("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto wrote = (*service)->RunIteration(*a, testutil::ChurnWorkflow(1),
                                        "initial", CategoryOf(0));
  ASSERT_TRUE(wrote.ok()) << wrote.status().ToString();
  ASSERT_TRUE(wrote->report.FindNode("feat")->materialized);
  EXPECT_EQ((*service)->stats()->GetReuseHistory("feat").reused, 0);

  auto read = (*service)->RunIteration(*b, testutil::ChurnWorkflow(1),
                                       "same workflow", CategoryOf(0));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const core::NodeExecution* feat = read->report.FindNode("feat");
  ASSERT_EQ(feat->state, core::NodeState::kLoad);
  EXPECT_FALSE(feat->shared);
  storage::ReuseHistory history =
      (*service)->stats()->GetReuseHistory("feat");
  EXPECT_EQ(history.materialized, 1);
  EXPECT_EQ(history.reused, 1);
}

// Sessions record materializations and loads into the shared registry
// while other sessions read it to decide: no update is lost, and the
// totals match what the reports say happened. Run under TSan in CI.
TEST_F(ServiceTest, ConcurrentSessionsRecordReuseWhileOthersDecide) {
  constexpr int kSessions = 4;
  constexpr int kIterations = 4;
  SyntheticApp app(0xBEEF);
  ServiceOptions options;
  options.workspace_dir = JoinPath(dir_, "concurrent-history");
  options.num_threads = kSessions;
  auto service = SessionService::Open(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  std::vector<ServiceSession*> sessions;
  for (int s = 0; s < kSessions; ++s) {
    auto session = (*service)->CreateSession("user-" + std::to_string(s));
    ASSERT_TRUE(session.ok());
    sessions.push_back(*session);
  }
  std::map<std::string, storage::ReuseHistory> expected;
  std::mutex expected_mu;
  std::vector<std::thread> users;
  for (int s = 0; s < kSessions; ++s) {
    users.emplace_back([&, s]() {
      for (int i = 0; i < kIterations; ++i) {
        auto result = (*service)
                          ->SubmitIteration(sessions[static_cast<size_t>(s)],
                                            app.Build(i), "it", CategoryOf(i))
                          .get();
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        std::lock_guard<std::mutex> lock(expected_mu);
        for (const core::NodeExecution& node : result->report.nodes) {
          storage::ReuseHistory& h = expected[node.name];
          h.materialized += node.materialized ? 1 : 0;
          h.reused +=
              node.state == core::NodeState::kLoad && !node.shared ? 1 : 0;
        }
      }
    });
  }
  for (std::thread& t : users) {
    t.join();
  }
  int64_t total_reused = 0;
  for (const auto& [name, h] : expected) {
    SCOPED_TRACE(name);
    storage::ReuseHistory recorded =
        (*service)->stats()->GetReuseHistory(name);
    EXPECT_EQ(recorded.materialized, h.materialized);
    EXPECT_EQ(recorded.reused, h.reused);
    total_reused += recorded.reused;
  }
  EXPECT_GT(total_reused, 0);
}

}  // namespace
}  // namespace service
}  // namespace helix
