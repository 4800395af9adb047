// CostStatsRegistry failure modes and shared-registry behavior:
//
//   * a corrupted stats file surfaces as Corruption, and a Session opened
//     over it starts fresh instead of failing;
//   * Save is temp+rename atomic: concurrent Save and Load never observe
//     a half-written file;
//   * concurrent Record/Get from many threads is safe (the registry is
//     internally synchronized — the shared-store service path);
//   * the per-name reuse history round-trips, and hostile counts,
//     truncation and older-version files fail closed;
//   * statistics measured at iteration t actually flip an iteration t+1
//     materialization decision (the default policy planning with
//     measured costs vs. defaults), and the reuse history recorded by one
//     session steers the next.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/file_util.h"
#include "core/session.h"
#include "core/std_ops.h"
#include "dataflow/metrics.h"
#include "storage/cost_stats.h"
#include "synthetic_app.h"

namespace helix {
namespace storage {
namespace {

class CostStatsFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("helix-cost-stats-test");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.value();
  }
  void TearDown() override { (void)RemoveDirRecursively(dir_); }

  std::string dir_;
};

TEST_F(CostStatsFailureTest, CorruptFileIsCorruptionAndSessionStartsFresh) {
  std::string stats_path = JoinPath(dir_, "STATS");
  ASSERT_TRUE(
      WriteStringToFile(stats_path, "definitely not a stats file").ok());
  EXPECT_TRUE(CostStatsRegistry::Load(stats_path).status().IsCorruption());

  // A session over the damaged workspace opens fine with an empty
  // registry and overwrites the bad file on its first iteration.
  core::SessionOptions options;
  options.workspace_dir = dir_;
  auto session = core::Session::Open(options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ((*session)->stats()->size(), 0u);

  core::Workflow wf("w");
  auto a = wf.Add(core::ops::Synthetic("a", core::Phase::kDataPreprocessing,
                                       1, core::SyntheticCosts{}));
  wf.MarkOutput(a);
  ASSERT_TRUE((*session)
                  ->RunIteration(wf, "initial",
                                 core::ChangeCategory::kInitial)
                  .ok());
  auto reloaded = CostStatsRegistry::Load(stats_path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_GT(reloaded.value().size(), 0u);
}

TEST_F(CostStatsFailureTest, TruncatedFileIsCorruption) {
  CostStatsRegistry registry;
  registry.RecordCompute(1, "op", 500, 0);
  registry.RecordCompute(2, "other", 900, 1);
  std::string path = JoinPath(dir_, "STATS");
  ASSERT_TRUE(registry.Save(path).ok());
  auto full = ReadFileToString(path);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(
      WriteStringToFile(path, full.value().substr(0, full.value().size() / 2))
          .ok());
  EXPECT_TRUE(CostStatsRegistry::Load(path).status().IsCorruption());
}

// --- The per-name reuse history section --------------------------------------

CostStatsRegistry RegistryWithReuseHistory() {
  CostStatsRegistry registry;
  registry.RecordCompute(1, "scan", 500, 0);
  for (int i = 0; i < 3; ++i) {
    registry.RecordMaterialized("scan");
  }
  registry.RecordReused("scan");
  registry.RecordMaterialized("train");
  return registry;
}

TEST_F(CostStatsFailureTest, ReuseHistorySurvivesSaveAndLoad) {
  std::string path = JoinPath(dir_, "STATS");
  ASSERT_TRUE(RegistryWithReuseHistory().Save(path).ok());
  auto loaded = CostStatsRegistry::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->GetReuseHistory("scan").materialized, 3);
  EXPECT_EQ(loaded->GetReuseHistory("scan").reused, 1);
  EXPECT_EQ(loaded->GetReuseHistory("train").materialized, 1);
  EXPECT_EQ(loaded->GetReuseHistory("train").reused, 0);
  EXPECT_EQ(loaded->GetReuseHistory("never-seen").materialized, 0);
  ASSERT_TRUE(loaded->Get(1).has_value());
  EXPECT_EQ(loaded->Get(1)->compute_micros, 500);
}

// Both counts in the file are bounded by the bytes left, so an overwritten
// count is Corruption before anything is sized from it. Layout of a
// registry with no signature entries: magic, version, entry count (0),
// reuse-history count, then the history.
TEST_F(CostStatsFailureTest, HostileCountsAreCorruption) {
  CostStatsRegistry registry;
  registry.RecordMaterialized("scan");
  std::string path = JoinPath(dir_, "STATS");
  ASSERT_TRUE(registry.Save(path).ok());
  auto original = ReadFileToString(path);
  ASSERT_TRUE(original.ok());
  ASSERT_EQ(LoadU64LE(original->data() + 8), 0u);
  ASSERT_EQ(LoadU64LE(original->data() + 16), 1u);
  const uint64_t counts[] = {2, uint64_t{1} << 20, uint64_t{1} << 28,
                             uint64_t{1} << 32, uint64_t{1} << 62,
                             ~uint64_t{0}};
  for (size_t offset : {size_t{8}, size_t{16}}) {
    for (uint64_t count : counts) {
      SCOPED_TRACE("offset " + std::to_string(offset) + " count " +
                   std::to_string(count));
      std::string bytes = original.value();
      ByteWriter patched;
      patched.PutU64(count);
      bytes.replace(offset, 8, patched.data());
      ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
      EXPECT_TRUE(CostStatsRegistry::Load(path).status().IsCorruption());
    }
  }
}

TEST_F(CostStatsFailureTest, EveryTruncationIsCorruption) {
  std::string path = JoinPath(dir_, "STATS");
  ASSERT_TRUE(RegistryWithReuseHistory().Save(path).ok());
  auto full = ReadFileToString(path);
  ASSERT_TRUE(full.ok());
  std::string truncated_path = JoinPath(dir_, "STATS.cut");
  for (size_t keep = 0; keep < full->size(); ++keep) {
    SCOPED_TRACE("kept " + std::to_string(keep));
    ASSERT_TRUE(
        WriteStringToFile(truncated_path, full->substr(0, keep)).ok());
    EXPECT_TRUE(
        CostStatsRegistry::Load(truncated_path).status().IsCorruption());
  }
  // Trailing bytes are damage too, not a newer writer's extension.
  ASSERT_TRUE(WriteStringToFile(truncated_path, full.value() + "x").ok());
  EXPECT_TRUE(CostStatsRegistry::Load(truncated_path).status().IsCorruption());
}

TEST_F(CostStatsFailureTest, NegativeReuseCountIsCorruption) {
  CostStatsRegistry registry;
  registry.RecordMaterialized("scan");
  std::string path = JoinPath(dir_, "STATS");
  ASSERT_TRUE(registry.Save(path).ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  // The last field is the reuse count of the only name.
  ByteWriter negative;
  negative.PutI64(-1);
  bytes->replace(bytes->size() - 8, 8, negative.data());
  ASSERT_TRUE(WriteStringToFile(path, bytes.value()).ok());
  EXPECT_TRUE(CostStatsRegistry::Load(path).status().IsCorruption());
}

// A stats file from before the reuse history (version 1) is not read: it
// is Corruption, and a session over it starts with an empty registry.
TEST_F(CostStatsFailureTest, VersionOneFileStartsCold) {
  ByteWriter v1;
  v1.PutU32(0x53584C48);  // "HLXS"
  v1.PutU32(1);
  v1.PutU64(1);
  v1.PutU64(42);
  v1.PutString("scan");
  for (int64_t field : {500, -1, 64, 0}) {
    v1.PutI64(field);
  }
  std::string path = JoinPath(dir_, "STATS");
  ASSERT_TRUE(WriteStringToFile(path, v1.data()).ok());
  EXPECT_TRUE(CostStatsRegistry::Load(path).status().IsCorruption());
  core::SessionOptions options;
  options.workspace_dir = dir_;
  auto session = core::Session::Open(options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ((*session)->stats()->size(), 0u);
}

TEST_F(CostStatsFailureTest, ConcurrentSaveAndLoadNeverSeeTornFiles) {
  std::string path = JoinPath(dir_, "STATS");
  CostStatsRegistry registry;
  for (uint64_t sig = 1; sig <= 64; ++sig) {
    registry.RecordCompute(sig, "node-" + std::to_string(sig),
                           static_cast<int64_t>(sig) * 100, 0);
  }
  ASSERT_TRUE(registry.Save(path).ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> bad_loads{0};
  std::atomic<int64_t> good_loads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 60 && !stop.load(); ++i) {
        Status saved = registry.Save(path);
        if (!saved.ok()) {
          bad_loads.fetch_add(1);
        }
      }
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 120 && !stop.load(); ++i) {
        auto loaded = CostStatsRegistry::Load(path);
        // temp+rename atomicity: the file at `path` is always either the
        // old complete registry or the new complete registry.
        if (!loaded.ok()) {
          bad_loads.fetch_add(1);
        } else if (loaded.value().size() != 64u) {
          bad_loads.fetch_add(1);
        } else {
          good_loads.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(bad_loads.load(), 0);
  EXPECT_GT(good_loads.load(), 0);
}

TEST_F(CostStatsFailureTest, ConcurrentRecordAndReadIsSafe) {
  CostStatsRegistry registry;
  std::vector<std::thread> threads;
  std::atomic<int64_t> reads{0};
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&registry, w]() {
      for (int i = 0; i < 2000; ++i) {
        uint64_t sig = static_cast<uint64_t>(i % 37) + 1;
        std::string name = "op-" + std::to_string(i % 5);
        switch ((w + i) % 3) {
          case 0:
            registry.RecordCompute(sig, name, i, i);
            break;
          case 1:
            registry.RecordLoad(sig, name, i / 2, i);
            break;
          default:
            registry.RecordSize(sig, name, i * 3, i);
            break;
        }
      }
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&registry, &reads]() {
      for (int i = 0; i < 2000; ++i) {
        uint64_t sig = static_cast<uint64_t>(i % 41) + 1;
        auto stats = registry.Get(sig);
        if (stats.has_value()) {
          reads.fetch_add(1);
          EXPECT_FALSE(stats->node_name.empty());
        }
        (void)registry.GetLatestByName("op-" + std::to_string(i % 5));
        (void)registry.size();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(registry.size(), 37u);
  EXPECT_GT(reads.load(), 0);
}

// The point of the registry: what iteration t measures changes what
// iteration t+1 decides. A workflow source -> slow -> tail, where `slow`
// really costs ~60ms. After iteration 0, the registry knows slow's cost.
// At iteration 1 (tail edited, new signature) the OnlineCostModelPolicy
// decides whether to materialize the new tail from
//     r = 2*l_tail - (c_tail + sum of ancestor compute costs)
// where the ancestors (source, slow) are *not* recomputed this iteration
// — their costs come from the registry (measured) or the default
// estimate. Measured: ancestors ~60ms -> r < 0 -> materialize. With the
// stats file deleted and a tiny default estimate: ancestors ~micros ->
// r > 0 -> skip. Same workflow, same measured behavior at t+1; only the
// iteration-t statistics differ.
TEST_F(CostStatsFailureTest, MeasuredStatsFlipNextIterationMaterialization) {
  auto build = [](int tail_tag) {
    core::Workflow wf("flip");
    auto source =
        wf.Add(core::ops::Synthetic("source", core::Phase::kDataPreprocessing,
                                    3, core::SyntheticCosts{}));
    // Declared load cost keeps the planner loading `slow` in both
    // scenarios (5us < any compute estimate); compute cost stays
    // *measured*, which is the whole point.
    auto slow = wf.Add(
        core::ops::Reducer(
            "slow", core::Phase::kDataPreprocessing, 11,
            [](const std::vector<const dataflow::DataCollection*>& inputs)
                -> Result<dataflow::DataCollection> {
              std::this_thread::sleep_for(std::chrono::milliseconds(60));
              auto metrics = std::make_shared<dataflow::MetricsData>();
              metrics->Set("slow", inputs.empty()
                                       ? 0.0
                                       : static_cast<double>(
                                             inputs[0]->Fingerprint() % 997));
              return dataflow::DataCollection::FromMetrics(metrics);
            })
            .SetSyntheticCosts(core::SyntheticCosts{-1, 5, -1}),
        {source});
    auto tail = wf.Add(core::ops::Synthetic("tail", core::Phase::kPostprocessing,
                                            tail_tag, core::SyntheticCosts{},
                                            /*payload_bytes=*/512),
                       {slow});
    wf.MarkOutput(tail);
    return wf;
  };

  // Iteration 0: compute everything, measure slow's real cost, persist
  // stats + materializations.
  {
    core::SessionOptions options;
    options.workspace_dir = dir_;
    auto session = core::Session::Open(options);
    ASSERT_TRUE(session.ok());
    auto v0 = (*session)->RunIteration(build(100), "initial",
                                       core::ChangeCategory::kInitial);
    ASSERT_TRUE(v0.ok()) << v0.status().ToString();
    ASSERT_TRUE((*session)->stats()->Get(
        v0->report.FindNode("slow")->signature).has_value());
    EXPECT_GE((*session)
                  ->stats()
                  ->Get(v0->report.FindNode("slow")->signature)
                  ->compute_micros,
              50000);
  }

  // Iteration t+1 with iteration t's statistics: the edited tail is
  // materialized (its ancestors are known-expensive).
  {
    core::SessionOptions options;
    options.workspace_dir = dir_;
    auto session = core::Session::Open(options);
    ASSERT_TRUE(session.ok());
    auto v1 = (*session)->RunIteration(build(101), "edit tail",
                                       core::ChangeCategory::kEvaluation);
    ASSERT_TRUE(v1.ok()) << v1.status().ToString();
    const core::NodeExecution* tail = v1->report.FindNode("tail");
    ASSERT_NE(tail, nullptr);
    EXPECT_EQ(tail->state, core::NodeState::kCompute);
    EXPECT_TRUE(tail->materialized)
        << "measured ancestor costs should justify materializing tail";
    // The reused `slow` was loaded, not recomputed (~60ms avoided).
    EXPECT_NE(v1->report.FindNode("slow")->state,
              core::NodeState::kCompute);
  }

  // Same t+1 edit without iteration t's statistics (file deleted) and a
  // tiny default estimate: ancestors look cheap, the policy skips.
  ASSERT_TRUE(RemoveFileIfExists(JoinPath(dir_, "STATS")).ok());
  {
    core::SessionOptions options;
    options.workspace_dir = dir_;
    options.default_compute_estimate_micros = 10;
    auto session = core::Session::Open(options);
    ASSERT_TRUE(session.ok());
    auto v2 = (*session)->RunIteration(build(102), "edit tail again",
                                       core::ChangeCategory::kEvaluation);
    ASSERT_TRUE(v2.ok()) << v2.status().ToString();
    const core::NodeExecution* tail = v2->report.FindNode("tail");
    ASSERT_NE(tail, nullptr);
    EXPECT_EQ(tail->state, core::NodeState::kCompute);
    EXPECT_FALSE(tail->materialized)
        << "default-cost ancestors should not justify materializing tail";
    EXPECT_NE(v2->report.FindNode("slow")->state,
              core::NodeState::kCompute);
  }
}

// The reuse history is saved with the stats file: a disk session reopened
// over the workspace decides with what the closed one learned.
TEST_F(CostStatsFailureTest, ReuseHistorySteersAReopenedSession) {
  auto open = [](const std::string& dir, VirtualClock* clock) {
    core::SessionOptions options;
    options.workspace_dir = dir;
    options.clock = clock;
    return core::Session::Open(options);
  };
  {
    VirtualClock clock;
    auto session = open(dir_, &clock);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (int t = 0; t < testutil::kChurnWritesBeforeSkip; ++t) {
      auto result = (*session)->RunIteration(
          testutil::ChurnWorkflow(t), "edit feat",
          core::ChangeCategory::kDataPreprocessing);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(result->report.FindNode("feat")->materialized);
    }
  }
  auto reloaded = CostStatsRegistry::Load(JoinPath(dir_, "STATS"));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->GetReuseHistory("feat").materialized,
            testutil::kChurnWritesBeforeSkip);

  VirtualClock clock;
  auto reopened = open(dir_, &clock);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto steered = (*reopened)->RunIteration(testutil::ChurnWorkflow(100),
                                           "first run after reopen",
                                           core::ChangeCategory::kInitial);
  ASSERT_TRUE(steered.ok()) << steered.status().ToString();
  EXPECT_FALSE(steered->report.FindNode("feat")->materialized);

  // A workspace without that history stores the same result.
  VirtualClock fresh_clock;
  auto fresh = open(JoinPath(dir_, "fresh"), &fresh_clock);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto unsteered = (*fresh)->RunIteration(testutil::ChurnWorkflow(100),
                                          "first run",
                                          core::ChangeCategory::kInitial);
  ASSERT_TRUE(unsteered.ok()) << unsteered.status().ToString();
  EXPECT_TRUE(unsteered->report.FindNode("feat")->materialized);
}

}  // namespace
}  // namespace storage
}  // namespace helix
