// Workload-trace tests: generator determinism, replay determinism (the
// differential in-process vs loopback-TCP property), trace-format
// fuzzing, golden-file stability, record→replay round-trips, and the
// streaming-append suffix-only recomputation property.
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/stream_app.h"
#include "common/clock.h"
#include "common/file_util.h"
#include "core/materialization.h"
#include "net/app_specs.h"
#include "net/server.h"
#include "service/session_service.h"
#include "workload/generator.h"
#include "workload/replay.h"
#include "workload/trace.h"

namespace helix {
namespace workload {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("trace-test");
    ASSERT_TRUE(dir.ok()) << dir.status().ToString();
    root_ = dir.value();
  }
  void TearDown() override { (void)RemoveDirRecursively(root_); }

  std::string Path(const std::string& name) { return JoinPath(root_, name); }

  std::string root_;
};

// Small-but-real shapes: every scenario touches its full edit repertoire
// within a few iterations, and the census/news files stay tiny.
ScenarioConfig SmallConfig(const std::string& scenario, uint64_t seed) {
  ScenarioConfig config;
  config.scenario = scenario;
  config.seed = seed;
  config.users = 2;
  config.iterations = 3;
  config.rows = 200;
  config.docs = 10;
  config.stream_batch_rows = 50;
  config.refresh_period = 2;
  config.think_ms = 2;
  return config;
}

Trace MustGenerate(const ScenarioConfig& config) {
  auto trace = GenerateTrace(config);
  EXPECT_TRUE(trace.ok()) << trace.status().ToString();
  return trace.value();
}

// Deterministic replay: virtual clock (implies sequential), pinned
// materialization policy, in-memory store.
ReplayOptions DeterministicOptions(const std::string& workspace,
                                   const std::string& data_dir,
                                   Clock* clock) {
  ReplayOptions options;
  options.workspace_dir = workspace;
  options.mat_policy = std::make_shared<core::AlwaysMaterializePolicy>();
  options.clock = clock;
  options.think_scale = 1.0;
  options.data_dir = data_dir;
  return options;
}

// --- Generator determinism -------------------------------------------------

TEST_F(TraceTest, GenerationIsByteDeterministicAcrossSeeds) {
  for (const std::string& scenario : ScenarioNames()) {
    std::set<uint64_t> fingerprints;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      Trace a = MustGenerate(SmallConfig(scenario, seed));
      Trace b = MustGenerate(SmallConfig(scenario, seed));
      ASSERT_EQ(EncodeTrace(a), EncodeTrace(b))
          << scenario << " seed " << seed;
      ASSERT_EQ(a.events.size(), 6u) << scenario;
      fingerprints.insert(TraceFingerprint(a));
    }
    // Different seeds must actually vary the workload (the stream
    // scenario's event sequence is seed-independent by design — the edit
    // IS the append — but its header still pins the seed, which changes
    // the generated data and so the fingerprint).
    EXPECT_GT(fingerprints.size(), 1u) << scenario;
  }
}

TEST_F(TraceTest, GeneratorRejectsBadShapes) {
  ScenarioConfig config = SmallConfig("localized", 1);
  config.scenario = "nope";
  EXPECT_FALSE(GenerateTrace(config).ok());
  config = SmallConfig("sweep", 1);
  config.users = 0;
  EXPECT_FALSE(GenerateTrace(config).ok());
  config = SmallConfig("stream", 1);
  config.stream_batch_rows = 1;
  EXPECT_FALSE(GenerateTrace(config).ok());
}

// --- Encode/decode round-trip and file I/O ---------------------------------

TEST_F(TraceTest, EncodeDecodeRoundTrip) {
  Trace trace = MustGenerate(SmallConfig("refresh", 9));
  auto decoded = DecodeTrace(EncodeTrace(trace));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(EncodeTrace(decoded.value()), EncodeTrace(trace));
  EXPECT_EQ(decoded->header.scenario, "refresh");
  EXPECT_EQ(decoded->header.seed, 9u);
  EXPECT_EQ(decoded->events.size(), trace.events.size());

  std::string path = Path("t.htrc");
  ASSERT_TRUE(WriteTraceFile(path, trace).ok());
  auto read = ReadTraceFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(TraceFingerprint(read.value()), TraceFingerprint(trace));
}

// --- Format fuzzing --------------------------------------------------------

TEST_F(TraceTest, EveryTruncationIsRejected) {
  ScenarioConfig small = SmallConfig("localized", 4);
  small.users = 1;
  small.iterations = 2;
  std::string bytes = EncodeTrace(MustGenerate(small));
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto decoded = DecodeTrace(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "accepted truncation at " << len;
  }
}

TEST_F(TraceTest, EveryByteFlipIsRejected) {
  ScenarioConfig small = SmallConfig("sweep", 4);
  small.users = 1;
  small.iterations = 2;
  std::string bytes = EncodeTrace(MustGenerate(small));
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupted = bytes;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x40);
    auto decoded = DecodeTrace(corrupted);
    EXPECT_FALSE(decoded.ok()) << "accepted byte flip at " << i;
  }
}

TEST_F(TraceTest, FutureVersionIsRejectedNotMisread) {
  std::string bytes = EncodeTrace(MustGenerate(SmallConfig("features", 4)));
  // Byte 4 of the first chunk is the format version (after the u32
  // magic); a future version must fail closed before any payload parse.
  std::string future = bytes;
  future[4] = static_cast<char>(kTraceFormatVersion + 1);
  auto decoded = DecodeTrace(future);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument())
      << decoded.status().ToString();
  // Version 0 is reserved-invalid, not "older".
  std::string zero = bytes;
  zero[4] = 0;
  EXPECT_FALSE(DecodeTrace(zero).ok());
}

TEST_F(TraceTest, TrailingBytesAfterFooterAreRejected) {
  std::string bytes = EncodeTrace(MustGenerate(SmallConfig("stream", 4)));
  EXPECT_FALSE(DecodeTrace(bytes + std::string(1, '\0')).ok());
  EXPECT_FALSE(DecodeTrace(bytes + bytes).ok());
}

// --- Golden file -----------------------------------------------------------

// Pinned digest of the checked-in golden trace (localized, seed 1, the
// SmallConfig shape). Changing the trace byte format or the generator's
// event sequence changes this value — that is the point: bump the format
// version and regenerate the golden when that happens on purpose.
constexpr uint64_t kGoldenFingerprint = 0xbe0c51405445f0b1ULL;

TEST_F(TraceTest, GoldenTraceDecodesWithPinnedFingerprint) {
  std::string path =
      std::string(HELIX_TEST_SRCDIR) + "/golden/localized_s1.htrc";
  auto golden = ReadTraceFile(path);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  EXPECT_EQ(TraceFingerprint(golden.value()), kGoldenFingerprint);
  // The current generator still produces the golden byte-for-byte.
  Trace regenerated = MustGenerate(SmallConfig("localized", 1));
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(EncodeTrace(regenerated), bytes.value());
}

// --- Replay determinism ----------------------------------------------------

TEST_F(TraceTest, ReplayTwiceIsBitIdenticalPerScenario) {
  int scenario_index = 0;
  for (const std::string& scenario : ScenarioNames()) {
    Trace trace = MustGenerate(SmallConfig(scenario, 5));
    std::string data = Path(scenario + "-data");
    ASSERT_TRUE(MaterializeTraceData(trace, data).ok()) << scenario;

    ReplayResult runs[2];
    for (int r = 0; r < 2; ++r) {
      VirtualClock clock;
      auto result = ReplayTrace(
          trace,
          DeterministicOptions(
              Path(scenario + "-ws-" + std::to_string(r)), data, &clock));
      ASSERT_TRUE(result.ok()) << scenario << ": "
                               << result.status().ToString();
      runs[r] = std::move(result).value();
    }
    EXPECT_EQ(runs[0].run_fingerprint, runs[1].run_fingerprint) << scenario;
    ASSERT_EQ(runs[0].records.size(), runs[1].records.size());
    for (size_t i = 0; i < runs[0].records.size(); ++i) {
      EXPECT_EQ(runs[0].records[i].fingerprint,
                runs[1].records[i].fingerprint)
          << scenario << " record " << i;
      EXPECT_EQ(runs[0].records[i].num_computed,
                runs[1].records[i].num_computed)
          << scenario << " record " << i;
      EXPECT_EQ(runs[0].records[i].num_loaded, runs[1].records[i].num_loaded)
          << scenario << " record " << i;
    }
    EXPECT_EQ(runs[0].totals.num_computed, runs[1].totals.num_computed)
        << scenario;
    EXPECT_EQ(runs[0].totals.num_loaded, runs[1].totals.num_loaded)
        << scenario;
    EXPECT_EQ(runs[0].totals.num_shared, runs[1].totals.num_shared)
        << scenario;
    ++scenario_index;
  }
  EXPECT_EQ(scenario_index, 5);
}

// A virtual clock on which every reading advances time by a fixed step.
// Measured costs are then nonzero, so the cost-based policies have real
// decisions to make, and a sequential replay still reproduces them
// exactly (on a plain VirtualClock every real operator costs 0 and no
// cost-based policy stores anything).
class SteppingClock final : public Clock {
 public:
  int64_t NowMicros() const override { return now_ += kStepMicros; }
  void AdvanceMicros(int64_t micros) override {
    if (micros > 0) {
      now_ += micros;
    }
  }
  bool is_virtual() const override { return true; }

 private:
  static constexpr int64_t kStepMicros = 100;
  mutable int64_t now_ = 0;
};

// Value of one counter in a service metrics snapshot; -1 if absent.
int64_t CounterIn(const std::string& json, const std::string& name) {
  std::string key = "\"" + name + "\":";
  size_t at = json.find(key);
  return at == std::string::npos ? -1
                                 : std::stoll(json.substr(at + key.size()));
}

// A policy picks what is stored, never what is computed: every scenario,
// over three seeds, replays to the same outputs under the paper's rule and
// under the reuse-aware default, although the two store different sets.
TEST_F(TraceTest, MaterializationPolicyNeverChangesOutputs) {
  int diverging_runs = 0;
  for (const std::string& scenario : ScenarioNames()) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      std::string tag = scenario + "-s" + std::to_string(seed);
      SCOPED_TRACE(tag);
      Trace trace = MustGenerate(SmallConfig(scenario, seed));
      std::string data = Path(tag + "-data");
      ASSERT_TRUE(MaterializeTraceData(trace, data).ok());
      ReplayResult runs[2];
      for (int p = 0; p < 2; ++p) {
        SteppingClock clock;
        ReplayOptions options = DeterministicOptions(
            Path(tag + "-ws-" + std::to_string(p)), data, &clock);
        options.mat_policy =
            p == 0 ? std::make_shared<core::OnlineCostModelPolicy>() : nullptr;
        auto result = ReplayTrace(trace, options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        runs[p] = std::move(result).value();
      }
      EXPECT_EQ(runs[0].run_fingerprint, runs[1].run_fingerprint);
      int64_t stored[2];
      for (int p = 0; p < 2; ++p) {
        stored[p] = CounterIn(runs[p].metrics_json,
                              "executor.nodes_materialized");
        ASSERT_GE(stored[p], 0) << runs[p].metrics_json;
      }
      if (stored[0] != stored[1]) {
        ++diverging_runs;
      }
    }
  }
  EXPECT_GT(diverging_runs, 0) << "the policies never stored differently";
}

TEST_F(TraceTest, ReplaySeedsDiverge) {
  // Different seeds produce different data, so the replayed output
  // fingerprints must differ too (the fingerprint really covers results,
  // not just event shapes).
  std::set<uint64_t> run_fingerprints;
  for (uint64_t seed : {1u, 2u, 3u}) {
    Trace trace = MustGenerate(SmallConfig("sweep", seed));
    std::string data = Path("seed-data-" + std::to_string(seed));
    ASSERT_TRUE(MaterializeTraceData(trace, data).ok());
    VirtualClock clock;
    auto result = ReplayTrace(
        trace, DeterministicOptions(Path("seed-ws-" + std::to_string(seed)),
                                    data, &clock));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    run_fingerprints.insert(result->run_fingerprint);
  }
  EXPECT_EQ(run_fingerprints.size(), 3u);
}

// The differential property: the same trace replayed in-process and over
// loopback TCP produces identical per-iteration fingerprints and, with
// both sides on a virtual clock + pinned policy, identical counters.
TEST_F(TraceTest, InProcessAndLoopbackTcpMatch) {
  Trace trace = MustGenerate(SmallConfig("localized", 3));
  std::string data = Path("diff-data");
  ASSERT_TRUE(MaterializeTraceData(trace, data).ok());

  VirtualClock local_clock;
  auto local = ReplayTrace(
      trace, DeterministicOptions(Path("diff-ws-local"), data, &local_clock));
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  VirtualClock server_clock;
  net::ServerOptions server_options;
  server_options.service.workspace_dir = Path("diff-ws-remote");
  server_options.service.clock = &server_clock;
  server_options.service.mat_policy =
      std::make_shared<core::AlwaysMaterializePolicy>();
  auto server =
      net::HelixServer::Start(server_options, net::MakeStandardResolver());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  ReplayOptions remote_options;
  remote_options.remote_host = "127.0.0.1";
  remote_options.remote_port = (*server)->port();
  remote_options.sequential = true;
  remote_options.data_dir = data;
  auto remote = ReplayTrace(trace, remote_options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  (*server)->Stop();

  EXPECT_EQ(local->run_fingerprint, remote->run_fingerprint);
  ASSERT_EQ(local->records.size(), remote->records.size());
  for (size_t i = 0; i < local->records.size(); ++i) {
    EXPECT_EQ(local->records[i].fingerprint, remote->records[i].fingerprint)
        << "record " << i;
    EXPECT_EQ(local->records[i].num_computed,
              remote->records[i].num_computed)
        << "record " << i;
    EXPECT_EQ(local->records[i].num_loaded, remote->records[i].num_loaded)
        << "record " << i;
  }
  EXPECT_EQ(local->totals.num_computed, remote->totals.num_computed);
  EXPECT_EQ(local->totals.num_loaded, remote->totals.num_loaded);
}

// --- Record → replay round trip --------------------------------------------

TEST_F(TraceTest, RecordedReplayRoundTripsByteForByte) {
  Trace trace = MustGenerate(SmallConfig("features", 2));
  std::string data = Path("rec-data");
  ASSERT_TRUE(MaterializeTraceData(trace, data).ok());

  TraceRecorder recorder;
  recorder.SetHeader(trace.header);
  VirtualClock clock;
  ReplayOptions options =
      DeterministicOptions(Path("rec-ws"), data, &clock);
  options.recorder = &recorder;
  auto result = ReplayTrace(trace, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Rebase the recording back to ${WS}: it must equal the source trace
  // byte-for-byte (same specs, same order, think times preserved).
  Trace recorded =
      RebaseTracePaths(recorder.Snapshot(), data, kWorkspacePlaceholder);
  EXPECT_EQ(EncodeTrace(recorded), EncodeTrace(trace));

  // And the recording replays to the same results as the source.
  std::string data2 = Path("rec-data-2");
  ASSERT_TRUE(MaterializeTraceData(recorded, data2).ok());
  VirtualClock clock2;
  auto replayed = ReplayTrace(
      recorded, DeterministicOptions(Path("rec-ws-2"), data2, &clock2));
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->run_fingerprint, result->run_fingerprint);
}

// --- Streaming append property ---------------------------------------------

// Streaming append invalidates only the DAG suffix: after the first
// iteration, every prefix (training-side) node is loaded or pruned, never
// recomputed. Runs on the real clock: measured costs make load clearly
// cheaper than recompute, which is exactly the production setting the
// property describes (a virtual clock would zero all costs and leave the
// planner free to tie-break either way).
TEST_F(TraceTest, StreamingAppendRecomputesOnlySuffix) {
  ScenarioConfig config = SmallConfig("stream", 6);
  config.users = 1;
  config.iterations = 4;
  Trace trace = MustGenerate(config);
  std::string data = Path("stream-data");
  ASSERT_TRUE(MaterializeTraceData(trace, data).ok());
  Trace rebased = RebaseTracePaths(trace, kWorkspacePlaceholder, data);

  service::ServiceOptions service_options;
  service_options.workspace_dir = Path("stream-ws");
  service_options.mat_policy =
      std::make_shared<core::AlwaysMaterializePolicy>();
  auto service = service::SessionService::Open(service_options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto session = (*service)->CreateSession("streamer");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  core::WorkflowResolver resolver = net::MakeStandardResolver();

  std::set<std::string> prefix;
  for (const char* const* name = apps::kStreamPrefixNodes; *name != nullptr;
       ++name) {
    prefix.insert(*name);
  }
  int suffix_count = 0;
  for (const char* const* name = apps::kStreamSuffixNodes; *name != nullptr;
       ++name) {
    ++suffix_count;
  }

  for (size_t i = 0; i < rebased.events.size(); ++i) {
    const TraceEvent& event = rebased.events[i];
    auto workflow = resolver(event.spec);
    ASSERT_TRUE(workflow.ok()) << workflow.status().ToString();
    auto iteration =
        (*service)->RunIteration(session.value(), workflow.value(),
                                 event.description, event.category);
    ASSERT_TRUE(iteration.ok()) << iteration.status().ToString();
    const core::ExecutionReport& report = iteration->report;
    if (i == 0) {
      // First iteration computes the whole DAG.
      EXPECT_EQ(report.num_loaded, 0) << "iteration 0";
      continue;
    }
    for (const std::string& name : prefix) {
      const core::NodeExecution* node = report.FindNode(name);
      ASSERT_NE(node, nullptr) << name;
      EXPECT_NE(node->state, core::NodeState::kCompute)
          << "iteration " << i << " recomputed prefix node " << name;
    }
    // Everything recomputed lives in the suffix, and the scoring outputs
    // really did recompute against the appended batch.
    EXPECT_LE(report.num_computed, suffix_count) << "iteration " << i;
    EXPECT_GT(report.num_loaded, 0) << "iteration " << i;
    const core::NodeExecution* predictions = report.FindNode("predictions");
    ASSERT_NE(predictions, nullptr);
    EXPECT_EQ(predictions->state, core::NodeState::kCompute)
        << "iteration " << i;
  }
}

}  // namespace
}  // namespace workload
}  // namespace helix
