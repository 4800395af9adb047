// Cross-cutting property tests over randomly generated iterative
// workloads. For each seed: build a random synthetic workflow DAG, apply a
// random sequence of edits, and execute the whole session on a virtual
// clock under every planner and materialization policy. Invariants:
//
//  1. Semantics: every configuration produces bit-identical output
//     fingerprints at every iteration (optimization never changes results).
//  2. Optimality: at every iteration, the OPT planner's executed plan cost
//     (loads + computes, excluding materialization writes) never exceeds
//     the compute-everything bound for the live slice — the feasible plan
//     the no-reuse baseline executes. (Cumulative *session* time is NOT an
//     invariant: materialization writes are bets on future reuse and a
//     churn-heavy random script can make any online policy lose them;
//     that trade-off is measured in bench_materialization, not asserted.)
//  3. Reuse soundness: nothing is ever loaded whose cumulative signature
//     was invalidated by the edit (checked implicitly by 1, and explicitly
//     via the change tracker here).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/file_util.h"
#include "common/strings.h"
#include "common/rng.h"
#include "core/change_tracker.h"
#include "core/session.h"
#include "core/std_ops.h"

namespace helix {
namespace core {
namespace {

namespace ops = core::ops;

// A randomly shaped workflow whose operator tags are drawn from `version`,
// so bumping an entry of `version` edits exactly that operator.
struct RandomApp {
  int num_nodes;
  std::vector<std::vector<int>> inputs;     // topology, fixed per seed
  std::vector<Phase> phases;
  std::vector<int64_t> compute_cost;
  std::vector<int64_t> load_cost;

  static RandomApp Make(uint64_t seed) {
    Rng rng(seed);
    RandomApp app;
    app.num_nodes = static_cast<int>(rng.NextInt(4, 10));
    app.inputs.resize(static_cast<size_t>(app.num_nodes));
    for (int i = 1; i < app.num_nodes; ++i) {
      int num_parents = static_cast<int>(rng.NextInt(1, 2));
      for (int p = 0; p < num_parents; ++p) {
        int parent = static_cast<int>(rng.NextInt(0, i - 1));
        app.inputs[static_cast<size_t>(i)].push_back(parent);
      }
    }
    for (int i = 0; i < app.num_nodes; ++i) {
      app.phases.push_back(static_cast<Phase>(rng.NextInt(0, 2)));
      app.compute_cost.push_back(rng.NextInt(100, 50000));
      app.load_cost.push_back(rng.NextInt(100, 20000));
    }
    return app;
  }

  Workflow Build(const std::vector<int64_t>& version) const {
    Workflow wf("random");
    std::vector<NodeRef> refs;
    for (int i = 0; i < num_nodes; ++i) {
      SyntheticCosts costs;
      costs.compute_micros = compute_cost[static_cast<size_t>(i)];
      costs.load_micros = load_cost[static_cast<size_t>(i)];
      costs.write_micros = load_cost[static_cast<size_t>(i)];
      std::vector<NodeRef> in;
      for (int p : inputs[static_cast<size_t>(i)]) {
        in.push_back(refs[static_cast<size_t>(p)]);
      }
      refs.push_back(wf.Add(
          ops::Synthetic(StrFormat("n%d", i), phases[static_cast<size_t>(i)],
                         version[static_cast<size_t>(i)], costs),
          in));
    }
    wf.MarkOutput(refs.back());  // the last node is always an output
    if (num_nodes > 5) {
      wf.MarkOutput(refs[static_cast<size_t>(num_nodes - 3)]);
    }
    return wf;
  }
};

struct SessionConfig {
  std::string label;
  PlannerKind planner;
  std::shared_ptr<MaterializationPolicy> policy;  // nullptr = online
  bool materialize = true;
};

class RandomWorkloadTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomWorkloadTest, AllConfigurationsAgreeAndOptWins) {
  const uint64_t seed = GetParam();
  RandomApp app = RandomApp::Make(seed);

  // A 6-step random edit script (each step bumps 1-2 operator versions).
  Rng rng(seed ^ 0xBEEF);
  std::vector<std::vector<int64_t>> versions;
  std::vector<int64_t> current(static_cast<size_t>(app.num_nodes), 1);
  versions.push_back(current);
  for (int step = 0; step < 5; ++step) {
    int edits = static_cast<int>(rng.NextInt(0, 2));
    for (int e = 0; e < edits; ++e) {
      current[rng.NextBelow(static_cast<uint64_t>(app.num_nodes))] +=
          static_cast<int64_t>(step) * 17 + 13;
    }
    versions.push_back(current);
  }

  std::vector<SessionConfig> configs;
  configs.push_back({"opt-online", PlannerKind::kOptimal,
                     std::make_shared<OnlineCostModelPolicy>(), true});
  configs.push_back({"opt-always", PlannerKind::kOptimal,
                     std::make_shared<AlwaysMaterializePolicy>(), true});
  configs.push_back({"opt-default", PlannerKind::kOptimal, nullptr, true});
  configs.push_back({"greedy-online", PlannerKind::kGreedy, nullptr, true});
  configs.push_back({"naive-always", PlannerKind::kNaiveReuse,
                     std::make_shared<AlwaysMaterializePolicy>(), true});
  configs.push_back(
      {"noreuse", PlannerKind::kNoReuse, nullptr, false});

  // Compute-everything cost of the live slice (nodes that reach an
  // output): the upper bound any optimal plan must beat or match.
  std::vector<int> outputs = {app.num_nodes - 1};
  if (app.num_nodes > 5) {
    outputs.push_back(app.num_nodes - 3);
  }
  std::vector<bool> live(static_cast<size_t>(app.num_nodes), false);
  {
    std::vector<int> stack = outputs;
    while (!stack.empty()) {
      int n = stack.back();
      stack.pop_back();
      if (live[static_cast<size_t>(n)]) {
        continue;
      }
      live[static_cast<size_t>(n)] = true;
      for (int p : app.inputs[static_cast<size_t>(n)]) {
        stack.push_back(p);
      }
    }
  }
  int64_t compute_everything = 0;
  for (int i = 0; i < app.num_nodes; ++i) {
    if (live[static_cast<size_t>(i)]) {
      compute_everything += app.compute_cost[static_cast<size_t>(i)];
    }
  }

  std::map<std::string, std::vector<uint64_t>> fingerprints;

  for (const SessionConfig& config : configs) {
    auto dir = MakeTempDir("helix-prop");
    ASSERT_TRUE(dir.ok());
    VirtualClock clock;
    SessionOptions options;
    options.workspace_dir = dir.value();
    options.clock = &clock;
    options.planner = config.planner;
    options.mat_policy = config.policy;
    options.enable_materialization = config.materialize;
    auto session = Session::Open(options);
    ASSERT_TRUE(session.ok());

    for (size_t v = 0; v < versions.size(); ++v) {
      auto result = (*session)->RunIteration(
          app.Build(versions[v]), StrFormat("v%zu", v),
          ChangeCategory::kMachineLearning);
      ASSERT_TRUE(result.ok())
          << config.label << " seed " << seed << " iter " << v << ": "
          << result.status().ToString();
      // Collect output fingerprints in deterministic (map) order.
      for (const auto& [name, collection] : result->report.outputs) {
        (void)name;
        fingerprints[config.label].push_back(collection.Fingerprint());
      }
      // 2. Optimality bound for the OPT planner: executed plan cost
      //    (excluding writes) never exceeds compute-everything.
      if (config.planner == PlannerKind::kOptimal) {
        int64_t plan_cost = 0;
        for (const NodeExecution& node : result->report.nodes) {
          if (node.state != NodeState::kPrune) {
            plan_cost += node.cost_micros;
          }
        }
        EXPECT_LE(plan_cost, compute_everything)
            << config.label << " seed " << seed << " iter " << v;
      }
    }
    (void)RemoveDirRecursively(dir.value());
  }

  // 1. Semantics: identical outputs across all configurations.
  const auto& reference = fingerprints["opt-online"];
  for (const auto& [label, fps] : fingerprints) {
    ASSERT_EQ(fps.size(), reference.size()) << label << " seed " << seed;
    for (size_t i = 0; i < fps.size(); ++i) {
      ASSERT_EQ(fps[i], reference[i])
          << label << " diverges at output " << i << " (seed " << seed
          << ")";
    }
  }

}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomWorkloadTest,
                         ::testing::Range<uint64_t>(0, 12));

// Explicit reuse-soundness check: whatever an iteration loads must have an
// unchanged cumulative signature relative to the previous version.
TEST(ReuseSoundnessTest, LoadedNodesAreNeverInvalidated) {
  RandomApp app = RandomApp::Make(7);
  std::vector<int64_t> v1(static_cast<size_t>(app.num_nodes), 1);
  std::vector<int64_t> v2 = v1;
  v2[0] = 99;  // edit the root: EVERYTHING is invalidated

  auto dir = MakeTempDir("helix-soundness");
  ASSERT_TRUE(dir.ok());
  VirtualClock clock;
  SessionOptions options;
  options.workspace_dir = dir.value();
  options.clock = &clock;
  options.mat_policy = std::make_shared<AlwaysMaterializePolicy>();
  auto session = Session::Open(options);
  ASSERT_TRUE(session.ok());

  ASSERT_TRUE((*session)
                  ->RunIteration(app.Build(v1), "v1",
                                 ChangeCategory::kInitial)
                  .ok());
  auto result = (*session)->RunIteration(app.Build(v2), "v2",
                                         ChangeCategory::kDataPreprocessing);
  ASSERT_TRUE(result.ok());
  for (const NodeExecution& node : result->report.nodes) {
    EXPECT_NE(node.state, NodeState::kLoad)
        << node.name << " loaded a stale result";
  }
  (void)RemoveDirRecursively(dir.value());
}

}  // namespace
}  // namespace core
}  // namespace helix
