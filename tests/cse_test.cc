// Tests for common-subexpression elimination and the reuse-predicting
// materialization policy (the extension features).
#include <gtest/gtest.h>

#include "core/cse.h"
#include "core/materialization.h"
#include "core/std_ops.h"
#include "core/workflow_dag.h"
#include "storage/cost_stats.h"

namespace helix {
namespace core {
namespace {

namespace ops = core::ops;

Operator Op(const std::string& name, int64_t tag) {
  return ops::Synthetic(name, Phase::kDataPreprocessing, tag, {});
}

// --- CSE ---------------------------------------------------------------------

TEST(CseTest, NoDuplicatesIsIdentity) {
  Workflow wf("t");
  NodeRef a = wf.Add(Op("a", 1));
  NodeRef b = wf.Add(Op("b", 2), {a});
  wf.MarkOutput(b);
  CseResult result = EliminateCommonSubexpressions(wf);
  EXPECT_EQ(result.merged, 0);
  EXPECT_EQ(result.workflow.num_nodes(), 2);
  EXPECT_EQ(result.workflow.outputs().size(), 1u);
}

TEST(CseTest, MergesIdenticalSiblings) {
  Workflow wf("t");
  NodeRef src = wf.Add(Op("src", 1));
  NodeRef dup1 = wf.Add(Op("extract1", 7), {src});
  NodeRef dup2 = wf.Add(Op("extract2", 7), {src});  // same op, same input
  NodeRef sink = wf.Add(Op("sink", 9), {dup1, dup2});
  wf.MarkOutput(sink);

  CseResult result = EliminateCommonSubexpressions(wf);
  EXPECT_EQ(result.merged, 1);
  ASSERT_EQ(result.merged_names.size(), 1u);
  EXPECT_EQ(result.merged_names[0], "extract2");
  EXPECT_EQ(result.workflow.num_nodes(), 3);

  // sink now consumes the canonical node twice.
  NodeRef new_sink = result.workflow.Find("sink");
  ASSERT_TRUE(new_sink.valid());
  const std::vector<int>& inputs = result.workflow.inputs_of(new_sink.index);
  ASSERT_EQ(inputs.size(), 2u);
  EXPECT_EQ(inputs[0], inputs[1]);
}

TEST(CseTest, TransitiveChainsMerge) {
  // Two parallel identical chains: src -> x -> y twice. The second chain
  // merges link by link (the second links' inputs are canonicalized to
  // the first chain).
  Workflow wf("t");
  NodeRef src = wf.Add(Op("src", 1));
  NodeRef x1 = wf.Add(Op("x1", 5), {src});
  NodeRef y1 = wf.Add(Op("y1", 6), {x1});
  NodeRef x2 = wf.Add(Op("x2", 5), {src});
  NodeRef y2 = wf.Add(Op("y2", 6), {x2});
  wf.MarkOutput(y1);
  wf.MarkOutput(y2);

  CseResult result = EliminateCommonSubexpressions(wf);
  EXPECT_EQ(result.merged, 2);
  EXPECT_EQ(result.workflow.num_nodes(), 3);
  // Both outputs collapse onto the same node.
  EXPECT_EQ(result.workflow.outputs().size(), 1u);
}

TEST(CseTest, DifferentParamsNotMerged) {
  Workflow wf("t");
  NodeRef src = wf.Add(Op("src", 1));
  NodeRef a = wf.Add(Op("a", 5), {src});
  NodeRef b = wf.Add(Op("b", 6), {src});  // different tag -> different sig
  NodeRef sink = wf.Add(Op("sink", 9), {a, b});
  wf.MarkOutput(sink);
  EXPECT_EQ(EliminateCommonSubexpressions(wf).merged, 0);
}

TEST(CseTest, SameOpDifferentInputsNotMerged) {
  Workflow wf("t");
  NodeRef s1 = wf.Add(Op("s1", 1));
  NodeRef s2 = wf.Add(Op("s2", 2));
  NodeRef a = wf.Add(Op("a", 5), {s1});
  NodeRef b = wf.Add(Op("b", 5), {s2});
  NodeRef sink = wf.Add(Op("sink", 9), {a, b});
  wf.MarkOutput(sink);
  EXPECT_EQ(EliminateCommonSubexpressions(wf).merged, 0);
}

TEST(CseTest, MergedWorkflowCompilesAndPreservesSignatures) {
  Workflow wf("t");
  NodeRef src = wf.Add(Op("src", 1));
  NodeRef dup1 = wf.Add(Op("d1", 7), {src});
  NodeRef dup2 = wf.Add(Op("d2", 7), {src});
  NodeRef sink = wf.Add(Op("sink", 9), {dup1, dup2});
  wf.MarkOutput(sink);

  auto original = WorkflowDag::Compile(wf);
  CseResult result = EliminateCommonSubexpressions(wf);
  auto merged = WorkflowDag::Compile(result.workflow);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(merged.ok());
  // The sink's cumulative signature is unchanged: duplicates had equal
  // cumulative signatures, so canonicalizing inputs preserves the Merkle
  // hash.
  EXPECT_EQ(original->cumulative_signature(original->FindNode("sink")),
            merged->cumulative_signature(merged->FindNode("sink")));
}

// --- ReusePredictingPolicy over the stats registry ---------------------------
//
// The policy is a pure function of its context; the history it learns from
// is the registry's per-name counts, which the executor records and copies
// into the context. These tests drive the registry the same way.

MaterializationContext Ctx(const storage::CostStatsRegistry& registry,
                           const std::string& name, int64_t compute,
                           int64_t load, int64_t ancestors) {
  MaterializationContext ctx;
  ctx.node_name = name;
  ctx.compute_micros = compute;
  ctx.est_load_micros = load;
  ctx.ancestors_compute_micros = ancestors;
  ctx.size_bytes = 10;
  ctx.remaining_budget_bytes = 1 << 20;
  storage::ReuseHistory history = registry.GetReuseHistory(name);
  ctx.times_materialized = history.materialized;
  ctx.times_reused = history.reused;
  return ctx;
}

// One iteration's outcome for `name`: materialized, and maybe loaded back.
void Observe(storage::CostStatsRegistry* registry, const std::string& name,
             bool loaded) {
  registry->RecordMaterialized(name);
  if (loaded) {
    registry->RecordReused(name);
  }
}

TEST(ReusePolicyTest, PriorBehavesLikeCostModel) {
  storage::CostStatsRegistry registry;
  ReusePredictingPolicy policy;
  // Huge saving: prior p=0.6 -> expected benefit 0.6*(10000-100) >> 100.
  EXPECT_TRUE(policy.ShouldMaterialize(Ctx(registry, "n", 10000, 100, 0)));
  // Saving below write cost: never worth it at any probability.
  EXPECT_FALSE(policy.ShouldMaterialize(Ctx(registry, "n", 100, 200, 0)));
}

TEST(ReusePolicyTest, LearnsToSkipChurnedNodes) {
  storage::CostStatsRegistry registry;
  ReusePredictingPolicy policy;
  // saving = 2000; write = 1000; threshold p > 0.5.
  EXPECT_TRUE(policy.ShouldMaterialize(
      Ctx(registry, "churny", 3000, 1000, 0)));  // prior 0.6 > 0.5

  // The node keeps being materialized but never reused (the user edits it
  // every iteration).
  for (int i = 0; i < 10; ++i) {
    Observe(&registry, "churny", /*loaded=*/false);
  }
  MaterializationContext ctx = Ctx(registry, "churny", 3000, 1000, 0);
  EXPECT_LT(policy.PredictedReuseProbability(ctx), 0.2);
  EXPECT_FALSE(policy.ShouldMaterialize(ctx));
}

TEST(ReusePolicyTest, LearnsToKeepReusedNodes) {
  storage::CostStatsRegistry registry;
  ReusePredictingPolicy::Options options;
  options.prior_reuse_probability = 0.1;  // pessimistic prior
  ReusePredictingPolicy policy(options);
  EXPECT_FALSE(policy.ShouldMaterialize(
      Ctx(registry, "stable", 3000, 1000, 0)));  // prior too low

  for (int i = 0; i < 10; ++i) {
    Observe(&registry, "stable", /*loaded=*/true);
  }
  MaterializationContext ctx = Ctx(registry, "stable", 3000, 1000, 0);
  EXPECT_GT(policy.PredictedReuseProbability(ctx), 0.8);
  EXPECT_TRUE(policy.ShouldMaterialize(ctx));
}

TEST(ReusePolicyTest, BudgetStillGates) {
  storage::CostStatsRegistry registry;
  for (int i = 0; i < 10; ++i) {
    Observe(&registry, "n", /*loaded=*/true);
  }
  ReusePredictingPolicy policy;
  MaterializationContext ctx = Ctx(registry, "n", 100000, 10, 100000);
  ctx.size_bytes = 100;
  ctx.remaining_budget_bytes = 99;
  EXPECT_FALSE(policy.ShouldMaterialize(ctx));
}

TEST(ReusePolicyTest, HistoriesAreIndependentPerName) {
  storage::CostStatsRegistry registry;
  ReusePredictingPolicy policy;
  for (int i = 0; i < 8; ++i) {
    Observe(&registry, "a", /*loaded=*/false);
    Observe(&registry, "b", /*loaded=*/true);
  }
  EXPECT_LT(policy.PredictedReuseProbability(Ctx(registry, "a", 1, 1, 0)),
            0.2);
  EXPECT_GT(policy.PredictedReuseProbability(Ctx(registry, "b", 1, 1, 0)),
            0.8);
}

}  // namespace
}  // namespace core
}  // namespace helix
