// Tests for the materialization policies (paper Section 2.3) and the
// offline knapsack OPT used in ablations.
#include <gtest/gtest.h>

#include <string>

#include "core/materialization.h"

namespace helix {
namespace core {
namespace {

MaterializationContext MakeContext(int64_t compute, int64_t load,
                                   int64_t ancestors, int64_t size = 100,
                                   int64_t budget = 1000000) {
  MaterializationContext ctx;
  ctx.node_name = "n";
  ctx.compute_micros = compute;
  ctx.est_load_micros = load;
  ctx.ancestors_compute_micros = ancestors;
  ctx.size_bytes = size;
  ctx.remaining_budget_bytes = budget;
  return ctx;
}

// --- Online cost-model policy (the paper's rule) ------------------------------

TEST(OnlinePolicyTest, ReductionScoreFormula) {
  // r = 2*l - (c + anc)
  EXPECT_EQ(OnlineCostModelPolicy::ReductionScore(MakeContext(100, 30, 50)),
            2 * 30 - (100 + 50));
}

TEST(OnlinePolicyTest, MaterializesWhenScoreNegative) {
  OnlineCostModelPolicy policy;
  // 2*10 - (100 + 50) < 0 -> materialize.
  EXPECT_TRUE(policy.ShouldMaterialize(MakeContext(100, 10, 50)));
  // 2*100 - (50 + 20) > 0 -> skip.
  EXPECT_FALSE(policy.ShouldMaterialize(MakeContext(50, 100, 20)));
}

TEST(OnlinePolicyTest, BoundaryScoreZeroSkips) {
  // r == 0 is "not negative" per the paper.
  EXPECT_FALSE(
      OnlineCostModelPolicy().ShouldMaterialize(MakeContext(40, 30, 20)));
}

TEST(OnlinePolicyTest, BudgetGatesEvenGoodCandidates) {
  OnlineCostModelPolicy policy;
  MaterializationContext ctx = MakeContext(1000, 1, 1000);
  ctx.size_bytes = 500;
  ctx.remaining_budget_bytes = 499;
  EXPECT_FALSE(policy.ShouldMaterialize(ctx));
  ctx.remaining_budget_bytes = 500;
  EXPECT_TRUE(policy.ShouldMaterialize(ctx));
}

TEST(OnlinePolicyTest, ExpensiveAncestryFavorsMaterialization) {
  OnlineCostModelPolicy policy;
  // Same node costs; deep ancestry flips the decision.
  EXPECT_FALSE(policy.ShouldMaterialize(MakeContext(10, 50, 0)));
  EXPECT_TRUE(policy.ShouldMaterialize(MakeContext(10, 50, 10000)));
}

// --- Always / Never / PhaseFilter ------------------------------------------------

TEST(AlwaysPolicyTest, OnlyBudgetMatters) {
  AlwaysMaterializePolicy policy;
  EXPECT_TRUE(policy.ShouldMaterialize(MakeContext(0, 1000000, 0)));
  MaterializationContext over = MakeContext(0, 0, 0);
  over.size_bytes = 10;
  over.remaining_budget_bytes = 9;
  EXPECT_FALSE(policy.ShouldMaterialize(over));
}

TEST(NeverPolicyTest, AlwaysNo) {
  NeverMaterializePolicy policy;
  EXPECT_FALSE(policy.ShouldMaterialize(MakeContext(1000000, 1, 1000000)));
}

TEST(PhaseFilterTest, RestrictsInnerPolicyToPhases) {
  PhaseFilterPolicy policy(std::make_shared<AlwaysMaterializePolicy>(),
                           {Phase::kDataPreprocessing});
  MaterializationContext preprocess = MakeContext(10, 10, 10);
  preprocess.phase = Phase::kDataPreprocessing;
  EXPECT_TRUE(policy.ShouldMaterialize(preprocess));

  MaterializationContext ml = MakeContext(10, 10, 10);
  ml.phase = Phase::kMachineLearning;
  EXPECT_FALSE(policy.ShouldMaterialize(ml));

  MaterializationContext post = MakeContext(10, 10, 10);
  post.phase = Phase::kPostprocessing;
  EXPECT_FALSE(policy.ShouldMaterialize(post));
}

// --- The reuse-aware default ---------------------------------------------------

// At p̂ = 1, p̂·[(c + anc) − l] > l is exactly 2l − (c + anc) < 0: a prior
// of mean 1 with no history, or a history where every write was read
// back, decides like the paper's rule on every cost triple.
TEST(ReuseAwarePolicyTest, ReducesToThePaperRuleWhenReuseIsCertain) {
  ReusePredictingPolicy::Options certain;
  certain.prior_reuse_probability = 1.0;
  ReusePredictingPolicy prior_one(certain);
  ReusePredictingPolicy default_prior;
  OnlineCostModelPolicy paper;
  for (int64_t compute : {0, 5, 10, 40, 59, 60, 61, 100, 1000}) {
    for (int64_t load : {0, 1, 10, 30, 31, 500}) {
      for (int64_t ancestors : {0, 1, 20, 2000}) {
        MaterializationContext ctx = MakeContext(compute, load, ancestors);
        SCOPED_TRACE(std::to_string(compute) + "/" + std::to_string(load) +
                     "/" + std::to_string(ancestors));
        EXPECT_EQ(prior_one.ShouldMaterialize(ctx),
                  paper.ShouldMaterialize(ctx));
        MaterializationContext reused = ctx;
        reused.times_materialized = 1000;
        reused.times_reused = 1000;
        EXPECT_NEAR(prior_one.PredictedReuseProbability(reused), 1.0, 1e-12);
        // The default prior's p̂ is below 1, so it never stores what the
        // paper's rule skips.
        if (!paper.ShouldMaterialize(ctx)) {
          EXPECT_FALSE(default_prior.ShouldMaterialize(ctx));
        }
      }
    }
  }
}

TEST(PolicyTest, NamesAreStable) {
  EXPECT_EQ(ReusePredictingPolicy().name(), "helix-reuse");
  EXPECT_EQ(OnlineCostModelPolicy().name(), "helix-online");
  EXPECT_EQ(AlwaysMaterializePolicy().name(), "always");
  EXPECT_EQ(NeverMaterializePolicy().name(), "never");
}

// --- Offline knapsack OPT ----------------------------------------------------------

MaterializationCandidate Candidate(const std::string& name, int64_t size,
                                   int64_t benefit) {
  MaterializationCandidate c;
  c.node_name = name;
  c.size_bytes = size;
  c.benefit_micros = benefit;
  return c;
}

int64_t TotalBenefit(const std::vector<MaterializationCandidate>& candidates,
                     const std::vector<size_t>& chosen) {
  int64_t total = 0;
  for (size_t i : chosen) {
    total += candidates[i].benefit_micros;
  }
  return total;
}

TEST(KnapsackTest, TakesEverythingUnderLooseBudget) {
  std::vector<MaterializationCandidate> candidates = {
      Candidate("a", 4096, 10), Candidate("b", 4096, 20)};
  auto chosen = SolveOfflineKnapsack(candidates, 1 << 20);
  EXPECT_EQ(chosen.size(), 2u);
}

TEST(KnapsackTest, PicksBestUnderTightBudget) {
  // Budget fits exactly one 4 KiB item; must take the higher benefit.
  std::vector<MaterializationCandidate> candidates = {
      Candidate("a", 4096, 10), Candidate("b", 4096, 25),
      Candidate("c", 4096, 15)};
  auto chosen = SolveOfflineKnapsack(candidates, 4096);
  ASSERT_EQ(chosen.size(), 1u);
  EXPECT_EQ(candidates[chosen[0]].node_name, "b");
}

TEST(KnapsackTest, ClassicTradeoff) {
  // One big item vs two small ones that together beat it.
  std::vector<MaterializationCandidate> candidates = {
      Candidate("big", 8192, 26), Candidate("s1", 4096, 14),
      Candidate("s2", 4096, 14)};
  auto chosen = SolveOfflineKnapsack(candidates, 8192);
  EXPECT_EQ(TotalBenefit(candidates, chosen), 28);
}

TEST(KnapsackTest, SkipsZeroAndNegativeBenefit) {
  std::vector<MaterializationCandidate> candidates = {
      Candidate("useless", 4096, 0), Candidate("harmful", 4096, -5),
      Candidate("good", 4096, 5)};
  auto chosen = SolveOfflineKnapsack(candidates, 1 << 20);
  ASSERT_EQ(chosen.size(), 1u);
  EXPECT_EQ(candidates[chosen[0]].node_name, "good");
}

TEST(KnapsackTest, EmptyInputsAndZeroBudget) {
  EXPECT_TRUE(SolveOfflineKnapsack({}, 1 << 20).empty());
  EXPECT_TRUE(
      SolveOfflineKnapsack({Candidate("a", 4096, 10)}, 0).empty());
  EXPECT_TRUE(
      SolveOfflineKnapsack({Candidate("a", 4096, 10)}, 100).empty());
}

TEST(KnapsackTest, SizesRoundedUpConservatively) {
  // A 4097-byte item needs two 4 KiB buckets; budget of one bucket can't
  // hold it.
  std::vector<MaterializationCandidate> candidates = {
      Candidate("a", 4097, 10)};
  EXPECT_TRUE(SolveOfflineKnapsack(candidates, 4096).empty());
  EXPECT_EQ(SolveOfflineKnapsack(candidates, 8192).size(), 1u);
}

}  // namespace
}  // namespace core
}  // namespace helix
