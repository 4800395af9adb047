#include "core/materialization.h"

#include <algorithm>

namespace helix {
namespace core {

int64_t OnlineCostModelPolicy::ReductionScore(
    const MaterializationContext& ctx) {
  // r_i = 2*l_i - (c_i + sum of ancestor computes). Negative means
  // materializing is expected to reduce future latency.
  return 2 * ctx.est_load_micros -
         (ctx.compute_micros + ctx.ancestors_compute_micros);
}

bool OnlineCostModelPolicy::ShouldMaterialize(
    const MaterializationContext& ctx) const {
  if (ctx.size_bytes > ctx.remaining_budget_bytes) {
    return false;
  }
  return ReductionScore(ctx) < 0;
}

bool AlwaysMaterializePolicy::ShouldMaterialize(
    const MaterializationContext& ctx) const {
  return ctx.size_bytes <= ctx.remaining_budget_bytes;
}

bool PhaseFilterPolicy::ShouldMaterialize(
    const MaterializationContext& ctx) const {
  bool phase_allowed = false;
  for (Phase p : phases_) {
    if (p == ctx.phase) {
      phase_allowed = true;
      break;
    }
  }
  return phase_allowed && inner_->ShouldMaterialize(ctx);
}

double ReusePredictingPolicy::PredictedReuseProbability(
    const MaterializationContext& ctx) const {
  double alpha = options_.prior_strength * options_.prior_reuse_probability;
  double beta = options_.prior_strength;
  return (alpha + static_cast<double>(ctx.times_reused)) /
         (beta + static_cast<double>(ctx.times_materialized));
}

bool ReusePredictingPolicy::ShouldMaterialize(
    const MaterializationContext& ctx) const {
  if (ctx.size_bytes > ctx.remaining_budget_bytes) {
    return false;
  }
  double recompute_cost = static_cast<double>(ctx.compute_micros +
                                              ctx.ancestors_compute_micros);
  double saving_if_reused =
      recompute_cost - static_cast<double>(ctx.est_load_micros);
  if (saving_if_reused <= 0) {
    return false;
  }
  double p = PredictedReuseProbability(ctx);
  return p * saving_if_reused > static_cast<double>(ctx.est_load_micros);
}

std::vector<size_t> SolveOfflineKnapsack(
    const std::vector<MaterializationCandidate>& candidates,
    int64_t budget_bytes) {
  constexpr int64_t kGranularity = 4096;
  if (budget_bytes <= 0 || candidates.empty()) {
    return {};
  }
  // Bucket sizes up (conservative: never overpacks the real budget).
  auto buckets = [&](int64_t bytes) {
    return (bytes + kGranularity - 1) / kGranularity;
  };
  int64_t capacity = budget_bytes / kGranularity;
  if (capacity <= 0) {
    return {};
  }
  // Guard the DP table size; callers pass per-workflow candidate sets
  // (tens of nodes), so this only trips on misuse.
  if (capacity > (1 << 22)) {
    capacity = 1 << 22;
  }

  const size_t n = candidates.size();
  size_t cap = static_cast<size_t>(capacity);
  // dp[w] = best benefit with <= w buckets; choice bitsets for traceback.
  std::vector<int64_t> dp(cap + 1, 0);
  std::vector<std::vector<bool>> taken(n, std::vector<bool>(cap + 1, false));

  for (size_t i = 0; i < n; ++i) {
    int64_t need = buckets(candidates[i].size_bytes);
    int64_t benefit = std::max<int64_t>(candidates[i].benefit_micros, 0);
    if (need > capacity || benefit <= 0) {
      continue;
    }
    for (size_t w = cap; w >= static_cast<size_t>(need); --w) {
      int64_t with = dp[w - static_cast<size_t>(need)] + benefit;
      if (with > dp[w]) {
        dp[w] = with;
        taken[i][w] = true;
      }
    }
  }

  // Traceback.
  std::vector<size_t> chosen;
  size_t w = cap;
  for (size_t i = n; i-- > 0;) {
    if (w <= cap && taken[i][w]) {
      chosen.push_back(i);
      w -= static_cast<size_t>(buckets(candidates[i].size_bytes));
    }
  }
  std::reverse(chosen.begin(), chosen.end());
  return chosen;
}

}  // namespace core
}  // namespace helix
