// The materialization problem (paper Section 2.3).
//
// During execution HELIX decides, immediately when each operator finishes
// (the online constraint: results cannot be parked in memory for deferred
// decisions), whether to persist its output under the storage budget. The
// offline problem is NP-hard even under strong assumptions (reduction from
// KNAPSACK); the paper uses a simple online cost model:
//
//     r_i = 2 * l_i - (c_i + sum_{n_j in A(n_i)} c_j)
//
// where l_i is the (estimated) load cost, c_i the compute cost, and A(n_i)
// the ancestors of n_i. Materializing costs about one write (~l_i) now and
// saves (c_i + ancestor computes) - l_i next iteration, so materialize
// when r_i < 0 and the result fits in the remaining budget. That rule
// assumes every stored result is read again; the paper names predicting
// reuse as ongoing work, and HELIX's default rule does it:
//
//     p̂ · [(c_i + sum c_j) - l_i] > l_i
//
// with p̂ the node name's predicted reuse probability. At p̂ = 1 this is
// exactly r_i < 0.
//
// Policies implemented:
//   * ReusePredictingPolicy   — the reuse-aware rule (HELIX's default)
//   * OnlineCostModelPolicy   — the paper's rule, kept as an ablation
//   * AlwaysMaterializePolicy — DeepDive-style materialize-everything
//   * NeverMaterializePolicy  — KeystoneML-style
//   * PhaseFilterPolicy       — restricts another policy to given phases
//     (DeepDive materializes pre-processing results only)
//
// Every policy is a pure function of its MaterializationContext. The
// history the reuse-aware rule learns from lives in the shared, persisted
// CostStatsRegistry, which the executor updates and reads into the
// context; one policy object may serve any number of concurrent sessions.
//
// SolveOfflineKnapsack computes the clairvoyant-OPT selection for the
// ablation benchmark, under the paper's simplifying assumption (one more
// iteration, everything reusable, independent benefits).
#ifndef HELIX_CORE_MATERIALIZATION_H_
#define HELIX_CORE_MATERIALIZATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/operator.h"

namespace helix {
namespace core {

/// Everything a policy may consult when an operator completes.
struct MaterializationContext {
  std::string node_name;
  Phase phase = Phase::kDataPreprocessing;
  /// Measured compute cost of this node at this iteration.
  int64_t compute_micros = 0;
  /// Estimated cost of loading the result back (l_i).
  int64_t est_load_micros = 0;
  /// Sum of best-known compute costs over all ancestors A(n_i).
  int64_t ancestors_compute_micros = 0;
  /// Serialized size of the result.
  int64_t size_bytes = 0;
  /// Remaining storage budget.
  int64_t remaining_budget_bytes = 0;
  /// This node name's reuse history (storage::ReuseHistory): results
  /// materialized, and stored results loaded back, by every session
  /// sharing the stats registry. 0 and 0 without history.
  int64_t times_materialized = 0;
  int64_t times_reused = 0;
};

/// Online materialization decision rule.
class MaterializationPolicy {
 public:
  virtual ~MaterializationPolicy() = default;

  /// True to persist the result described by `ctx`.
  virtual bool ShouldMaterialize(const MaterializationContext& ctx) const = 0;

  /// Human-readable policy name (reports / benchmarks).
  virtual std::string name() const = 0;
};

/// The paper's cost-model rule: materialize iff r_i < 0 and it fits.
/// Ignores the reuse history; the "helix-cm" ablation.
class OnlineCostModelPolicy final : public MaterializationPolicy {
 public:
  bool ShouldMaterialize(const MaterializationContext& ctx) const override;
  std::string name() const override { return "helix-online"; }

  /// r_i = 2*l_i - (c_i + ancestor computes); exposed for tests.
  static int64_t ReductionScore(const MaterializationContext& ctx);
};

/// Materialize everything that fits (DeepDive-style when combined with the
/// pre-processing phase filter).
class AlwaysMaterializePolicy final : public MaterializationPolicy {
 public:
  bool ShouldMaterialize(const MaterializationContext& ctx) const override;
  std::string name() const override { return "always"; }
};

/// Never materialize (KeystoneML-style).
class NeverMaterializePolicy final : public MaterializationPolicy {
 public:
  bool ShouldMaterialize(const MaterializationContext&) const override {
    return false;
  }
  std::string name() const override { return "never"; }
};

/// Applies `inner` only to nodes in the listed phases; others are never
/// materialized.
class PhaseFilterPolicy final : public MaterializationPolicy {
 public:
  PhaseFilterPolicy(std::shared_ptr<MaterializationPolicy> inner,
                    std::vector<Phase> phases)
      : inner_(std::move(inner)), phases_(std::move(phases)) {}

  bool ShouldMaterialize(const MaterializationContext& ctx) const override;
  std::string name() const override {
    return inner_->name() + "+phase-filter";
  }

 private:
  std::shared_ptr<MaterializationPolicy> inner_;
  std::vector<Phase> phases_;
};

/// HELIX's default rule, the paper's "ongoing work" extension (Section
/// 2.3): predict each node's reuse probability from its history and
/// materialize when the *expected* future saving exceeds the write cost:
///
///     p̂ · [ (c_i + Σ ancestors c_j) − l_i ]  >  l_i
///
/// p̂ is a Beta-smoothed estimate of "loads per materialization of this
/// node name", from the context's history counts. With no history the
/// prior (0.6) asks for a saving of 1/0.6 write costs, a little stricter
/// than the paper's rule; nodes that keep getting invalidated before reuse
/// (a feature the user churns on, a scan over a growing stream) quickly
/// stop being persisted, and nodes that are loaded back keep being.
class ReusePredictingPolicy final : public MaterializationPolicy {
 public:
  struct Options {
    /// Prior mean reuse probability (Beta prior mean).
    double prior_reuse_probability = 0.6;
    /// Prior strength in pseudo-observations (Beta prior weight).
    double prior_strength = 2.0;
  };

  ReusePredictingPolicy() : ReusePredictingPolicy(Options()) {}
  explicit ReusePredictingPolicy(Options options) : options_(options) {}

  bool ShouldMaterialize(const MaterializationContext& ctx) const override;
  std::string name() const override { return "helix-reuse"; }

  /// p̂ for the history carried by `ctx` (exposed for tests).
  double PredictedReuseProbability(const MaterializationContext& ctx) const;

 private:
  Options options_;
};

/// One candidate for offline selection.
struct MaterializationCandidate {
  std::string node_name;
  int64_t size_bytes = 0;
  /// Next-iteration benefit of having this result on disk:
  /// (c_i + ancestor computes) - l_i, clamped at >= 0.
  int64_t benefit_micros = 0;
};

/// Offline 0/1-knapsack OPT over candidates given the byte budget.
/// Returns indices of chosen candidates. Sizes are bucketed to 4 KiB
/// granularity to bound the DP table; with <= 64 candidates and typical
/// budgets this is exact enough for the ablation claims.
std::vector<size_t> SolveOfflineKnapsack(
    const std::vector<MaterializationCandidate>& candidates,
    int64_t budget_bytes);

}  // namespace core
}  // namespace helix

#endif  // HELIX_CORE_MATERIALIZATION_H_
