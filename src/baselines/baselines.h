// Baseline system simulations (paper Section 2.4).
//
// The comparison systems from the paper's evaluation, expressed as
// configurations of the same execution machinery so that runtime
// differences reflect *policy*, not implementation:
//
//  * HELIX          — min-cut OPT recomputation planner + reuse-aware
//                     online materialization (the full system).
//  * HELIX-unopt    — the demo's "without optimizations" mode: no
//                     materialization, no reuse, no slicing.
//  * KeystoneML     — one-shot optimizer: slicing/CSE within an iteration
//                     but never materializes, so every iteration recomputes
//                     ("the rerun time is constantly large regardless of
//                     what has been changed").
//  * DeepDive       — materializes ALL data pre-processing / feature
//                     extraction results and reuses any that are still
//                     valid; ML and evaluation are re-run every iteration
//                     (they are not user-configurable in DeepDive).
//  * HELIX-AM       — ablation: always-materialize all phases.
//  * HELIX-NM       — ablation: never materialize, but keep the optimal
//                     planner (isolates the materialization decision).
//  * HELIX-CM       — ablation: the paper's cost-model rule r_i < 0,
//                     which assumes every stored result is reused.
#ifndef HELIX_BASELINES_BASELINES_H_
#define HELIX_BASELINES_BASELINES_H_

#include <string>

#include "core/session.h"

namespace helix {
namespace baselines {

enum class SystemKind : uint8_t {
  kHelix = 0,
  kHelixUnopt = 1,
  kKeystoneMl = 2,
  kDeepDive = 3,
  kHelixAlwaysMaterialize = 4,
  kHelixNeverMaterialize = 5,
  /// HELIX with the paper's r_i rule instead of the reuse-aware default
  /// (ablation).
  kHelixPaperRule = 6,
};

const char* SystemKindToString(SystemKind kind);

/// Session options reproducing `kind`'s policy. `workspace_dir` may be
/// empty for systems that never materialize.
core::SessionOptions MakeSessionOptions(SystemKind kind,
                                        const std::string& workspace_dir,
                                        int64_t storage_budget_bytes,
                                        Clock* clock);

/// Stamps every real operator of `workflow` (one with no declared
/// synthetic costs) with deterministic costs derived from its signature:
/// compute in [20ms, 200ms), load and write an order of magnitude below
/// compute. On a VirtualClock the whole baseline comparison then becomes a
/// pure function of planner policy — identical orderings on every machine,
/// under any sanitizer, at any load — which is what lets the integration
/// suite assert the paper's runtime orderings exactly instead of
/// statistically. Costs do not enter operator signatures, so stamping
/// never perturbs change tracking or store keys.
void StampDeterministicCosts(core::Workflow* workflow);

}  // namespace baselines
}  // namespace helix

#endif  // HELIX_BASELINES_BASELINES_H_
