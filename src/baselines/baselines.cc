#include "baselines/baselines.h"

#include <memory>

#include "common/hash.h"

namespace helix {
namespace baselines {

const char* SystemKindToString(SystemKind kind) {
  switch (kind) {
    case SystemKind::kHelix:
      return "helix";
    case SystemKind::kHelixUnopt:
      return "helix-unopt";
    case SystemKind::kKeystoneMl:
      return "keystoneml";
    case SystemKind::kDeepDive:
      return "deepdive";
    case SystemKind::kHelixAlwaysMaterialize:
      return "helix-am";
    case SystemKind::kHelixNeverMaterialize:
      return "helix-nm";
    case SystemKind::kHelixPaperRule:
      return "helix-cm";
  }
  return "?";
}

core::SessionOptions MakeSessionOptions(SystemKind kind,
                                        const std::string& workspace_dir,
                                        int64_t storage_budget_bytes,
                                        Clock* clock) {
  core::SessionOptions options;
  options.workspace_dir = workspace_dir;
  options.storage_budget_bytes = storage_budget_bytes;
  options.clock = clock;

  switch (kind) {
    case SystemKind::kHelix:
      // Defaults: optimal planner, reuse-aware policy, slicing.
      break;
    case SystemKind::kHelixUnopt:
      options.enable_materialization = false;
      options.planner = core::PlannerKind::kNoReuse;
      options.enable_slicing = false;
      options.enable_cse = false;
      break;
    case SystemKind::kKeystoneMl:
      options.enable_materialization = false;
      options.planner = core::PlannerKind::kNoReuse;
      options.enable_slicing = true;
      break;
    case SystemKind::kDeepDive:
      options.mat_policy = std::make_shared<core::PhaseFilterPolicy>(
          std::make_shared<core::AlwaysMaterializePolicy>(),
          std::vector<core::Phase>{core::Phase::kDataPreprocessing});
      options.planner = core::PlannerKind::kNaiveReuse;
      options.enable_slicing = true;
      break;
    case SystemKind::kHelixAlwaysMaterialize:
      options.mat_policy = std::make_shared<core::AlwaysMaterializePolicy>();
      break;
    case SystemKind::kHelixNeverMaterialize:
      options.enable_materialization = false;
      break;
    case SystemKind::kHelixPaperRule:
      options.mat_policy = std::make_shared<core::OnlineCostModelPolicy>();
      break;
  }
  return options;
}

void StampDeterministicCosts(core::Workflow* workflow) {
  for (int i = 0; i < workflow->num_nodes(); ++i) {
    core::Operator* op = workflow->mutable_op(i);
    if (op->synthetic_costs().any()) {
      continue;  // synthetic operators already declare their economics
    }
    // Signature-derived, so the same operator (same type, params, UDF
    // version) costs the same in every system, session, and process.
    uint64_t h = Mix64(op->Signature());
    core::SyntheticCosts costs;
    costs.compute_micros = 20000 + static_cast<int64_t>(h % 180000);
    costs.load_micros = 2000 + costs.compute_micros / 10;
    costs.write_micros = costs.load_micros;
    op->SetSyntheticCosts(costs);
  }
}

}  // namespace baselines
}  // namespace helix
