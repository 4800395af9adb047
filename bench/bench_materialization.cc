// Materialization-policy ablation (paper Section 2.3).
//
// Replays a scripted 12-iteration editing session over a synthetic
// workflow on a VIRTUAL clock (operator costs are declared, so the
// simulated hours run in milliseconds) under four policies:
//
//   helix-reuse  : HELIX's default, p̂·[(c_i + anc_i) − l_i] > l_i with p̂
//                  learned per node name from the session's stats
//   helix-online : the paper's online rule  r_i = 2 l_i - (c_i + anc_i)
//   always       : materialize everything that fits (DeepDive-ish)
//   never        : materialize nothing (KeystoneML-ish)
//
// the first three under a tight and a large storage budget. Reported:
// cumulative simulated runtime and peak store usage, as a table and as one
// `json,` record per run. Expected shape: online << never, online <=
// always (the paper's "judicious materialization" claim), and online uses
// far less storage than always at equal runtime. The default differs from
// the paper's rule only where p̂ moves a decision across the write cost.
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/strings.h"
#include "core/materialization.h"
#include "core/session.h"
#include "core/std_ops.h"

namespace helix {
namespace core {
namespace bench_ {

namespace ops = core::ops;
using helix::bench::PrintJsonLine;
using helix::bench::TempWorkspace;
using helix::bench::ValueOrDie;

// A census-like synthetic workflow: ingest -> scan -> three extractors ->
// assemble -> train -> predict -> eval, with minute-scale declared costs
// and realistic payload sizes (so the byte budget binds). Two nodes are
// deliberately cheap-to-compute but bulky ("expandA"/"expandB"): always-
// materialize wastes both time and budget on them, the online rule skips
// them (r_i = 2 l_i - (c_i + anc) > 0).
// `prep_tag`/`ml_tag`/`eval_tag` version the respective stages.
Workflow MakeWorkflow(int64_t prep_tag, int64_t ml_tag, int64_t eval_tag) {
  Workflow wf("ablation");
  auto synth = [&](const char* name, Phase phase, int64_t tag,
                   int64_t compute_ms, int64_t load_ms, int64_t bytes,
                   std::vector<NodeRef> inputs) {
    SyntheticCosts costs;
    costs.compute_micros = compute_ms * 1000;
    costs.load_micros = load_ms * 1000;
    costs.write_micros = load_ms * 1000;  // writes cost about one read
    return wf.Add(ops::Synthetic(name, phase, tag, costs, bytes),
                  std::move(inputs));
  };
  const int64_t kMiB = 1 << 20;
  NodeRef ingest = synth("ingest", Phase::kDataPreprocessing, 1, 30000,
                         4000, 8 * kMiB, {});
  NodeRef scan = synth("scan", Phase::kDataPreprocessing, prep_tag, 90000,
                       6000, 12 * kMiB, {ingest});
  // A cheap side source whose bulky expansions are fast to recompute but
  // slow to reload: 2*l > c + ancestors, so the online rule skips them
  // while always-materialize burns time and budget on them.
  NodeRef side = synth("sideSrc", Phase::kDataPreprocessing, 1, 1000, 900,
                       kMiB, {});
  NodeRef ea = synth("expandA", Phase::kDataPreprocessing, prep_tag, 800,
                     9000, 18 * kMiB, {side});
  NodeRef eb = synth("expandB", Phase::kDataPreprocessing, prep_tag, 600,
                     8000, 16 * kMiB, {side});
  NodeRef fa = synth("featA", Phase::kDataPreprocessing, prep_tag, 25000,
                     2000, 3 * kMiB, {scan, ea});
  NodeRef fb = synth("featB", Phase::kDataPreprocessing, prep_tag, 20000,
                     2000, 3 * kMiB, {scan, eb});
  NodeRef fc = synth("featC", Phase::kDataPreprocessing, prep_tag, 15000,
                     2000, 2 * kMiB, {scan});
  NodeRef assemble = synth("assemble", Phase::kDataPreprocessing, prep_tag,
                           40000, 3000, 6 * kMiB, {fa, fb, fc});
  NodeRef train = synth("train", Phase::kMachineLearning, ml_tag, 120000,
                        1000, kMiB / 2, {assemble});
  NodeRef predict = synth("predict", Phase::kMachineLearning, ml_tag, 8000,
                          1500, 2 * kMiB, {train, assemble});
  NodeRef eval = synth("eval", Phase::kPostprocessing, eval_tag, 2000, 500,
                       kMiB / 4, {predict});
  wf.MarkOutput(eval);
  return wf;
}

struct Step {
  const char* description;
  ChangeCategory category;
  int64_t prep;
  int64_t ml;
  int64_t eval;
};

const std::vector<Step>& Script() {
  static const std::vector<Step> kScript = {
      {"initial", ChangeCategory::kInitial, 1, 1, 1},
      {"tune regularization", ChangeCategory::kMachineLearning, 1, 2, 1},
      {"new metric", ChangeCategory::kEvaluation, 1, 2, 2},
      {"add feature", ChangeCategory::kDataPreprocessing, 2, 2, 2},
      {"tune learning rate", ChangeCategory::kMachineLearning, 2, 3, 2},
      {"another metric", ChangeCategory::kEvaluation, 2, 3, 3},
      {"re-run identical", ChangeCategory::kEvaluation, 2, 3, 3},
      {"bigger model", ChangeCategory::kMachineLearning, 2, 4, 3},
      {"feature cleanup", ChangeCategory::kDataPreprocessing, 3, 4, 3},
      {"tune threshold", ChangeCategory::kEvaluation, 3, 4, 4},
      {"final ml sweep", ChangeCategory::kMachineLearning, 3, 5, 4},
      {"final metrics", ChangeCategory::kEvaluation, 3, 5, 5},
  };
  return kScript;
}

struct PolicyResult {
  std::string name;
  double simulated_seconds = 0;
  int64_t peak_store_bytes = 0;
};

PolicyResult RunPolicy(const std::string& name,
                       std::shared_ptr<MaterializationPolicy> policy,
                       bool enable_materialization, int64_t budget_bytes) {
  TempWorkspace workspace("helix-mat-ablation");
  VirtualClock clock;
  SessionOptions options;
  options.workspace_dir = workspace.dir();
  options.storage_budget_bytes = budget_bytes;
  options.clock = &clock;
  options.mat_policy = std::move(policy);
  options.enable_materialization = enable_materialization;
  auto session = ValueOrDie(Session::Open(options), "open session");

  PolicyResult result;
  result.name = name;
  for (const Step& step : Script()) {
    auto iteration = ValueOrDie(
        session->RunIteration(MakeWorkflow(step.prep, step.ml, step.eval),
                              step.description, step.category),
        "iteration");
    (void)iteration;
    if (session->store() != nullptr) {
      result.peak_store_bytes =
          std::max(result.peak_store_bytes, session->store()->TotalBytes());
    }
  }
  result.simulated_seconds =
      static_cast<double>(session->cumulative_micros()) / 1e6;
  return result;
}

// "always (large budget)" doubles as the max-reuse reference: every
// reusable intermediate is on disk, so no policy can enable more reuse —
// it can only avoid the write overhead, which is exactly what the online
// rule is for.
void Run() {
  std::printf("Materialization policy ablation (virtual clock; 12-iteration "
              "script; declared costs sum to ~%d simulated minutes per cold "
              "run)\n",
              (30 + 90 + 25 + 20 + 15 + 40 + 120 + 8 + 2) / 60);

  struct Config {
    std::string label;
    std::shared_ptr<MaterializationPolicy> policy;
    bool materialize;
    int64_t budget;
  };
  // A store budget that comfortably fits the valuable intermediates of a
  // couple of versions but not every version of every node.
  const int64_t kTightBudget = 48LL << 20;  // 48 MiB
  const int64_t kHugeBudget = 1LL << 40;

  // A null policy with materialization on is the session default.
  std::vector<Config> configs;
  configs.push_back({"helix-reuse (tight budget)", nullptr, true,
                     kTightBudget});
  configs.push_back({"helix-reuse (large budget)", nullptr, true,
                     kHugeBudget});
  configs.push_back({"helix-online (tight budget)",
                     std::make_shared<OnlineCostModelPolicy>(), true,
                     kTightBudget});
  configs.push_back({"helix-online (large budget)",
                     std::make_shared<OnlineCostModelPolicy>(), true,
                     kHugeBudget});
  configs.push_back({"always (tight budget)",
                     std::make_shared<AlwaysMaterializePolicy>(), true,
                     kTightBudget});
  configs.push_back({"always (large budget)",
                     std::make_shared<AlwaysMaterializePolicy>(), true,
                     kHugeBudget});
  configs.push_back({"never", nullptr, false, 0});

  std::printf("\n%-28s %18s %16s\n", "policy", "simulated runtime",
              "peak store");
  double never_seconds = 0;
  std::map<std::string, double> seconds;
  for (const Config& config : configs) {
    PolicyResult result = RunPolicy(config.label, config.policy,
                                    config.materialize, config.budget);
    seconds[config.label] = result.simulated_seconds;
    if (config.label == "never") {
      never_seconds = result.simulated_seconds;
    }
    std::printf("%-28s %15.1f s %16s\n", result.name.c_str(),
                result.simulated_seconds,
                HumanBytes(result.peak_store_bytes).c_str());
    JsonWriter json;
    json.BeginObject();
    json.KV("record", "materialization_policy");
    json.KV("label", config.label);
    json.KV("budget_bytes", config.budget);
    json.KV("simulated_seconds", result.simulated_seconds);
    json.KV("peak_store_bytes", result.peak_store_bytes);
    json.EndObject();
    PrintJsonLine(json);
  }
  std::printf("\nsummary: the default saves %.0f%% and the paper's rule "
              "%.0f%% of cumulative runtime vs never-materialize (large "
              "budget)\n",
              100.0 *
                  (never_seconds - seconds["helix-reuse (large budget)"]) /
                  never_seconds,
              100.0 *
                  (never_seconds - seconds["helix-online (large budget)"]) /
                  never_seconds);
}

}  // namespace bench_
}  // namespace core
}  // namespace helix

int main() {
  helix::core::bench_::Run();
  helix::bench::WriteBenchSummary("materialization");
  return 0;
}
