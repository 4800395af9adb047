// Cross-iteration runtime statistics.
//
// The materialization optimizer "uses runtime statistics from the current
// and prior executions for guidance" (paper Section 2.3). This registry
// records, per intermediate result (keyed by its cumulative Merkle
// signature), the measured compute cost, output size, and load cost, and
// persists them so iteration t+1 can plan with iteration t's measurements.
// Beside them it keeps, per node name, how often results were materialized
// and how often a stored result was loaded back: the history the
// reuse-aware materialization rule predicts reuse from.
#ifndef HELIX_STORAGE_COST_STATS_H_
#define HELIX_STORAGE_COST_STATS_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace helix {
namespace storage {

/// Measured statistics for one intermediate result.
struct NodeStats {
  std::string node_name;
  int64_t compute_micros = -1;  // -1 = never measured
  int64_t load_micros = -1;     // -1 = never measured
  int64_t size_bytes = -1;      // -1 = never measured
  int64_t last_iteration = -1;  // iteration that last updated this entry
};

/// Reuse history of one node name. Keyed by name, not signature: an edit
/// gives a node a new signature, and whether its results get read again
/// is a property of where the node sits in the user's editing.
struct ReuseHistory {
  int64_t materialized = 0;  // results queued or written to the store
  int64_t reused = 0;        // stored results loaded back by any session
};

/// In-memory registry with binary persistence, keyed by cumulative
/// signature.
///
/// Thread safety: internally synchronized — one registry may be shared by
/// many concurrent sessions (the service layer's shared-store path); every
/// public method takes the registry's mutex. Individual reads are
/// consistent; callers needing a multi-entry consistent view take
/// Snapshot. Ownership: move-only value type (moves lock the source);
/// a shared registry is referenced, never copied. Failure modes: Load
/// returns NotFound for a missing file and Corruption for a damaged,
/// truncated or older-version one (callers start fresh); Save is atomic
/// (temp + rename, so a concurrent Load never observes a half-written
/// file) and returns IOError on filesystem failure.
class CostStatsRegistry {
 public:
  CostStatsRegistry() = default;
  CostStatsRegistry(const CostStatsRegistry&) = delete;
  CostStatsRegistry& operator=(const CostStatsRegistry&) = delete;
  CostStatsRegistry(CostStatsRegistry&& other) noexcept;
  CostStatsRegistry& operator=(CostStatsRegistry&& other) noexcept;

  /// Loads a registry previously saved with Save. NotFound if the file
  /// does not exist (callers typically treat that as an empty registry).
  static Result<CostStatsRegistry> Load(const std::string& path);

  /// Atomically persists the registry.
  Status Save(const std::string& path) const;

  /// Returns stats for `signature` if present.
  std::optional<NodeStats> Get(uint64_t signature) const;

  /// Returns the most recently updated stats for any signature whose node
  /// name is `name`. The executor uses this to estimate the compute cost
  /// of a just-edited operator (same name, new signature): parameter edits
  /// rarely change an operator's cost class.
  std::optional<NodeStats> GetLatestByName(const std::string& name) const;

  /// Merges a measurement: fields >= 0 overwrite, -1 fields are kept.
  void Record(uint64_t signature, const NodeStats& stats);

  /// Single-field conveniences over Record.
  void RecordCompute(uint64_t signature, const std::string& name,
                     int64_t micros, int64_t iteration);
  void RecordLoad(uint64_t signature, const std::string& name, int64_t micros,
                  int64_t iteration);
  void RecordSize(uint64_t signature, const std::string& name, int64_t bytes,
                  int64_t iteration);

  /// Reuse history: the executor counts a materialization when it queues
  /// or writes a result and a reuse when it loads one from the store, in
  /// any session sharing this registry.
  void RecordMaterialized(const std::string& name);
  void RecordReused(const std::string& name);
  /// {0, 0} for a name with no history.
  ReuseHistory GetReuseHistory(const std::string& name) const;

  /// Number of signatures with recorded stats.
  size_t size() const;
  /// Consistent copy of all entries (reporting/tests).
  std::vector<std::pair<uint64_t, NodeStats>> Snapshot() const;

 private:
  void RecordLocked(uint64_t signature, const NodeStats& stats);

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, NodeStats> stats_;
  /// name -> signature of the entry with the largest last_iteration.
  std::unordered_map<std::string, uint64_t> latest_by_name_;
  std::unordered_map<std::string, ReuseHistory> reuse_;
};

}  // namespace storage
}  // namespace helix

#endif  // HELIX_STORAGE_COST_STATS_H_
