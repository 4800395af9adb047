#include "storage/cost_stats.h"

#include "common/bytes.h"
#include "common/file_util.h"

namespace helix {
namespace storage {

namespace {
constexpr uint32_t kStatsMagic = 0x53584C48;  // "HLXS"
// v2 added the per-name reuse history. A v1 file is Corruption: callers
// start with an empty registry, one cold iteration.
constexpr uint32_t kStatsVersion = 2;
// Smallest encodings: signature, name length, four i64 fields; and name
// length, two i64 counts.
constexpr size_t kMinEntryBytes = 8 + 8 + 4 * 8;
constexpr size_t kMinReuseEntryBytes = 8 + 2 * 8;
}  // namespace

CostStatsRegistry::CostStatsRegistry(CostStatsRegistry&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  stats_ = std::move(other.stats_);
  latest_by_name_ = std::move(other.latest_by_name_);
  reuse_ = std::move(other.reuse_);
}

CostStatsRegistry& CostStatsRegistry::operator=(
    CostStatsRegistry&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  std::lock(mu_, other.mu_);
  std::lock_guard<std::mutex> self(mu_, std::adopt_lock);
  std::lock_guard<std::mutex> theirs(other.mu_, std::adopt_lock);
  stats_ = std::move(other.stats_);
  latest_by_name_ = std::move(other.latest_by_name_);
  reuse_ = std::move(other.reuse_);
  return *this;
}

Result<CostStatsRegistry> CostStatsRegistry::Load(const std::string& path) {
  HELIX_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  ByteReader r(data);
  HELIX_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kStatsMagic) {
    return Status::Corruption("bad stats file magic: " + path);
  }
  HELIX_ASSIGN_OR_RETURN(uint32_t version, r.GetU32());
  if (version != kStatsVersion) {
    return Status::Corruption("unsupported stats file version");
  }
  HELIX_ASSIGN_OR_RETURN(size_t count, r.GetCount(kMinEntryBytes, "stats"));
  CostStatsRegistry registry;
  for (uint64_t i = 0; i < count; ++i) {
    HELIX_ASSIGN_OR_RETURN(uint64_t sig, r.GetU64());
    NodeStats s;
    HELIX_ASSIGN_OR_RETURN(s.node_name, r.GetString());
    HELIX_ASSIGN_OR_RETURN(s.compute_micros, r.GetI64());
    HELIX_ASSIGN_OR_RETURN(s.load_micros, r.GetI64());
    HELIX_ASSIGN_OR_RETURN(s.size_bytes, r.GetI64());
    HELIX_ASSIGN_OR_RETURN(s.last_iteration, r.GetI64());
    registry.Record(sig, s);  // keeps the by-name index consistent
  }
  HELIX_ASSIGN_OR_RETURN(size_t names,
                         r.GetCount(kMinReuseEntryBytes, "reuse history"));
  for (size_t i = 0; i < names; ++i) {
    HELIX_ASSIGN_OR_RETURN(std::string name, r.GetString());
    ReuseHistory h;
    HELIX_ASSIGN_OR_RETURN(h.materialized, r.GetI64());
    HELIX_ASSIGN_OR_RETURN(h.reused, r.GetI64());
    if (h.materialized < 0 || h.reused < 0) {
      return Status::Corruption("negative reuse history count");
    }
    registry.reuse_[std::move(name)] = h;
  }
  if (r.remaining() != 0) {
    return Status::Corruption("trailing bytes after stats");
  }
  return registry;
}

Status CostStatsRegistry::Save(const std::string& path) const {
  ByteWriter w;
  {
    std::lock_guard<std::mutex> lock(mu_);
    w.PutU32(kStatsMagic);
    w.PutU32(kStatsVersion);
    w.PutU64(stats_.size());
    for (const auto& [sig, s] : stats_) {
      w.PutU64(sig);
      w.PutString(s.node_name);
      w.PutI64(s.compute_micros);
      w.PutI64(s.load_micros);
      w.PutI64(s.size_bytes);
      w.PutI64(s.last_iteration);
    }
    w.PutU64(reuse_.size());
    for (const auto& [name, h] : reuse_) {
      w.PutString(name);
      w.PutI64(h.materialized);
      w.PutI64(h.reused);
    }
  }
  return WriteStringToFile(path, w.data());
}

std::optional<NodeStats> CostStatsRegistry::Get(uint64_t signature) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(signature);
  if (it == stats_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<NodeStats> CostStatsRegistry::GetLatestByName(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = latest_by_name_.find(name);
  if (it == latest_by_name_.end()) {
    return std::nullopt;
  }
  auto entry = stats_.find(it->second);
  if (entry == stats_.end()) {
    return std::nullopt;
  }
  return entry->second;
}

void CostStatsRegistry::Record(uint64_t signature, const NodeStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordLocked(signature, stats);
}

void CostStatsRegistry::RecordLocked(uint64_t signature,
                                     const NodeStats& stats) {
  NodeStats& entry = stats_[signature];
  if (!stats.node_name.empty()) {
    entry.node_name = stats.node_name;
  }
  if (stats.compute_micros >= 0) {
    entry.compute_micros = stats.compute_micros;
  }
  if (stats.load_micros >= 0) {
    entry.load_micros = stats.load_micros;
  }
  if (stats.size_bytes >= 0) {
    entry.size_bytes = stats.size_bytes;
  }
  if (stats.last_iteration >= 0) {
    entry.last_iteration = stats.last_iteration;
  }
  if (!entry.node_name.empty()) {
    auto it = latest_by_name_.find(entry.node_name);
    if (it == latest_by_name_.end()) {
      latest_by_name_.emplace(entry.node_name, signature);
    } else {
      auto current = stats_.find(it->second);
      if (current == stats_.end() ||
          current->second.last_iteration <= entry.last_iteration) {
        it->second = signature;
      }
    }
  }
}

void CostStatsRegistry::RecordCompute(uint64_t signature,
                                      const std::string& name, int64_t micros,
                                      int64_t iteration) {
  NodeStats s;
  s.node_name = name;
  s.compute_micros = micros;
  s.last_iteration = iteration;
  Record(signature, s);
}

void CostStatsRegistry::RecordLoad(uint64_t signature, const std::string& name,
                                   int64_t micros, int64_t iteration) {
  NodeStats s;
  s.node_name = name;
  s.load_micros = micros;
  s.last_iteration = iteration;
  Record(signature, s);
}

void CostStatsRegistry::RecordSize(uint64_t signature, const std::string& name,
                                   int64_t bytes, int64_t iteration) {
  NodeStats s;
  s.node_name = name;
  s.size_bytes = bytes;
  s.last_iteration = iteration;
  Record(signature, s);
}

void CostStatsRegistry::RecordMaterialized(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  ++reuse_[name].materialized;
}

void CostStatsRegistry::RecordReused(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  ++reuse_[name].reused;
}

ReuseHistory CostStatsRegistry::GetReuseHistory(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = reuse_.find(name);
  return it == reuse_.end() ? ReuseHistory{} : it->second;
}

size_t CostStatsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.size();
}

std::vector<std::pair<uint64_t, NodeStats>> CostStatsRegistry::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<uint64_t, NodeStats>> out;
  out.reserve(stats_.size());
  for (const auto& [sig, s] : stats_) {
    out.emplace_back(sig, s);
  }
  return out;
}

}  // namespace storage
}  // namespace helix
