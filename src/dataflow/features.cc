#include "dataflow/features.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"

namespace helix {
namespace dataflow {

int32_t FeatureDict::Intern(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    return it->second;
  }
  int32_t id = static_cast<int32_t>(names_.size());
  names_.push_back(name);
  index_.emplace(name, id);
  return id;
}

int32_t FeatureDict::Lookup(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? -1 : it->second;
}

uint64_t FeatureDict::Fingerprint() const {
  Hasher h;
  h.AddU64(names_.size());
  for (const std::string& n : names_) {
    h.Add(n);
  }
  return h.Digest();
}

int64_t FeatureDict::SizeBytes() const {
  int64_t bytes = 64;
  for (const std::string& n : names_) {
    bytes += 48 + static_cast<int64_t>(n.size());
  }
  return bytes;
}

void FeatureDict::Serialize(ByteWriter* w) const {
  w->PutU64(names_.size());
  for (const std::string& n : names_) {
    w->PutString(n);
  }
}

Result<FeatureDict> FeatureDict::Deserialize(ByteReader* r) {
  HELIX_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  if (n > (1ULL << 28)) {
    return Status::Corruption("implausible feature dict size");
  }
  FeatureDict dict;
  for (uint64_t i = 0; i < n; ++i) {
    HELIX_ASSIGN_OR_RETURN(std::string name, r->GetString());
    dict.Intern(name);
  }
  if (dict.size() != static_cast<int32_t>(n)) {
    return Status::Corruption("duplicate names in serialized feature dict");
  }
  return dict;
}

void SparseVector::Set(int32_t index, double value) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), index,
      [](const auto& e, int32_t i) { return e.first < i; });
  if (it != entries_.end() && it->first == index) {
    it->second = value;
  } else {
    entries_.insert(it, {index, value});
  }
}

void SparseVector::Add(int32_t index, double delta) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), index,
      [](const auto& e, int32_t i) { return e.first < i; });
  if (it != entries_.end() && it->first == index) {
    it->second += delta;
  } else {
    entries_.insert(it, {index, delta});
  }
}

double SparseVector::Get(int32_t index) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), index,
      [](const auto& e, int32_t i) { return e.first < i; });
  if (it != entries_.end() && it->first == index) {
    return it->second;
  }
  return 0.0;
}

double SparseVector::Dot(const std::vector<double>& dense) const {
  double sum = 0.0;
  for (const auto& [idx, val] : entries_) {
    if (static_cast<size_t>(idx) < dense.size()) {
      sum += dense[static_cast<size_t>(idx)] * val;
    }
  }
  return sum;
}

void SparseVector::AddTo(std::vector<double>* dense, double scale) const {
  if (entries_.empty()) {
    return;
  }
  size_t needed = static_cast<size_t>(entries_.back().first) + 1;
  if (dense->size() < needed) {
    dense->resize(needed, 0.0);
  }
  for (const auto& [idx, val] : entries_) {
    (*dense)[static_cast<size_t>(idx)] += scale * val;
  }
}

double SparseVector::L2NormSquared() const {
  double sum = 0.0;
  for (const auto& [idx, val] : entries_) {
    (void)idx;
    sum += val * val;
  }
  return sum;
}

uint64_t SparseVector::Fingerprint() const {
  Hasher h;
  h.AddU64(entries_.size());
  for (const auto& [idx, val] : entries_) {
    h.AddI64(idx).AddDouble(val);
  }
  return h.Digest();
}

void SparseVector::Serialize(ByteWriter* w) const {
  w->PutU64(entries_.size());
  for (const auto& [idx, val] : entries_) {
    w->PutI64(idx);
    w->PutDouble(val);
  }
}

Result<SparseVector> SparseVector::Deserialize(ByteReader* r) {
  // Each entry is an i64 index and a double. The count is bounded by the
  // bytes left, so the whole body is one bounds check and one reserve.
  constexpr size_t kEntryBytes = 16;
  HELIX_ASSIGN_OR_RETURN(size_t n, r->GetCount(kEntryBytes, "sparse vector"));
  HELIX_ASSIGN_OR_RETURN(std::string_view body, r->GetRawView(n * kEntryBytes));
  SparseVector v;
  v.entries_.reserve(n);
  int64_t prev = -1;
  for (size_t i = 0; i < n; ++i) {
    const char* entry = body.data() + i * kEntryBytes;
    int64_t idx = static_cast<int64_t>(LoadU64LE(entry));
    uint64_t bits = LoadU64LE(entry + 8);
    double val;
    std::memcpy(&val, &bits, sizeof(val));
    if (idx <= prev || idx > INT32_MAX) {
      return Status::Corruption("sparse vector indices not increasing");
    }
    prev = idx;
    v.entries_.emplace_back(static_cast<int32_t>(idx), val);
  }
  return v;
}

}  // namespace dataflow
}  // namespace helix
