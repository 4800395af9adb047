#include "dataflow/model.h"

#include "common/hash.h"
#include "common/strings.h"

namespace helix {
namespace dataflow {

double ModelData::InfoOr(const std::string& key, double fallback) const {
  auto it = info_.find(key);
  return it == info_.end() ? fallback : it->second;
}

int64_t ModelData::SizeBytes() const {
  int64_t bytes = 64 + static_cast<int64_t>(model_type_.size()) +
                  static_cast<int64_t>(weights_.size()) * 8;
  for (const auto& [k, v] : info_) {
    (void)v;
    bytes += 32 + static_cast<int64_t>(k.size());
  }
  return bytes;
}

uint64_t ModelData::Fingerprint() const {
  Hasher h;
  h.Add(model_type_).AddDouble(bias_).AddU64(weights_.size());
  for (double w : weights_) {
    h.AddDouble(w);
  }
  h.AddU64(info_.size());
  for (const auto& [k, v] : info_) {
    h.Add(k).AddDouble(v);
  }
  return h.Digest();
}

void ModelData::Serialize(ByteWriter* w) const {
  w->PutString(model_type_);
  w->PutDouble(bias_);
  w->PutU64(weights_.size());
  for (double x : weights_) {
    w->PutDouble(x);
  }
  w->PutU64(info_.size());
  for (const auto& [k, v] : info_) {
    w->PutString(k);
    w->PutDouble(v);
  }
}

std::string ModelData::DebugString() const {
  return StrFormat("model(%s, %zu weights)", model_type_.c_str(),
                   weights_.size());
}

Result<std::shared_ptr<ModelData>> ModelData::Deserialize(ByteReader* r) {
  HELIX_ASSIGN_OR_RETURN(std::string type, r->GetString());
  HELIX_ASSIGN_OR_RETURN(double bias, r->GetDouble());
  HELIX_ASSIGN_OR_RETURN(size_t n, r->GetCount(sizeof(double), "weight"));
  std::vector<double> weights;
  weights.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    HELIX_ASSIGN_OR_RETURN(double w, r->GetDouble());
    weights.push_back(w);
  }
  auto model =
      std::make_shared<ModelData>(std::move(type), std::move(weights), bias);
  HELIX_ASSIGN_OR_RETURN(uint64_t num_info, r->GetU64());
  if (num_info > (1ULL << 20)) {
    return Status::Corruption("implausible model info count");
  }
  for (uint64_t i = 0; i < num_info; ++i) {
    HELIX_ASSIGN_OR_RETURN(std::string k, r->GetString());
    HELIX_ASSIGN_OR_RETURN(double v, r->GetDouble());
    model->SetInfo(k, v);
  }
  return model;
}

}  // namespace dataflow
}  // namespace helix
