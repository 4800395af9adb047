#include "dataflow/examples.h"

#include "common/hash.h"
#include "common/strings.h"

namespace helix {
namespace dataflow {

int64_t ExamplesData::SizeBytes() const {
  int64_t bytes = 64 + dict_->SizeBytes();
  for (const Example& e : examples_) {
    bytes += 32 + static_cast<int64_t>(e.features.num_entries()) * 16;
  }
  return bytes;
}

uint64_t ExamplesData::Fingerprint() const {
  Hasher h;
  h.AddU64(dict_->Fingerprint());
  h.AddU64(examples_.size());
  for (const Example& e : examples_) {
    h.AddU64(e.features.Fingerprint())
        .AddDouble(e.label)
        .AddI64(e.id)
        .AddBool(e.is_test);
  }
  return h.Digest();
}

void ExamplesData::Serialize(ByteWriter* w) const {
  dict_->Serialize(w);
  w->PutU64(examples_.size());
  for (const Example& e : examples_) {
    e.features.Serialize(w);
    w->PutDouble(e.label);
    w->PutI64(e.id);
    w->PutBool(e.is_test);
  }
}

std::string ExamplesData::DebugString() const {
  return StrFormat("examples(%lld rows, %d features)",
                   static_cast<long long>(num_examples()), num_features());
}

Result<std::shared_ptr<ExamplesData>> ExamplesData::Deserialize(
    ByteReader* r) {
  HELIX_ASSIGN_OR_RETURN(FeatureDict dict, FeatureDict::Deserialize(r));
  auto data = std::make_shared<ExamplesData>(
      std::make_shared<FeatureDict>(std::move(dict)));
  // Smallest example: an empty sparse vector (its u64 count), the label,
  // the id and the is_test byte.
  constexpr size_t kMinExampleBytes = 8 + 8 + 8 + 1;
  HELIX_ASSIGN_OR_RETURN(size_t n, r->GetCount(kMinExampleBytes, "example"));
  data->Reserve(static_cast<int64_t>(n));
  for (size_t i = 0; i < n; ++i) {
    Example e;
    HELIX_ASSIGN_OR_RETURN(e.features, SparseVector::Deserialize(r));
    HELIX_ASSIGN_OR_RETURN(e.label, r->GetDouble());
    HELIX_ASSIGN_OR_RETURN(e.id, r->GetI64());
    HELIX_ASSIGN_OR_RETURN(e.is_test, r->GetBool());
    data->Add(std::move(e));
  }
  return data;
}

}  // namespace dataflow
}  // namespace helix
