#include "dataflow/data_collection.h"

#include "common/hash.h"
#include "common/strings.h"

namespace helix {
namespace dataflow {

namespace {
// "HLXD" little-endian.
constexpr uint32_t kMagic = 0x44584C48;
// Envelope format history:
//   v1 — tables serialized row-major as tagged cells;
//   v2 — tables serialized column-contiguous (type tag + validity +
//        packed body per column); all other payload kinds unchanged.
// Writers always emit kFormatVersion; readers accept every version in
// [kMinSupportedVersion, kFormatVersion] so stores written by older
// builds keep loading. Bump kFormatVersion only with a reader for every
// still-supported older version.
constexpr uint32_t kFormatVersion = 2;
constexpr uint32_t kMinSupportedVersion = 1;
// 4 (magic) + 4 (version) + 1 (kind) + body + 8 (checksum).
constexpr size_t kEnvelopeOverheadBytes = 4 + 4 + 1 + 8;
}  // namespace

Result<const TableData*> DataCollection::AsTable() const {
  if (empty() || kind() != PayloadKind::kTable) {
    return Status::InvalidArgument("payload is not a table");
  }
  return static_cast<const TableData*>(payload_.get());
}

Result<const TextData*> DataCollection::AsText() const {
  if (empty() || kind() != PayloadKind::kText) {
    return Status::InvalidArgument("payload is not a text corpus");
  }
  return static_cast<const TextData*>(payload_.get());
}

Result<const ExamplesData*> DataCollection::AsExamples() const {
  if (empty() || kind() != PayloadKind::kExamples) {
    return Status::InvalidArgument("payload is not an example set");
  }
  return static_cast<const ExamplesData*>(payload_.get());
}

Result<const ModelData*> DataCollection::AsModel() const {
  if (empty() || kind() != PayloadKind::kModel) {
    return Status::InvalidArgument("payload is not a model");
  }
  return static_cast<const ModelData*>(payload_.get());
}

Result<const MetricsData*> DataCollection::AsMetrics() const {
  if (empty() || kind() != PayloadKind::kMetrics) {
    return Status::InvalidArgument("payload is not a metrics map");
  }
  return static_cast<const MetricsData*>(payload_.get());
}

std::string DataCollection::SerializeToString() const {
  ByteWriter w;
  // SizeBytes approximates the serialized footprint closely for columnar
  // payloads; reserving up front makes the whole serialization a single
  // allocation instead of O(log size) grow-and-copy cycles. The result is
  // then moved (never copied) into the caller — the materialization path
  // hands it straight to the storage backend.
  w.Reserve(static_cast<size_t>(SizeBytes()) + 64);
  w.PutU32(kMagic);
  w.PutU32(kFormatVersion);
  w.PutU8(static_cast<uint8_t>(kind()));
  payload_->Serialize(&w);
  uint64_t checksum = FnvHash64(w.data().data(), w.data().size());
  w.PutU64(checksum);
  return std::move(w).TakeData();
}

Result<DataCollection> DataCollection::DeserializeFromString(
    std::string_view data) {
  HELIX_RETURN_IF_ERROR(VerifyEnvelope(data));
  return ParseEnvelope(data);
}

Status DataCollection::VerifyEnvelope(std::string_view data) {
  if (data.size() < kEnvelopeOverheadBytes) {
    return Status::Corruption("data collection buffer too short");
  }
  std::string_view body = data.substr(0, data.size() - 8);
  ByteReader checksum_reader(data.substr(data.size() - 8));
  HELIX_ASSIGN_OR_RETURN(uint64_t stored_checksum, checksum_reader.GetU64());
  uint64_t actual_checksum = FnvHash64(body.data(), body.size());
  if (stored_checksum != actual_checksum) {
    return Status::Corruption(
        StrFormat("checksum mismatch: stored %016llx != actual %016llx",
                  static_cast<unsigned long long>(stored_checksum),
                  static_cast<unsigned long long>(actual_checksum)));
  }
  return Status::OK();
}

Result<DataCollection> DataCollection::ParseEnvelope(std::string_view data) {
  if (data.size() < kEnvelopeOverheadBytes) {
    return Status::Corruption("data collection buffer too short");
  }
  std::string_view body = data.substr(0, data.size() - 8);
  ByteReader r(body);
  HELIX_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kMagic) {
    return Status::Corruption("bad magic in data collection envelope");
  }
  HELIX_ASSIGN_OR_RETURN(uint32_t version, r.GetU32());
  if (version < kMinSupportedVersion || version > kFormatVersion) {
    return Status::Corruption(
        StrFormat("unsupported format version %u", version));
  }
  HELIX_ASSIGN_OR_RETURN(uint8_t kind_tag, r.GetU8());

  switch (static_cast<PayloadKind>(kind_tag)) {
    case PayloadKind::kTable: {
      // The only payload whose body changed between v1 and v2.
      HELIX_ASSIGN_OR_RETURN(auto t, TableData::Deserialize(&r, version));
      return DataCollection::FromTable(std::move(t));
    }
    case PayloadKind::kText: {
      HELIX_ASSIGN_OR_RETURN(auto t, TextData::Deserialize(&r));
      return DataCollection::FromText(std::move(t));
    }
    case PayloadKind::kExamples: {
      HELIX_ASSIGN_OR_RETURN(auto e, ExamplesData::Deserialize(&r));
      return DataCollection::FromExamples(std::move(e));
    }
    case PayloadKind::kModel: {
      HELIX_ASSIGN_OR_RETURN(auto m, ModelData::Deserialize(&r));
      return DataCollection::FromModel(std::move(m));
    }
    case PayloadKind::kMetrics: {
      HELIX_ASSIGN_OR_RETURN(auto m, MetricsData::Deserialize(&r));
      return DataCollection::FromMetrics(std::move(m));
    }
  }
  return Status::Corruption(StrFormat("bad payload kind tag %u", kind_tag));
}

}  // namespace dataflow
}  // namespace helix
