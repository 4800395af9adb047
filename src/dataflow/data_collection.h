// DataCollection: the unit of data flowing along workflow DAG edges.
//
// In the paper every DAG node is an intermediate result; here that result is
// a DataCollection — a cheap, shareable handle to an immutable payload. The
// serialization envelope (magic, version, kind tag, body, trailing checksum)
// is what the materialization store writes to disk; deserialization of bytes
// read back from disk or the wire verifies the checksum so a corrupt store
// entry degrades to recomputation.
#ifndef HELIX_DATAFLOW_DATA_COLLECTION_H_
#define HELIX_DATAFLOW_DATA_COLLECTION_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "dataflow/examples.h"
#include "dataflow/metrics.h"
#include "dataflow/model.h"
#include "dataflow/payload.h"
#include "dataflow/table.h"
#include "dataflow/text.h"

namespace helix {
namespace dataflow {

/// Shared, immutable handle to a payload. Copying a DataCollection copies a
/// pointer, never data.
class DataCollection {
 public:
  DataCollection() = default;
  explicit DataCollection(std::shared_ptr<const DataPayload> payload)
      : payload_(std::move(payload)) {}

  static DataCollection FromTable(std::shared_ptr<TableData> t) {
    // Publishing a table freezes it: sealed tables are immutable and
    // safe for the parallel executor / async materializer to read
    // concurrently (see the mutation model in dataflow/table.h).
    if (t != nullptr) {
      t->Seal();
    }
    return DataCollection(std::move(t));
  }
  static DataCollection FromText(std::shared_ptr<TextData> t) {
    return DataCollection(std::move(t));
  }
  static DataCollection FromExamples(std::shared_ptr<ExamplesData> e) {
    return DataCollection(std::move(e));
  }
  static DataCollection FromModel(std::shared_ptr<ModelData> m) {
    return DataCollection(std::move(m));
  }
  static DataCollection FromMetrics(std::shared_ptr<MetricsData> m) {
    return DataCollection(std::move(m));
  }

  bool empty() const { return payload_ == nullptr; }
  PayloadKind kind() const { return payload_->kind(); }
  const DataPayload* payload() const { return payload_.get(); }

  int64_t SizeBytes() const { return empty() ? 0 : payload_->SizeBytes(); }
  uint64_t Fingerprint() const {
    return empty() ? 0 : payload_->Fingerprint();
  }
  std::string DebugString() const {
    return empty() ? "<empty>" : payload_->DebugString();
  }

  /// Typed accessors; InvalidArgument if the payload kind differs.
  Result<const TableData*> AsTable() const;
  Result<const TextData*> AsText() const;
  Result<const ExamplesData*> AsExamples() const;
  Result<const ModelData*> AsModel() const;
  Result<const MetricsData*> AsMetrics() const;

  /// Serializes with envelope (magic, format version, kind, body, FNV-64
  /// checksum of everything before the checksum). Always writes the
  /// current format version (v2: column-contiguous tables); the buffer is
  /// size-estimated and reserved up front so the materialization path
  /// serializes in one allocation.
  std::string SerializeToString() const;

  /// Checksum-verifies and then parses an envelope produced by
  /// SerializeToString — this version's (v2) or any still-supported older
  /// one (v1 row-major tables), so stores persisted by previous builds
  /// keep loading. Corruption on any mismatch. This is VerifyEnvelope
  /// followed by ParseEnvelope: use it for bytes that crossed a trust
  /// boundary (disk, the wire).
  static Result<DataCollection> DeserializeFromString(std::string_view data);

  /// The verify step alone: OK iff `data` is long enough to be an
  /// envelope and its trailing FNV-64 checksum matches the bytes before
  /// it. Touches every byte once.
  static Status VerifyEnvelope(std::string_view data);

  /// The parse step alone, for bytes this process serialized and kept in
  /// its own memory (the memory backend): skips the checksum pass but
  /// still checks magic, version and every bound, so malformed input is
  /// Corruption, never a crash. The result does not alias `data`.
  static Result<DataCollection> ParseEnvelope(std::string_view data);

 private:
  std::shared_ptr<const DataPayload> payload_;
};

}  // namespace dataflow
}  // namespace helix

#endif  // HELIX_DATAFLOW_DATA_COLLECTION_H_
