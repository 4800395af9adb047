// Base class for intermediate-result payloads.
//
// Every node in a HELIX workflow DAG produces a DataCollection wrapping one
// of a small set of payload kinds: relational tables, text corpora, ML
// example matrices, trained models, or metric maps. The materialization
// optimizer reasons about payloads only through SizeBytes(); the executor
// verifies plan-invariance through Fingerprint().
#ifndef HELIX_DATAFLOW_PAYLOAD_H_
#define HELIX_DATAFLOW_PAYLOAD_H_

#include <cstdint>
#include <string>

#include "common/bytes.h"

namespace helix {
namespace dataflow {

/// Discriminator for payload serialization.
enum class PayloadKind : uint8_t {
  kTable = 1,
  kText = 2,
  kExamples = 3,
  kModel = 4,
  kMetrics = 5,
};

const char* PayloadKindToString(PayloadKind k);

/// Immutable-after-construction result payload.
class DataPayload {
 public:
  virtual ~DataPayload() = default;

  virtual PayloadKind kind() const = 0;

  /// Approximate in-memory footprint; the materialization optimizer
  /// compares this against the remaining storage budget.
  virtual int64_t SizeBytes() const = 0;

  /// Deterministic content hash. Two payloads with equal fingerprints are
  /// treated as identical results (used to assert optimized == unoptimized
  /// execution).
  virtual uint64_t Fingerprint() const = 0;

  /// Appends the payload body (excluding the kind tag) to `w`.
  virtual void Serialize(ByteWriter* w) const = 0;

  /// One-line human-readable summary, e.g. "table(32561 rows x 15 cols)".
  virtual std::string DebugString() const = 0;
};

}  // namespace dataflow
}  // namespace helix

#endif  // HELIX_DATAFLOW_PAYLOAD_H_
