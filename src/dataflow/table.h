// Relational table payload: the human-readable pre-processing format.
//
// Since the columnar refactor a table is a schema plus one immutable
// Column per field (dataflow/column.h), shared between tables via
// shared_ptr<const Column> so projection-style operators are zero-copy.
// A row-compatibility surface (AppendRow / at / RowCursor) remains for
// call sites that still think in rows; it materializes Values per cell
// and is the slow path — kernels should read typed columns.
//
// Mutation model: a table is *building* (per-column ColumnBuilders accept
// AppendRow) until sealed, and *sealed* (immutable columns) afterwards.
// Any read seals lazily; DataCollection::FromTable seals eagerly because
// published payloads are read concurrently. AppendRow on a sealed table
// unseals by copying columns back into builders (rare, test-only path).
// A building table is single-owner and NOT thread-safe; a sealed table is
// immutable and safe to share.
#ifndef HELIX_DATAFLOW_TABLE_H_
#define HELIX_DATAFLOW_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataflow/column.h"
#include "dataflow/payload.h"
#include "dataflow/schema.h"
#include "dataflow/value.h"

namespace helix {
namespace dataflow {

using Row = std::vector<Value>;

class RowCursor;

/// A schema'd columnar table.
class TableData final : public DataPayload {
 public:
  TableData() = default;
  explicit TableData(Schema schema);
  TableData(Schema schema, std::vector<Row> rows);

  /// Builds a sealed table directly from columns. Fails unless every
  /// column's length matches and the column count equals the schema's.
  /// Columns may be shared with other tables (zero-copy).
  static Result<std::shared_ptr<TableData>> FromColumns(
      Schema schema, std::vector<std::shared_ptr<const Column>> columns);

  const Schema& schema() const { return schema_; }
  int64_t num_rows() const { return num_rows_; }

  /// Cell accessor; requires valid indices. Materializes a Value (string
  /// cells copy) — row-compatibility path, not for hot loops.
  Value at(int64_t r, int c) const;

  /// Appends a row; fails if arity does not match the schema. Unseals a
  /// sealed table (copies columns into builders) on first use.
  Status AppendRow(Row row);

  /// Reserves row capacity (ingestion fast path).
  void Reserve(int64_t n);

  /// Shared handle to the column at index `c` (seals). Never deep-copies.
  std::shared_ptr<const class Column> column(int c) const;

  /// Shared handle to the column named `name`, or NotFound.
  Result<std::shared_ptr<const class Column>> Column(
      const std::string& name) const;

  /// New table holding rows `sel` (ascending indices into this table),
  /// gathering every column.
  std::shared_ptr<TableData> Filter(const SelectionVector& sel) const;

  /// Seals builders into immutable columns; idempotent. Must be called
  /// (directly or via any read accessor) before sharing across threads.
  void Seal() const;

  PayloadKind kind() const override { return PayloadKind::kTable; }
  int64_t SizeBytes() const override;
  /// Row-major per-cell hash, bit-identical to the pre-columnar row store
  /// (persisted StoreEntry fingerprints from older builds must keep
  /// verifying against reloaded payloads).
  uint64_t Fingerprint() const override;
  /// Format-v2 body: schema, row count, then column-contiguous payloads.
  void Serialize(ByteWriter* w) const override;
  std::string DebugString() const override;

  /// Parses a table body in the given envelope format version (1 =
  /// row-major tagged cells, 2 = columnar).
  static Result<std::shared_ptr<TableData>> Deserialize(
      ByteReader* r, uint32_t format_version = 2);

 private:
  void Unseal();

  Schema schema_;
  int64_t num_rows_ = 0;
  // Exactly one of columns_/builders_ is populated for tables with fields
  // (both empty for zero-field tables). Mutable: reads seal lazily; see
  // the threading contract in the class comment.
  mutable std::vector<std::shared_ptr<const class Column>> columns_;
  mutable std::vector<std::unique_ptr<ColumnBuilder>> builders_;
};

/// Forward row-wise iteration over a sealed table — the compatibility
/// view for call sites migrating off the row store incrementally.
///
///   for (RowCursor cur(table); cur.Valid(); cur.Next()) {
///     Value v = cur.value(0);
///   }
class RowCursor {
 public:
  explicit RowCursor(const TableData& table) : table_(&table) {
    table.Seal();
  }

  bool Valid() const { return row_ < table_->num_rows(); }
  void Next() { ++row_; }
  int64_t row() const { return row_; }
  /// Materializes the cell at the cursor row (string cells copy).
  Value value(int c) const { return table_->at(row_, c); }

 private:
  const TableData* table_;
  int64_t row_ = 0;
};

}  // namespace dataflow
}  // namespace helix

#endif  // HELIX_DATAFLOW_TABLE_H_
