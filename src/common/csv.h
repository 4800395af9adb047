// Minimal RFC-4180-style CSV reader/writer.
//
// The Census application ingests its training data through CsvScanner,
// which splits each line with SplitCsvLine. Quoted fields, embedded
// separators, and escaped quotes ("") are supported; embedded newlines
// inside quotes are supported by ParseCsv (whole-document parsing).
#ifndef HELIX_COMMON_CSV_H_
#define HELIX_COMMON_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace helix {

/// Splits a single CSV record (no embedded newlines) into `fields`
/// without copying: an unquoted field, or a quoted one with no escaped
/// quote and nothing after its closing quote, is a view into `line`.
/// Every other quoted field is unescaped into `scratch`, which is
/// reserved to `line.size()` up front so earlier views never dangle. The
/// views stay valid while `line` and `scratch` are alive and unmodified.
/// `fields` and `scratch` are cleared first, so callers reuse them across
/// lines. An empty line is one empty field.
Status SplitCsvLine(std::string_view line, char sep,
                    std::vector<std::string_view>* fields,
                    std::string* scratch);

/// Parses a single CSV record (no embedded newlines): SplitCsvLine with
/// owned fields.
Result<std::vector<std::string>> ParseCsvLine(std::string_view line,
                                              char sep = ',');

/// Parses a whole CSV document into records; handles quoted newlines and
/// both \n and \r\n line endings. A trailing newline does not produce an
/// empty record.
Result<std::vector<std::vector<std::string>>> ParseCsv(std::string_view text,
                                                       char sep = ',');

/// Renders one record, quoting fields that contain sep/quote/newline.
std::string FormatCsvLine(const std::vector<std::string>& fields,
                          char sep = ',');

}  // namespace helix

#endif  // HELIX_COMMON_CSV_H_
