#include "common/csv.h"

namespace helix {

namespace {

Status QuoteInFieldError() {
  return Status::InvalidArgument(
      "CSV: quote in the middle of an unquoted field");
}

Status NewlineError() {
  return Status::InvalidArgument("CSV: newline in single-line mode");
}

// Advances `*pos` over unquoted field text to the next separator or the
// end of `line`. A quote or newline there is an error, as in the
// whole-document parser: a quote may only open a field, and a single
// line has no newlines outside quotes. '"', '\n' and '\r' never act as
// separators, matching ParseImpl's precedence.
Status ScanUnquoted(std::string_view line, char sep, size_t* pos) {
  size_t j = *pos;
  for (; j < line.size(); ++j) {
    const char c = line[j];
    if (c == '"') {
      return QuoteInFieldError();
    }
    if (c == '\n') {
      return NewlineError();
    }
    if (c == sep && c != '\r') {
      break;
    }
  }
  *pos = j;
  return Status::OK();
}

// Whole-document CSV state machine: newlines outside quotes terminate
// records.
Result<std::vector<std::vector<std::string>>> ParseImpl(std::string_view text,
                                                        char sep) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;  // true once any char (or quote) seen
  bool any_content = false;

  auto end_field = [&]() {
    fields.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_record = [&]() {
    end_field();
    records.push_back(std::move(fields));
    fields.clear();
    any_content = false;
  };

  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        if (field_started && !field.empty()) {
          return QuoteInFieldError();
        }
        in_quotes = true;
        field_started = true;
        any_content = true;
        break;
      case '\r':
        // Swallow \r only when part of \r\n; otherwise keep it literal.
        if (i + 1 < text.size() && text[i + 1] == '\n') {
          break;
        }
        field.push_back(c);
        field_started = true;
        any_content = true;
        break;
      case '\n':
        end_record();
        break;
      default:
        if (c == sep) {
          end_field();
          any_content = true;
        } else {
          field.push_back(c);
          field_started = true;
          any_content = true;
        }
        break;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("CSV: unterminated quoted field");
  }
  // Emit the final record unless the document ended exactly at a record
  // boundary with no pending content.
  if (any_content || field_started || !fields.empty()) {
    end_record();
  }
  return records;
}

}  // namespace

Status SplitCsvLine(std::string_view line, char sep,
                    std::vector<std::string_view>* fields,
                    std::string* scratch) {
  fields->clear();
  scratch->clear();
  // Unescaped text never outgrows the line, so this reserve keeps every
  // view into `scratch` valid for the whole line.
  scratch->reserve(line.size());
  size_t pos = 0;
  for (;;) {
    std::string_view field;
    if (pos < line.size() && line[pos] == '"') {
      // Quoted: "" is an escaped quote; the closing quote is a quote not
      // followed by another. Text after it (up to the separator) belongs
      // to the same field.
      const size_t content = pos + 1;
      const size_t out_begin = scratch->size();
      bool copied = false;
      size_t close = content;
      for (size_t from = content;;) {
        close = line.find('"', from);
        if (close == std::string_view::npos) {
          return Status::InvalidArgument("CSV: unterminated quoted field");
        }
        if (close + 1 < line.size() && line[close + 1] == '"') {
          scratch->append(line.data() + from, close + 1 - from);
          copied = true;
          from = close + 2;
          continue;
        }
        if (copied) {
          scratch->append(line.data() + from, close - from);
        }
        break;
      }
      const size_t tail = close + 1;
      pos = tail;
      HELIX_RETURN_IF_ERROR(ScanUnquoted(line, sep, &pos));
      if (pos > tail) {
        if (!copied) {
          scratch->append(line.data() + content, close - content);
          copied = true;
        }
        scratch->append(line.data() + tail, pos - tail);
      }
      field = copied ? std::string_view(scratch->data() + out_begin,
                                        scratch->size() - out_begin)
                     : line.substr(content, close - content);
    } else {
      const size_t begin = pos;
      HELIX_RETURN_IF_ERROR(ScanUnquoted(line, sep, &pos));
      field = line.substr(begin, pos - begin);
    }
    fields->push_back(field);
    if (pos == line.size()) {
      return Status::OK();
    }
    ++pos;  // the separator
  }
}

Result<std::vector<std::string>> ParseCsvLine(std::string_view line,
                                              char sep) {
  std::vector<std::string_view> views;
  std::string scratch;
  HELIX_RETURN_IF_ERROR(SplitCsvLine(line, sep, &views, &scratch));
  return std::vector<std::string>(views.begin(), views.end());
}

Result<std::vector<std::vector<std::string>>> ParseCsv(std::string_view text,
                                                       char sep) {
  return ParseImpl(text, sep);
}

std::string FormatCsvLine(const std::vector<std::string>& fields, char sep) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) {
      out.push_back(sep);
    }
    const std::string& f = fields[i];
    bool needs_quotes = false;
    for (char c : f) {
      if (c == sep || c == '"' || c == '\n' || c == '\r') {
        needs_quotes = true;
        break;
      }
    }
    if (!needs_quotes) {
      out += f;
      continue;
    }
    out.push_back('"');
    for (char c : f) {
      if (c == '"') {
        out += "\"\"";
      } else {
        out.push_back(c);
      }
    }
    out.push_back('"');
  }
  return out;
}

}  // namespace helix
