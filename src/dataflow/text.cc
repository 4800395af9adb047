#include "dataflow/text.h"

#include "common/hash.h"
#include "common/strings.h"

namespace helix {
namespace dataflow {

int64_t TextData::SizeBytes() const {
  int64_t bytes = 64;
  for (const Document& d : docs_) {
    bytes += 64 + static_cast<int64_t>(d.id.size() + d.text.size());
    bytes += static_cast<int64_t>(d.spans.size()) * 24;
    for (const Span& s : d.spans) {
      bytes += static_cast<int64_t>(s.label.size());
    }
  }
  return bytes;
}

uint64_t TextData::Fingerprint() const {
  Hasher h;
  h.AddU64(docs_.size());
  for (const Document& d : docs_) {
    h.Add(d.id).Add(d.text).AddU64(d.spans.size());
    for (const Span& s : d.spans) {
      h.AddI64(s.begin).AddI64(s.end).Add(s.label);
    }
  }
  return h.Digest();
}

void TextData::Serialize(ByteWriter* w) const {
  w->PutU64(docs_.size());
  for (const Document& d : docs_) {
    w->PutString(d.id);
    w->PutString(d.text);
    w->PutU64(d.spans.size());
    for (const Span& s : d.spans) {
      w->PutI64(s.begin);
      w->PutI64(s.end);
      w->PutString(s.label);
    }
  }
}

std::string TextData::DebugString() const {
  int64_t total_spans = 0;
  for (const Document& d : docs_) {
    total_spans += static_cast<int64_t>(d.spans.size());
  }
  return StrFormat("text(%lld docs, %lld spans)",
                   static_cast<long long>(num_docs()),
                   static_cast<long long>(total_spans));
}

Result<std::shared_ptr<TextData>> TextData::Deserialize(ByteReader* r) {
  // Smallest document: two empty length-prefixed strings (id, text) and
  // a span count; smallest span: begin, end and an empty label.
  constexpr size_t kMinDocBytes = 8 + 8 + 8;
  constexpr size_t kMinSpanBytes = 8 + 8 + 8;
  HELIX_ASSIGN_OR_RETURN(size_t n, r->GetCount(kMinDocBytes, "doc"));
  auto text = std::make_shared<TextData>();
  for (size_t i = 0; i < n; ++i) {
    Document d;
    HELIX_ASSIGN_OR_RETURN(d.id, r->GetString());
    HELIX_ASSIGN_OR_RETURN(d.text, r->GetString());
    HELIX_ASSIGN_OR_RETURN(size_t num_spans,
                           r->GetCount(kMinSpanBytes, "span"));
    d.spans.reserve(num_spans);
    for (size_t j = 0; j < num_spans; ++j) {
      Span s;
      HELIX_ASSIGN_OR_RETURN(int64_t begin, r->GetI64());
      HELIX_ASSIGN_OR_RETURN(int64_t end, r->GetI64());
      HELIX_ASSIGN_OR_RETURN(s.label, r->GetString());
      s.begin = static_cast<int32_t>(begin);
      s.end = static_cast<int32_t>(end);
      d.spans.push_back(std::move(s));
    }
    text->AddDoc(std::move(d));
  }
  return text;
}

}  // namespace dataflow
}  // namespace helix
