// Binary encoding primitives for serializing intermediate results.
//
// All multi-byte integers are little-endian fixed-width; strings are
// length-prefixed. Decoding is bounds-checked and returns Corruption on
// truncated or malformed input — the materialization store must degrade to
// recomputation on a bad file, never crash.
#ifndef HELIX_COMMON_BYTES_H_
#define HELIX_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace helix {

/// Append-only binary buffer writer.
class ByteWriter {
 public:
  ByteWriter() = default;

  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) {
    char tmp[4];
    for (int i = 0; i < 4; ++i) {
      tmp[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
    buf_.append(tmp, 4);
  }

  void PutU64(uint64_t v) {
    char tmp[8];
    for (int i = 0; i < 8; ++i) {
      tmp[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
    buf_.append(tmp, 8);
  }

  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  /// Length-prefixed string.
  void PutString(std::string_view s) {
    PutU64(s.size());
    buf_.append(s.data(), s.size());
  }

  /// Raw bytes, no length prefix. A zero-length write is a no-op (and may
  /// pass a null pointer, e.g. an empty vector's data()).
  void PutRaw(const void* data, size_t len) {
    if (len == 0) {
      return;
    }
    buf_.append(static_cast<const char*>(data), len);
  }

  /// Packed little-endian u64 array (columnar bodies). On little-endian
  /// hosts this is one memcpy; the portable fallback loops.
  void PutU64Array(const uint64_t* v, size_t n) {
    if (n == 0) {
      return;  // empty vectors may hand over a null data() pointer
    }
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    PutRaw(v, n * sizeof(uint64_t));
#else
    for (size_t i = 0; i < n; ++i) {
      PutU64(v[i]);
    }
#endif
  }

  /// Packed little-endian u32 array (dictionary code bodies). On
  /// little-endian hosts this is one memcpy; the portable fallback loops.
  void PutU32Array(const uint32_t* v, size_t n) {
    if (n == 0) {
      return;  // empty vectors may hand over a null data() pointer
    }
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    PutRaw(v, n * sizeof(uint32_t));
#else
    for (size_t i = 0; i < n; ++i) {
      PutU32(v[i]);
    }
#endif
  }

  /// Grows the buffer's capacity by `additional` bytes up front, so a
  /// serializer with a good size estimate appends without reallocating.
  void Reserve(size_t additional) { buf_.reserve(buf_.size() + additional); }

  const std::string& data() const { return buf_; }
  std::string&& TakeData() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Little-endian u64 at `p` (8 readable bytes; no bounds check). The
/// shift loop compiles to one load on little-endian hosts.
inline uint64_t LoadU64LE(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return v;
}

/// Bounds-checked reader over a byte buffer.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8() {
    if (pos_ + 1 > data_.size()) {
      return Truncated("u8");
    }
    return static_cast<uint8_t>(data_[pos_++]);
  }

  Result<uint32_t> GetU32() {
    if (pos_ + 4 > data_.size()) {
      return Truncated("u32");
    }
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) |
          static_cast<uint8_t>(data_[pos_ + static_cast<size_t>(i)]);
    }
    pos_ += 4;
    return v;
  }

  Result<uint64_t> GetU64() {
    if (pos_ + 8 > data_.size()) {
      return Truncated("u64");
    }
    uint64_t v = LoadU64LE(data_.data() + pos_);
    pos_ += 8;
    return v;
  }

  Result<int64_t> GetI64() {
    HELIX_ASSIGN_OR_RETURN(uint64_t v, GetU64());
    return static_cast<int64_t>(v);
  }

  Result<double> GetDouble() {
    HELIX_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Result<bool> GetBool() {
    HELIX_ASSIGN_OR_RETURN(uint8_t v, GetU8());
    if (v > 1) {
      return Status::Corruption("bool byte out of range");
    }
    return v == 1;
  }

  Result<std::string> GetString() {
    HELIX_ASSIGN_OR_RETURN(uint64_t len, GetU64());
    if (len > data_.size() - pos_) {
      return Truncated("string body");
    }
    std::string out(data_.substr(pos_, len));
    pos_ += len;
    return out;
  }

  /// Reads a u64 element count and bounds it by the bytes left: each
  /// element takes at least `min_element_bytes` (> 0) encoded bytes, so a
  /// count above remaining() / min_element_bytes cannot be honest. A
  /// decoder may then reserve the count without trusting the input — a
  /// corrupt count is Corruption, never a huge allocation.
  Result<size_t> GetCount(size_t min_element_bytes, const char* what) {
    HELIX_ASSIGN_OR_RETURN(uint64_t n, GetU64());
    if (n > remaining() / min_element_bytes) {
      return Status::Corruption(std::string(what) +
                                " count exceeds the remaining bytes");
    }
    return static_cast<size_t>(n);
  }

  /// Borrowed view of the next `len` raw bytes (no copy); the view aliases
  /// the reader's underlying buffer, which must outlive it.
  Result<std::string_view> GetRawView(size_t len) {
    if (len > data_.size() - pos_) {
      return Truncated("raw bytes");
    }
    std::string_view out = data_.substr(pos_, len);
    pos_ += len;
    return out;
  }

  /// Packed little-endian u64 array written by PutU64Array.
  Status GetU64Array(uint64_t* out, size_t n) {
    if (n == 0) {
      return Status::OK();  // `out` may be an empty vector's null data()
    }
    if (n * sizeof(uint64_t) > data_.size() - pos_) {
      return Status::Corruption("truncated buffer reading u64 array");
    }
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    std::memcpy(out, data_.data() + pos_, n * sizeof(uint64_t));
    pos_ += n * sizeof(uint64_t);
#else
    for (size_t i = 0; i < n; ++i) {
      Result<uint64_t> v = GetU64();
      if (!v.ok()) {
        return v.status();
      }
      out[i] = v.value();
    }
#endif
    return Status::OK();
  }

  /// Packed little-endian u32 array written by PutU32Array.
  Status GetU32Array(uint32_t* out, size_t n) {
    if (n == 0) {
      return Status::OK();  // `out` may be an empty vector's null data()
    }
    if (n * sizeof(uint32_t) > data_.size() - pos_) {
      return Status::Corruption("truncated buffer reading u32 array");
    }
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    std::memcpy(out, data_.data() + pos_, n * sizeof(uint32_t));
    pos_ += n * sizeof(uint32_t);
#else
    for (size_t i = 0; i < n; ++i) {
      Result<uint32_t> v = GetU32();
      if (!v.ok()) {
        return v.status();
      }
      out[i] = v.value();
    }
#endif
    return Status::OK();
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t pos() const { return pos_; }

 private:
  Status Truncated(const char* what) const {
    return Status::Corruption(std::string("truncated buffer reading ") +
                              what);
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace helix

#endif  // HELIX_COMMON_BYTES_H_
