#include "storage/disk_backend.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <fstream>

#include "common/bytes.h"
#include "common/file_util.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/strings.h"

namespace helix {
namespace storage {

namespace {

constexpr char kSegmentPrefix[] = "seg-";
constexpr char kSegmentSuffix[] = ".log";

constexpr uint8_t kRecordPut = 1;
constexpr uint8_t kRecordTombstone = 2;

// Framing per record: [u32 body_len][body][u64 fnv64(body)].
constexpr int64_t kFrameOverhead = 4 + 8;

// Starts a frame in an empty writer: the length prefix, reserving room
// for the whole record so the body never reallocates.
ByteWriter StartFrame(size_t body_len) {
  ByteWriter w;
  w.Reserve(4 + body_len + 8);
  w.PutU32(static_cast<uint32_t>(body_len));
  return w;
}

// Appends the checksum of the body written after StartFrame.
std::string FinishFrame(ByteWriter* w) {
  const size_t body_len = w->size() - 4;
  w->PutU64(FnvHash64(w->data().data() + 4, body_len));
  return w->TakeData();
}

// The framed PUT record, built in one exact-size buffer: the payload
// dominates, so it is copied exactly once. Needs no backend state, so
// Write builds it before taking the lock.
std::string BuildPutRecord(const StoreEntry& meta, std::string_view payload) {
  const size_t body_len = 1 + 8 + (8 + meta.node_name.size()) + 6 * 8 +
                          (8 + payload.size());
  ByteWriter w = StartFrame(body_len);
  w.PutU8(kRecordPut);
  w.PutU64(meta.signature);
  w.PutString(meta.node_name);
  w.PutI64(meta.size_bytes);
  w.PutI64(meta.write_micros);
  w.PutI64(meta.load_micros);
  w.PutI64(meta.compute_micros);
  w.PutI64(meta.iteration);
  w.PutU64(meta.fingerprint);
  w.PutString(payload);
  assert(w.size() == 4 + body_len);
  return FinishFrame(&w);
}

std::string BuildTombstoneRecord(uint64_t signature) {
  ByteWriter w = StartFrame(1 + 8);
  w.PutU8(kRecordTombstone);
  w.PutU64(signature);
  return FinishFrame(&w);
}

struct ParsedRecord {
  uint8_t type = 0;
  StoreEntry meta;
  std::string payload;
};

Result<ParsedRecord> ParseBody(std::string_view body) {
  ByteReader r(body);
  ParsedRecord rec;
  HELIX_ASSIGN_OR_RETURN(rec.type, r.GetU8());
  HELIX_ASSIGN_OR_RETURN(rec.meta.signature, r.GetU64());
  if (rec.type == kRecordTombstone) {
    return rec;
  }
  if (rec.type != kRecordPut) {
    return Status::Corruption("unknown segment record type");
  }
  HELIX_ASSIGN_OR_RETURN(rec.meta.node_name, r.GetString());
  HELIX_ASSIGN_OR_RETURN(rec.meta.size_bytes, r.GetI64());
  HELIX_ASSIGN_OR_RETURN(rec.meta.write_micros, r.GetI64());
  HELIX_ASSIGN_OR_RETURN(rec.meta.load_micros, r.GetI64());
  HELIX_ASSIGN_OR_RETURN(rec.meta.compute_micros, r.GetI64());
  HELIX_ASSIGN_OR_RETURN(rec.meta.iteration, r.GetI64());
  HELIX_ASSIGN_OR_RETURN(rec.meta.fingerprint, r.GetU64());
  HELIX_ASSIGN_OR_RETURN(rec.payload, r.GetString());
  return rec;
}

}  // namespace

Result<std::unique_ptr<DiskBackend>> DiskBackend::Open(
    const std::string& dir, const DiskBackendOptions& options) {
  if (options.segment_max_bytes <= 0) {
    return Status::InvalidArgument("segment_max_bytes must be positive");
  }
  HELIX_RETURN_IF_ERROR(MakeDirs(dir));
  return std::unique_ptr<DiskBackend>(new DiskBackend(dir, options));
}

std::string DiskBackend::SegmentPath(uint64_t id) const {
  return JoinPath(dir_, StrFormat("%s%06llu%s", kSegmentPrefix,
                                  (unsigned long long)id, kSegmentSuffix));
}

Result<std::vector<StoreEntry>> DiskBackend::Recover() {
  std::lock_guard<std::mutex> lock(mu_);
  HELIX_ASSIGN_OR_RETURN(std::vector<std::string> files, ListFiles(dir_));
  std::vector<uint64_t> ids;
  for (const std::string& name : files) {
    size_t prefix_len = sizeof(kSegmentPrefix) - 1;
    size_t suffix_len = sizeof(kSegmentSuffix) - 1;
    if (name.size() <= prefix_len + suffix_len ||
        name.compare(0, prefix_len, kSegmentPrefix) != 0 ||
        name.compare(name.size() - suffix_len, suffix_len, kSegmentSuffix) !=
            0) {
      continue;  // foreign file; ignore
    }
    std::string digits =
        name.substr(prefix_len, name.size() - prefix_len - suffix_len);
    char* end = nullptr;
    unsigned long long id = std::strtoull(digits.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || id == 0) {
      continue;
    }
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  bool last_clean = true;
  for (uint64_t id : ids) {
    HELIX_RETURN_IF_ERROR(ReplaySegment(id, &last_clean));
  }
  // A torn-tailed final segment is sealed, never appended to again: a
  // record written after the tear would be unreachable on the next replay
  // (which stops at the tear), silently losing an acknowledged write.
  // Leaving active_segment_ at 0 forces the next Write onto a fresh file.
  active_segment_ = (ids.empty() || !last_clean) ? 0 : ids.back();
  std::vector<StoreEntry> out;
  out.reserve(meta_.size());
  for (const auto& [sig, entry] : meta_) {
    (void)sig;
    out.push_back(entry);
  }
  // Deterministic order for the store's shard population (and tests).
  std::sort(out.begin(), out.end(),
            [](const StoreEntry& a, const StoreEntry& b) {
              return a.signature < b.signature;
            });
  return out;
}

Status DiskBackend::ReplaySegment(uint64_t id, bool* clean_out) {
  HELIX_ASSIGN_OR_RETURN(std::string data,
                         ReadFileToString(SegmentPath(id)));
  Segment& seg = segments_[id];
  seg.file_bytes = static_cast<int64_t>(data.size());
  seg.live_bytes = 0;
  *clean_out = true;
  size_t pos = 0;
  while (pos + 4 <= data.size()) {
    ByteReader len_reader(std::string_view(data.data() + pos, 4));
    uint32_t body_len = len_reader.GetU32().value();
    size_t frame = 4 + static_cast<size_t>(body_len) + 8;
    if (pos + frame > data.size()) {
      // Torn tail from a crash mid-append: keep everything before it.
      HELIX_LOG(Warning) << "segment " << id << " ends in a torn record at "
                         << pos << "; dropping the tail";
      *clean_out = false;
      break;
    }
    std::string_view body(data.data() + pos + 4, body_len);
    ByteReader sum_reader(
        std::string_view(data.data() + pos + 4 + body_len, 8));
    if (sum_reader.GetU64().value() != FnvHash64(body.data(), body.size())) {
      HELIX_LOG(Warning) << "segment " << id << " record at " << pos
                         << " fails its checksum; dropping the tail";
      *clean_out = false;
      break;
    }
    auto rec = ParseBody(body);
    if (!rec.ok()) {
      HELIX_LOG(Warning) << "segment " << id << " record at " << pos
                         << " unparseable; dropping the tail: "
                         << rec.status().ToString();
      *clean_out = false;
      break;
    }
    uint64_t sig = rec.value().meta.signature;
    // Last record wins: retire whatever this signature pointed at before.
    auto prev = index_.find(sig);
    if (prev != index_.end()) {
      segments_[prev->second.segment].live_bytes -= prev->second.record_bytes;
      index_.erase(prev);
      meta_.erase(sig);
    }
    if (rec.value().type == kRecordPut) {
      Location loc;
      loc.segment = id;
      loc.offset = static_cast<int64_t>(pos) + 4;
      loc.length = body_len;
      loc.record_bytes = static_cast<int64_t>(frame);
      index_[sig] = loc;
      meta_[sig] = rec.value().meta;
      seg.live_bytes += loc.record_bytes;
    }
    pos += frame;
  }
  if (*clean_out && pos != data.size()) {
    // Trailing sub-header bytes (fewer than a frame header): also a tear.
    HELIX_LOG(Warning) << "segment " << id << " has " << (data.size() - pos)
                       << " trailing bytes; sealing";
    *clean_out = false;
  }
  return Status::OK();
}

Status DiskBackend::AppendRecordLocked(uint64_t segment_id,
                                       const std::string& record) {
  std::ofstream out(SegmentPath(segment_id),
                    std::ios::binary | std::ios::app);
  if (!out) {
    return Status::IOError("cannot open segment for append: " +
                           SegmentPath(segment_id));
  }
  out.write(record.data(), static_cast<std::streamsize>(record.size()));
  out.flush();
  segments_[segment_id].file_bytes += static_cast<int64_t>(record.size());
  if (!out) {
    // The file may now end in a torn record; never append after it again
    // (replay would stop at the tear and lose later good records).
    active_segment_ = 0;
    return Status::IOError("segment append failed: " +
                           SegmentPath(segment_id));
  }
  return Status::OK();
}

Status DiskBackend::RollIfNeededLocked() {
  if (active_segment_ != 0 &&
      segments_[active_segment_].file_bytes < options_.segment_max_bytes) {
    return Status::OK();
  }
  uint64_t next = segments_.empty() ? 1 : segments_.rbegin()->first + 1;
  segments_[next];  // creates the accounting slot; file appears on append
  active_segment_ = next;
  return Status::OK();
}

Status DiskBackend::DropSegmentIfDeadLocked(uint64_t id) {
  auto it = segments_.find(id);
  if (it == segments_.end() || it->second.live_bytes > 0 ||
      id == active_segment_) {
    return Status::OK();
  }
  HELIX_RETURN_IF_ERROR(RemoveFileIfExists(SegmentPath(id)));
  segments_.erase(it);
  return Status::OK();
}

Status DiskBackend::Write(const StoreEntry& meta, std::string_view payload) {
  // Framing and checksumming touch no backend state: do them before
  // taking mu_, so concurrent Writes overlap everything but the append.
  const std::string record = BuildPutRecord(meta, payload);
  std::lock_guard<std::mutex> lock(mu_);
  HELIX_RETURN_IF_ERROR(RollIfNeededLocked());
  uint64_t target = active_segment_;
  int64_t offset = segments_[target].file_bytes + 4;
  HELIX_RETURN_IF_ERROR(AppendRecordLocked(target, record));

  auto prev = index_.find(meta.signature);
  if (prev != index_.end()) {
    uint64_t prev_segment = prev->second.segment;
    segments_[prev_segment].live_bytes -= prev->second.record_bytes;
    index_.erase(prev);
    HELIX_RETURN_IF_ERROR(DropSegmentIfDeadLocked(prev_segment));
  }
  Location loc;
  loc.segment = target;
  loc.offset = offset;
  loc.record_bytes = static_cast<int64_t>(record.size());
  loc.length = loc.record_bytes - kFrameOverhead;
  index_[meta.signature] = loc;
  meta_[meta.signature] = meta;
  segments_[target].live_bytes += loc.record_bytes;
  return MaybeCompactLocked();
}

Result<std::shared_ptr<const std::string>> DiskBackend::Read(
    uint64_t signature) {
  // File I/O happens outside the mutex so loads of different entries
  // overlap. Segments are append-only, so a snapshotted location normally
  // stays valid — but a concurrent Compact (or an overwrite of this very
  // signature) can move or delete the record under us. On any read
  // failure, re-resolve the location and retry once if it moved; only a
  // failure at a *stable* location is real corruption.
  Location loc;
  for (int attempt = 0;; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = index_.find(signature);
      if (it == index_.end()) {
        return Status::NotFound("no payload in disk backend");
      }
      if (attempt > 0 && it->second.segment == loc.segment &&
          it->second.offset == loc.offset) {
        return Status::Corruption("segment record unreadable or corrupt: " +
                                  SegmentPath(loc.segment));
      }
      loc = it->second;
    }
    auto payload = ReadAt(signature, loc);
    if (payload.ok()) {
      return std::make_shared<const std::string>(std::move(payload).value());
    }
  }
}

Result<std::string> DiskBackend::ReadAt(uint64_t signature,
                                        const Location& loc) const {
  std::ifstream in(SegmentPath(loc.segment), std::ios::binary);
  if (!in) {
    return Status::Corruption("segment file unreadable: " +
                              SegmentPath(loc.segment));
  }
  std::string buf(static_cast<size_t>(loc.length) + 8, '\0');
  in.seekg(loc.offset);
  in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!in || in.gcount() != static_cast<std::streamsize>(buf.size())) {
    return Status::Corruption("segment record truncated on read");
  }
  std::string_view body(buf.data(), static_cast<size_t>(loc.length));
  ByteReader sum_reader(std::string_view(buf.data() + loc.length, 8));
  if (sum_reader.GetU64().value() != FnvHash64(body.data(), body.size())) {
    return Status::Corruption("segment record checksum mismatch");
  }
  HELIX_ASSIGN_OR_RETURN(ParsedRecord rec, ParseBody(body));
  if (rec.type != kRecordPut || rec.meta.signature != signature) {
    return Status::Corruption("segment record does not match signature");
  }
  return std::move(rec.payload);
}

Status DiskBackend::Delete(uint64_t signature) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(signature);
  if (it == index_.end()) {
    return Status::OK();  // absent on disk too (index mirrors replay state)
  }
  uint64_t owner = it->second.segment;
  segments_[owner].live_bytes -= it->second.record_bytes;
  index_.erase(it);
  meta_.erase(signature);
  // Durable deletion: a tombstone in the log outlives a crash. Appended
  // after the index update so even on append failure the in-memory state
  // is consistent (the entry can at worst resurrect on restart).
  HELIX_RETURN_IF_ERROR(RollIfNeededLocked());
  Status appended =
      AppendRecordLocked(active_segment_, BuildTombstoneRecord(signature));
  HELIX_RETURN_IF_ERROR(DropSegmentIfDeadLocked(owner));
  HELIX_RETURN_IF_ERROR(MaybeCompactLocked());
  return appended;
}

Status DiskBackend::DeleteAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, seg] : segments_) {
    (void)seg;
    HELIX_RETURN_IF_ERROR(RemoveFileIfExists(SegmentPath(id)));
  }
  segments_.clear();
  index_.clear();
  meta_.clear();
  active_segment_ = 0;
  return Status::OK();
}

Status DiskBackend::Compact() {
  std::lock_guard<std::mutex> lock(mu_);
  return CompactLocked();
}

Status DiskBackend::MaybeCompactLocked() {
  int64_t dead = DeadBytesLocked();
  int64_t total = 0;
  for (const auto& [id, seg] : segments_) {
    (void)id;
    total += seg.file_bytes;
  }
  if (dead < options_.compact_min_dead_bytes || dead * 2 < total) {
    return Status::OK();
  }
  return CompactLocked();
}

Status DiskBackend::CompactLocked() {
  // Stream live records into fresh segments one OLD segment at a time —
  // each old file is read exactly once and only one is in memory at any
  // moment — then drop every old file. A record that fails verification
  // here is dropped (same degrade-to-recompute contract as Read).
  std::map<uint64_t, std::vector<std::pair<int64_t, uint64_t>>> by_segment;
  for (const auto& [sig, loc] : index_) {
    by_segment[loc.segment].emplace_back(loc.offset, sig);
  }
  std::vector<uint64_t> old_ids;
  for (const auto& [id, seg] : segments_) {
    (void)seg;
    old_ids.push_back(id);
  }
  std::unordered_map<uint64_t, Location> old_index = std::move(index_);

  uint64_t next = segments_.empty() ? 1 : segments_.rbegin()->first + 1;
  index_.clear();
  segments_[next];
  active_segment_ = next;
  for (auto& [old_id, records] : by_segment) {
    auto file = ReadFileToString(SegmentPath(old_id));
    if (!file.ok()) {
      HELIX_LOG(Warning) << "compaction drops unreadable segment " << old_id
                         << ": " << file.status().ToString();
      for (const auto& [offset, sig] : records) {
        (void)offset;
        meta_.erase(sig);
      }
      continue;
    }
    std::sort(records.begin(), records.end());  // sequential old-file order
    for (const auto& [offset, sig] : records) {
      const Location& loc = old_index[sig];
      if (static_cast<int64_t>(file.value().size()) < offset + loc.length) {
        HELIX_LOG(Warning) << "compaction drops truncated record for "
                           << HashToHex(sig);
        meta_.erase(sig);
        continue;
      }
      auto rec = ParseBody(std::string_view(file.value().data() + offset,
                                            static_cast<size_t>(loc.length)));
      if (!rec.ok() || rec.value().type != kRecordPut) {
        HELIX_LOG(Warning) << "compaction drops corrupt record for "
                           << HashToHex(sig);
        meta_.erase(sig);
        continue;
      }
      if (segments_[active_segment_].file_bytes >=
          options_.segment_max_bytes) {
        ++next;
        segments_[next];
        active_segment_ = next;
      }
      std::string record =
          BuildPutRecord(rec.value().meta, rec.value().payload);
      Location new_loc;
      new_loc.segment = active_segment_;
      new_loc.offset = segments_[active_segment_].file_bytes + 4;
      new_loc.record_bytes = static_cast<int64_t>(record.size());
      new_loc.length = new_loc.record_bytes - kFrameOverhead;
      HELIX_RETURN_IF_ERROR(AppendRecordLocked(active_segment_, record));
      index_[sig] = new_loc;
      segments_[active_segment_].live_bytes += new_loc.record_bytes;
    }
  }
  for (uint64_t id : old_ids) {
    HELIX_RETURN_IF_ERROR(RemoveFileIfExists(SegmentPath(id)));
    segments_.erase(id);
  }
  return Status::OK();
}

int64_t DiskBackend::DeadBytesLocked() const {
  int64_t dead = 0;
  for (const auto& [id, seg] : segments_) {
    (void)id;
    dead += seg.file_bytes - seg.live_bytes;
  }
  return dead;
}

size_t DiskBackend::NumIndexed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

size_t DiskBackend::NumSegments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

int64_t DiskBackend::DeadBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return DeadBytesLocked();
}

}  // namespace storage
}  // namespace helix
