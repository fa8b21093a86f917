#include "snap/snapshot.h"

#include <atomic>
#include <cstdio>
#include <fstream>

namespace tytan::snap {

namespace {

constexpr std::size_t kTagLen = 4;

}  // namespace

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes, std::uint64_t hash) {
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x0000'0100'0000'01b3ull;
  }
  return hash;
}

std::uint64_t Snapshot::next_id() {
  static std::atomic<std::uint64_t> last{0};
  return ++last;
}

void Snapshot::add(std::string_view tag, ByteVec bytes) {
  TYTAN_CHECK(tag.size() == kTagLen, "section tags are exactly 4 characters");
  sections_.push_back({std::string(tag), std::move(bytes)});
  id_ = next_id();
}

const ByteVec* Snapshot::find(std::string_view tag) const {
  for (const Section& section : sections_) {
    if (section.tag == tag) {
      return &section.bytes;
    }
  }
  return nullptr;
}

ByteVec Snapshot::serialize() const {
  ByteVec out;
  append_le32(out, kMagic);
  append_le32(out, kSchemaVersion);
  append_le32(out, static_cast<std::uint32_t>(sections_.size()));
  for (const Section& section : sections_) {
    out.insert(out.end(), section.tag.begin(), section.tag.end());
    append_le64(out, section.bytes.size());
    out.insert(out.end(), section.bytes.begin(), section.bytes.end());
  }
  append_le64(out, fnv1a64(out));
  return out;
}

Result<Snapshot> Snapshot::parse(std::span<const std::uint8_t> bytes) {
  constexpr std::size_t kHeader = 12;
  constexpr std::size_t kTrailer = 8;
  if (bytes.size() < kHeader + kTrailer) {
    return make_error(Err::kCorrupt, "snapshot truncated (no header)");
  }
  if (load_le32(bytes.data()) != kMagic) {
    return make_error(Err::kCorrupt, "bad snapshot magic (not a TYSN file)");
  }
  const std::uint32_t version = load_le32(bytes.data() + 4);
  if (version != kSchemaVersion) {
    return make_error(Err::kInvalidArgument,
                      "unsupported snapshot schema version " + std::to_string(version) +
                          " (this build reads version " +
                          std::to_string(kSchemaVersion) + ")");
  }
  const std::uint64_t stored_sum = load_le64(bytes.data() + bytes.size() - kTrailer);
  const auto body = bytes.subspan(0, bytes.size() - kTrailer);
  if (fnv1a64(body) != stored_sum) {
    return make_error(Err::kCorrupt, "snapshot checksum mismatch (corrupt file)");
  }
  const std::uint32_t count = load_le32(bytes.data() + 8);
  Snapshot snapshot;
  std::size_t pos = kHeader;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (body.size() - pos < kTagLen + 8) {
      return make_error(Err::kCorrupt,
                        "snapshot section " + std::to_string(i) + " truncated");
    }
    std::string tag(reinterpret_cast<const char*>(body.data() + pos), kTagLen);
    const std::uint64_t len = load_le64(body.data() + pos + kTagLen);
    pos += kTagLen + 8;
    if (len > body.size() - pos) {
      return make_error(Err::kCorrupt, "snapshot section '" + tag +
                                           "' overruns the file");
    }
    snapshot.sections_.push_back(
        {std::move(tag), ByteVec(body.begin() + static_cast<std::ptrdiff_t>(pos),
                                 body.begin() + static_cast<std::ptrdiff_t>(pos + len))});
    pos += len;
  }
  if (pos != body.size()) {
    return make_error(Err::kCorrupt, "snapshot has trailing bytes after sections");
  }
  return snapshot;
}

Status Snapshot::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return make_error(Err::kUnavailable, "cannot write '" + path + "'");
  }
  const ByteVec bytes = serialize();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    return make_error(Err::kUnavailable, "short write to '" + path + "'");
  }
  return Status::ok();
}

Result<Snapshot> Snapshot::read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return make_error(Err::kNotFound, "cannot open '" + path + "'");
  }
  const ByteVec bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  return parse(bytes);
}

void Io::status(Status& s) {
  auto code = static_cast<std::int32_t>(s.code());
  std::string message = s.message();
  i32(code);
  str(message);
  if (loading()) {
    const auto err = static_cast<Err>(code);
    s = err == Err::kOk ? Status::ok() : make_error(err, std::move(message));
  }
}

Status Io::nested(std::string_view what, const std::function<Status(Io&)>& body) {
  if (!loading()) {
    Writer payload;
    Io inner(payload);
    const Status s = body(inner);
    writer_->blob(payload.buffer());
    return s;
  }
  Reader payload(reader_->blob_view());
  Io inner(payload);
  if (Status s = body(inner); !s.is_ok()) {
    return s;
  }
  if (!payload.ok() || payload.remaining() != 0) {
    return make_error(Err::kCorrupt,
                      "snapshot payload of " + std::string(what) + " is malformed");
  }
  return Status::ok();
}

Status SaveVisitor::section(std::string_view tag, const Walk& state) {
  Writer writer;
  Io io(writer);
  if (Status s = state(io); !s.is_ok()) {
    return s;
  }
  snapshot_.add(tag, writer.take());
  return Status::ok();
}

Status RestoreVisitor::section(std::string_view tag, const Walk& state) {
  const ByteVec* payload = snapshot_.find(tag);
  if (payload == nullptr) {
    return make_error(Err::kCorrupt,
                      "snapshot missing section '" + std::string(tag) + "'");
  }
  Reader reader(*payload, snapshot_.id());
  Io io(reader);
  if (Status s = state(io); !s.is_ok()) {
    return s;
  }
  return reader.finish(tag);
}

Status ListVisitor::section(std::string_view tag, const Walk& state) {
  (void)state;
  tags_.emplace_back(tag);
  return Status::ok();
}

}  // namespace tytan::snap
