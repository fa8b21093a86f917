// Versioned machine snapshots (ROADMAP item 5; enabler for item 2).
//
// A Snapshot is a section-tagged container: a fixed header (magic + schema
// version), a list of sections — four-character tag plus an opaque
// little-endian payload — and a trailing FNV-1a checksum over the whole
// file.  Sections are produced and consumed by the state owners themselves
// (Machine, EaMpu, Scheduler, Kernel, ...), each through one two-way field
// walk, `Status state(snap::Io&)`; this module only provides the container,
// the primitive Writer/Reader serializers and the Io that drives a walk in
// either direction, so it depends on nothing but common/.
//
// Guarantees (docs/SNAPSHOT.md):
//   * restore(save(m)) is bit-identical: saving the restored platform yields
//     byte-identical snapshot content;
//   * a restored platform re-executes identically, including under an active
//     fault plan (the engine's RNG cursor travels with the snapshot);
//   * truncated, corrupt, or wrong-version files parse to a typed error with
//     a one-line message — never to a half-restored machine.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace tytan::snap {

/// "TYSN" little-endian.
inline constexpr std::uint32_t kMagic = 0x4e53'5954;
/// Bump on any wire-format change to an existing section; readers reject
/// versions they do not know (no silent best-effort decoding of state).
inline constexpr std::uint32_t kSchemaVersion = 1;

/// Little-endian primitive serializer.  All multi-byte values are LE, like
/// the simulated core itself.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { append_le32(buf_, v); }
  void u64(std::uint64_t v) { append_le64(buf_, v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  /// Length-prefixed byte blob.
  void blob(std::span<const std::uint8_t> bytes) {
    u32(static_cast<std::uint32_t>(bytes.size()));
    raw(bytes);
  }
  /// Raw bytes, no length prefix (fixed-size fields: keys, digests).
  void raw(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  [[nodiscard]] const ByteVec& buffer() const { return buf_; }
  [[nodiscard]] ByteVec take() { return std::move(buf_); }

 private:
  ByteVec buf_;
};

/// Bounds-checked little-endian reader with a sticky failure flag: any
/// under-run poisons the reader and subsequent reads return zero values.
/// Callers deserialize a whole section, then check finish() once.
class Reader {
 public:
  /// `origin` is the Snapshot::id of the snapshot the bytes belong to, if any.
  explicit Reader(std::span<const std::uint8_t> bytes, std::uint64_t origin = 0)
      : bytes_(bytes), origin_(origin) {}
  [[nodiscard]] std::uint64_t origin() const { return origin_; }

  std::uint8_t u8() {
    if (!take(1)) {
      return 0;
    }
    return bytes_[pos_++];
  }
  std::uint32_t u32() {
    if (!take(4)) {
      return 0;
    }
    const std::uint32_t v = load_le32(bytes_.data() + pos_);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) {
      return 0;
    }
    const std::uint64_t v = load_le64(bytes_.data() + pos_);
    pos_ += 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint32_t len = u32();
    if (!take(len)) {
      return {};
    }
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return s;
  }
  ByteVec blob() {
    const std::uint32_t len = u32();
    if (!take(len)) {
      return {};
    }
    ByteVec v(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
              bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return v;
  }
  /// Zero-copy variant of blob(): a view into the reader's backing bytes,
  /// valid only while the snapshot is alive.  Restoring a full memory image
  /// is on the fuzzing hot path (one restore per input), so the large
  /// sections must not bounce through an extra allocation.
  std::span<const std::uint8_t> blob_view() {
    const std::uint32_t len = u32();
    if (!take(len)) {
      return {};
    }
    const auto v = bytes_.subspan(pos_, len);
    pos_ += len;
    return v;
  }
  /// Fixed-size field into `out`; zero-fills on under-run.
  void raw(std::span<std::uint8_t> out) {
    if (!take(out.size())) {
      std::fill(out.begin(), out.end(), std::uint8_t{0});
      return;
    }
    std::copy_n(bytes_.data() + pos_, out.size(), out.data());
    pos_ += out.size();
  }

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  /// Poison the reader: a value read from the payload (a count) is
  /// inconsistent with the payload itself.
  void fail() { failed_ = true; }

  /// A section must consume exactly its payload: under-run and left-over
  /// bytes both mean the writer and reader disagree about the layout.
  [[nodiscard]] Status finish(std::string_view section) const {
    if (failed_) {
      return make_error(Err::kCorrupt,
                        "snapshot section '" + std::string(section) + "' truncated");
    }
    if (remaining() != 0) {
      return make_error(Err::kCorrupt, "snapshot section '" + std::string(section) +
                                           "' has trailing bytes");
    }
    return Status::ok();
  }

 private:
  bool take(std::size_t n) {
    if (failed_ || bytes_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> bytes_;
  std::uint64_t origin_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// One field walk, two directions.  A state owner lists its section layout
/// once, as `Status state(snap::Io& io)`, calling the primitives below on
/// its own fields: saving, they write each field to the Writer; loading,
/// they overwrite it from the Reader.  Work that only happens on restore
/// (cache drops, epoch bumps, cross-checks) sits under `if (io.loading())`.
/// A load keeps the Reader's sticky failure: under-runs yield zero values
/// and Reader::finish reports them once the section is walked.
class Io {
 public:
  explicit Io(Writer& writer) : writer_(&writer) {}
  explicit Io(Reader& reader) : reader_(&reader) {}

  [[nodiscard]] bool loading() const { return reader_ != nullptr; }
  /// False once a load under-ran or refused a count; always true saving.
  [[nodiscard]] bool ok() const { return reader_ == nullptr || reader_->ok(); }
  /// Loading: the id of the snapshot being restored (Reader::origin).
  [[nodiscard]] std::uint64_t origin() const { return loading() ? reader_->origin() : 0; }

  void u8(std::uint8_t& v) { loading() ? void(v = reader_->u8()) : writer_->u8(v); }
  void u32(std::uint32_t& v) { loading() ? void(v = reader_->u32()) : writer_->u32(v); }
  void u64(std::uint64_t& v) { loading() ? void(v = reader_->u64()) : writer_->u64(v); }
  void i32(std::int32_t& v) { loading() ? void(v = reader_->i32()) : writer_->i32(v); }
  void boolean(bool& v) { loading() ? void(v = reader_->boolean()) : writer_->boolean(v); }
  void str(std::string& s) { loading() ? void(s = reader_->str()) : writer_->str(s); }
  void blob(ByteVec& bytes) { loading() ? void(bytes = reader_->blob()) : writer_->blob(bytes); }
  void raw(std::span<std::uint8_t> bytes) {
    loading() ? reader_->raw(bytes) : writer_->raw(bytes);
  }
  /// A Status: i32 error code, then the message.
  void status(Status& s);
  /// std::size_t field, 64-bit on the wire.
  void usize(std::size_t& v) {
    std::uint64_t wide = v;
    u64(wide);
    v = static_cast<std::size_t>(wide);
  }
  /// Length-prefixed bytes by view: saving writes `bytes`; loading points
  /// `bytes` into the reader's backing payload (zero-copy, valid while the
  /// snapshot lives — the memory image is restored once per fuzz input).
  void blob_view(std::span<const std::uint8_t>& bytes) {
    loading() ? void(bytes = reader_->blob_view()) : writer_->blob(bytes);
  }

  /// An enum with an 8-bit wire form.
  template <typename E>
  void enum8(E& value) {
    auto wire = static_cast<std::uint8_t>(value);
    u8(wire);
    value = static_cast<E>(wire);
  }

  /// Presence flag, then the value's fields when present.  Loading a present
  /// value walks `fields` over a default-constructed one.
  template <typename T, typename Fields>
  void optional(std::optional<T>& value, Fields&& fields) {
    bool present = value.has_value();
    boolean(present);
    if (loading()) {
      value.reset();
      if (present) {
        value.emplace();
      }
    }
    if (present) {
      fields(*value);
    }
  }

  /// u32 count, then `item` walked over each element of a vector or deque.
  /// Loading refuses a count the payload cannot hold (every element takes at
  /// least one byte) and grows the sequence one element at a time, so a
  /// forged count never sizes an allocation.
  template <typename Seq, typename Item>
  void sequence(Seq& items, Item&& item) {
    const std::uint32_t n = count(items.size());
    if (!loading()) {
      for (auto& element : items) {
        item(element);
      }
      return;
    }
    items.clear();
    for (std::uint32_t i = 0; i < n && ok(); ++i) {
      item(items.emplace_back());
    }
  }

  /// sequence() for a std::map: u32 count, then `entry(key, value)` per
  /// entry in key order.
  template <typename Map, typename Entry>
  void entries(Map& map, Entry&& entry) {
    const std::uint32_t n = count(map.size());
    if (!loading()) {
      for (auto& [key, value] : map) {
        typename Map::key_type k = key;
        entry(k, value);
      }
      return;
    }
    map.clear();
    for (std::uint32_t i = 0; i < n && ok(); ++i) {
      typename Map::key_type key{};
      typename Map::mapped_type value{};
      entry(key, value);
      map.insert_or_assign(std::move(key), std::move(value));
    }
  }

  /// Length-prefixed payload walked by `body` through its own Io (one
  /// device's registers inside DEVS).  Loading fails with kCorrupt, naming
  /// `what`, when the body under-runs or leaves payload bytes unread.
  Status nested(std::string_view what, const std::function<Status(Io&)>& body);

 private:
  /// The element count of a sequence: written from `size`, or read and
  /// checked against the bytes left (a refused count poisons the reader and
  /// reads as zero).
  std::uint32_t count(std::size_t size) {
    std::uint32_t n = static_cast<std::uint32_t>(size);
    u32(n);
    if (loading() && n > reader_->remaining()) {
      reader_->fail();
      return 0;
    }
    return n;
  }

  Writer* writer_ = nullptr;
  Reader* reader_ = nullptr;
};

/// One tagged state section.  Tags are exactly four ASCII characters
/// ("MACH", "MEMR", ...); the catalogue lives in docs/SNAPSHOT.md.
struct Section {
  std::string tag;
  ByteVec bytes;
};

class Snapshot {
 public:
  void add(std::string_view tag, ByteVec bytes);
  /// Payload of the section with `tag`, or nullptr.
  [[nodiscard]] const ByteVec* find(std::string_view tag) const;
  [[nodiscard]] const std::vector<Section>& sections() const { return sections_; }

  /// Process-unique identity of this snapshot's bytes, never 0: every add()
  /// takes a new id and a copy keeps its original's, so equal ids mean equal
  /// bytes (a moved-from snapshot is empty and restores nothing).
  /// PhysicalMemory::restore keys its rewind on it.
  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// Full wire image: header, sections, FNV-1a trailer.
  [[nodiscard]] ByteVec serialize() const;
  /// Parse and validate a wire image.  kCorrupt / kInvalidArgument with a
  /// one-line message on bad magic, unsupported version, truncation, section
  /// overrun, or checksum mismatch.
  static Result<Snapshot> parse(std::span<const std::uint8_t> bytes);

  Status write_file(const std::string& path) const;
  static Result<Snapshot> read_file(const std::string& path);

 private:
  static std::uint64_t next_id();

  std::vector<Section> sections_;
  std::uint64_t id_ = next_id();
};

/// FNV-1a 64-bit offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnvBasis = 0xcbf2'9ce4'8422'2325ull;

/// FNV-1a 64-bit (the trailer checksum; also exported for tools that want a
/// cheap deterministic state digest).  Pass a previous result as `hash` to
/// continue hashing where it left off.
[[nodiscard]] std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                                    std::uint64_t hash = kFnvBasis);

/// The single enumeration point for platform state.  Platform::visit_state
/// walks every state-owning component exactly once, in a fixed order, and
/// hands the visitor a (tag, state) pair per section; savers, restorers, and
/// schema listings are all different visitors over the same walk, so the
/// section catalogue exists in exactly one place.
class StateVisitor {
 public:
  using Walk = std::function<Status(Io&)>;
  virtual ~StateVisitor() = default;
  /// `state` walks the component's fields through an Io: a saving Io
  /// serializes them, a loading one overwrites them.  Return non-OK to abort
  /// the walk.
  virtual Status section(std::string_view tag, const Walk& state) = 0;
};

/// Visitor that serializes every section into a Snapshot.
class SaveVisitor final : public StateVisitor {
 public:
  Status section(std::string_view tag, const Walk& state) override;
  [[nodiscard]] Snapshot take() { return std::move(snapshot_); }

 private:
  Snapshot snapshot_;
};

/// Visitor that restores every section from a parsed Snapshot.  A section
/// present in the walk but missing from the snapshot is kCorrupt (a snapshot
/// of the same schema version always carries the full set); extra sections
/// in the snapshot are ignored.
class RestoreVisitor final : public StateVisitor {
 public:
  explicit RestoreVisitor(const Snapshot& snapshot) : snapshot_(snapshot) {}
  Status section(std::string_view tag, const Walk& state) override;

 private:
  const Snapshot& snapshot_;
};

/// Visitor that only collects section tags (schema golden test, docs).
class ListVisitor final : public StateVisitor {
 public:
  Status section(std::string_view tag, const Walk& state) override;
  [[nodiscard]] const std::vector<std::string>& tags() const { return tags_; }

 private:
  std::vector<std::string> tags_;
};

}  // namespace tytan::snap
