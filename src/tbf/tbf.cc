#include "tbf/tbf.h"

#include <cstring>

#include "isa/assembler.h"
#include "isa/isa.h"

namespace tytan::tbf {

namespace {

/// Wire size of one relocation record (u32 offset, u8 kind, u32 addend) and
/// the least one symbol record takes (u16 name length, empty name, u32 value).
constexpr std::size_t kRelocBytes = 9;
constexpr std::size_t kMinSymbolBytes = 6;

/// CRC-32 (IEEE 802.3, reflected) over the header for corruption detection.
std::uint32_t crc32(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFF'FFFFu;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int i = 0; i < 8; ++i) {
      crc = (crc >> 1) ^ (0xEDB8'8320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> raw) : raw_(raw) {}

  bool u8(std::uint8_t* out) {
    if (pos_ + 1 > raw_.size()) return false;
    *out = raw_[pos_++];
    return true;
  }
  bool u16(std::uint16_t* out) {
    if (pos_ + 2 > raw_.size()) return false;
    *out = load_le16(raw_.data() + pos_);
    pos_ += 2;
    return true;
  }
  bool u32(std::uint32_t* out) {
    if (pos_ + 4 > raw_.size()) return false;
    *out = load_le32(raw_.data() + pos_);
    pos_ += 4;
    return true;
  }
  bool bytes(std::size_t n, std::span<const std::uint8_t>* out) {
    if (pos_ + n > raw_.size()) return false;
    *out = raw_.subspan(pos_, n);
    pos_ += n;
    return true;
  }
  [[nodiscard]] std::size_t remaining() const { return raw_.size() - pos_; }

 private:
  std::span<const std::uint8_t> raw_;
  std::size_t pos_ = 0;
};

}  // namespace

ByteVec write(const isa::ObjectFile& object) {
  ByteVec out;
  out.reserve(kHeaderSize + object.image.size() + 9 * object.relocs.size());
  append_le32(out, kMagic);
  append_le16(out, kVersion);
  append_le16(out, static_cast<std::uint16_t>(object.flags));
  append_le32(out, static_cast<std::uint32_t>(object.image.size()));
  append_le32(out, object.bss_size);
  append_le32(out, object.stack_size);
  append_le32(out, object.entry);
  append_le32(out, object.msg_handler);
  append_le32(out, object.mailbox);
  append_le32(out, static_cast<std::uint32_t>(object.relocs.size()));
  append_le32(out, static_cast<std::uint32_t>(object.symbols.size()));
  append_le32(out, crc32(out));  // checksum over bytes 0..39

  out.insert(out.end(), object.image.begin(), object.image.end());
  for (const isa::Relocation& reloc : object.relocs) {
    append_le32(out, reloc.offset);
    out.push_back(static_cast<std::uint8_t>(reloc.kind));
    append_le32(out, reloc.addend);
  }
  for (const auto& [name, value] : object.symbols) {
    append_le16(out, static_cast<std::uint16_t>(name.size()));
    out.insert(out.end(), name.begin(), name.end());
    append_le32(out, value);
  }
  return out;
}

Result<isa::ObjectFile> read(std::span<const std::uint8_t> raw) {
  if (raw.size() < kHeaderSize) {
    return make_error(Err::kCorrupt, "TBF: truncated header");
  }
  Reader reader(raw);
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint16_t flags = 0;
  std::uint32_t image_size = 0;
  std::uint32_t reloc_count = 0;
  std::uint32_t symbol_count = 0;
  std::uint32_t checksum = 0;
  isa::ObjectFile object;

  reader.u32(&magic);
  reader.u16(&version);
  reader.u16(&flags);
  reader.u32(&image_size);
  reader.u32(&object.bss_size);
  reader.u32(&object.stack_size);
  reader.u32(&object.entry);
  reader.u32(&object.msg_handler);
  reader.u32(&object.mailbox);
  reader.u32(&reloc_count);
  reader.u32(&symbol_count);
  reader.u32(&checksum);

  if (magic != kMagic) {
    return make_error(Err::kCorrupt, "TBF: bad magic");
  }
  if (version != kVersion) {
    return make_error(Err::kCorrupt, "TBF: unsupported version");
  }
  // The checksum covers the header bytes that precede it.
  if (crc32(raw.subspan(0, kHeaderSize - 4)) != checksum) {
    return make_error(Err::kCorrupt, "TBF: header checksum mismatch");
  }
  object.flags = flags;

  std::span<const std::uint8_t> image;
  if (!reader.bytes(image_size, &image)) {
    return make_error(Err::kCorrupt, "TBF: truncated image");
  }
  object.image.assign(image.begin(), image.end());

  if (image_size > 0 && object.entry >= image_size) {
    return make_error(Err::kCorrupt, "TBF: entry outside image");
  }
  if (object.msg_handler != 0 && object.msg_handler >= image_size) {
    return make_error(Err::kCorrupt, "TBF: msg handler outside image");
  }
  if (!object.data_only()) {
    // Executable images are whole instruction words; anything else cannot
    // have been produced by the assembler and would decode garbage tails.
    if (image_size % isa::kInstrSize != 0) {
      return make_error(Err::kCorrupt, "TBF: image size not instruction-aligned");
    }
    if (object.entry % isa::kInstrSize != 0) {
      return make_error(Err::kCorrupt, "TBF: entry not instruction-aligned");
    }
    if (object.msg_handler % isa::kInstrSize != 0) {
      return make_error(Err::kCorrupt, "TBF: msg handler not instruction-aligned");
    }
  }
  if (object.mailbox != 0 &&
      (object.mailbox % 4 != 0 ||
       object.mailbox + isa::SecureLayout::kMailboxSize > image_size)) {
    return make_error(Err::kCorrupt, "TBF: mailbox outside image");
  }

  // The counts come from the file: refuse any the remaining bytes cannot
  // hold before sizing anything by them.
  if (reloc_count > reader.remaining() / kRelocBytes) {
    return make_error(Err::kCorrupt, "TBF: truncated relocation table");
  }
  object.relocs.reserve(reloc_count);
  for (std::uint32_t i = 0; i < reloc_count; ++i) {
    isa::Relocation reloc;
    std::uint8_t kind = 0;
    if (!reader.u32(&reloc.offset) || !reader.u8(&kind) || !reader.u32(&reloc.addend)) {
      return make_error(Err::kCorrupt, "TBF: truncated relocation table");
    }
    if (kind > static_cast<std::uint8_t>(isa::RelocKind::kHi16)) {
      return make_error(Err::kCorrupt, "TBF: unknown relocation kind");
    }
    reloc.kind = static_cast<isa::RelocKind>(kind);
    if (reloc.offset + 4 > image_size) {
      return make_error(Err::kCorrupt, "TBF: relocation outside image");
    }
    object.relocs.push_back(reloc);
  }

  if (symbol_count > reader.remaining() / kMinSymbolBytes) {
    return make_error(Err::kCorrupt, "TBF: truncated symbol table");
  }
  for (std::uint32_t i = 0; i < symbol_count; ++i) {
    std::uint16_t name_len = 0;
    if (!reader.u16(&name_len)) {
      return make_error(Err::kCorrupt, "TBF: truncated symbol table");
    }
    std::span<const std::uint8_t> name_bytes;
    std::uint32_t value = 0;
    if (!reader.bytes(name_len, &name_bytes) || !reader.u32(&value)) {
      return make_error(Err::kCorrupt, "TBF: truncated symbol table");
    }
    object.symbols.emplace(
        std::string(reinterpret_cast<const char*>(name_bytes.data()), name_bytes.size()),
        value);
  }
  return object;
}

void apply_relocation(const isa::Relocation& reloc, std::span<std::uint8_t> image,
                      std::uint32_t base) {
  TYTAN_CHECK(reloc.offset + 4 <= image.size(), "relocation outside image");
  std::uint8_t* site = image.data() + reloc.offset;
  const std::uint32_t value = reloc.addend + base;
  switch (reloc.kind) {
    case isa::RelocKind::kAbs32:
      store_le32(site, value);
      break;
    case isa::RelocKind::kLo16: {
      const std::uint32_t word = load_le32(site);
      store_le32(site, (word & 0xFFFF'0000u) | (value & 0xFFFFu));
      break;
    }
    case isa::RelocKind::kHi16: {
      const std::uint32_t word = load_le32(site);
      store_le32(site, (word & 0xFFFF'0000u) | (value >> 16));
      break;
    }
  }
}

void revert_relocation(const isa::Relocation& reloc, std::span<std::uint8_t> image) {
  apply_relocation(reloc, image, /*base=*/0);
}

Status apply_relocations(const isa::ObjectFile& object, std::span<std::uint8_t> image,
                         std::uint32_t base) {
  if (image.size() != object.image.size()) {
    return make_error(Err::kInvalidArgument, "image size mismatch");
  }
  for (const isa::Relocation& reloc : object.relocs) {
    if (reloc.offset + 4 > image.size()) {
      return make_error(Err::kCorrupt, "relocation outside image");
    }
    apply_relocation(reloc, image, base);
  }
  return Status::ok();
}

}  // namespace tytan::tbf
