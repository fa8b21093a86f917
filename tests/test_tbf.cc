#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "tbf/tbf.h"

namespace tytan::tbf {
namespace {

isa::ObjectFile sample_object() {
  auto object = isa::assemble(R"(
      .secure
      .stack 128
      .bss 32
      .entry main
  main:
      li r1, data
      ldw r2, [r1]
      hlt
  data:
      .word main
  )");
  EXPECT_TRUE(object.is_ok()) << object.status().to_string();
  return object.take();
}

TEST(Tbf, WriteReadRoundTrip) {
  const isa::ObjectFile original = sample_object();
  const ByteVec raw = write(original);
  auto parsed = read(raw);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->image, original.image);
  EXPECT_EQ(parsed->relocs, original.relocs);
  EXPECT_EQ(parsed->entry, original.entry);
  EXPECT_EQ(parsed->bss_size, original.bss_size);
  EXPECT_EQ(parsed->stack_size, original.stack_size);
  EXPECT_EQ(parsed->flags, original.flags);
  EXPECT_EQ(parsed->mailbox, original.mailbox);
  EXPECT_EQ(parsed->symbols, original.symbols);
}

TEST(Tbf, RejectsBadMagic) {
  ByteVec raw = write(sample_object());
  raw[0] ^= 0xFF;
  EXPECT_EQ(read(raw).status().code(), Err::kCorrupt);
}

TEST(Tbf, RejectsHeaderCorruption) {
  ByteVec raw = write(sample_object());
  raw[8] ^= 0x01;  // image size field
  EXPECT_EQ(read(raw).status().code(), Err::kCorrupt);
}

TEST(Tbf, RejectsTruncation) {
  const ByteVec raw = write(sample_object());
  for (const std::size_t cut : {std::size_t{10}, kHeaderSize + 2, raw.size() - 3}) {
    const ByteVec truncated(raw.begin(), raw.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(read(truncated).is_ok()) << "cut=" << cut;
  }
}

// A relocation or symbol count the rest of the file cannot hold is a
// truncated table: the reader must refuse it before sizing anything by it.
TEST(Tbf, RejectsCountsBeyondTheFile) {
  // CRC-32 (IEEE, reflected) — the header checksum, recomputed after forging.
  auto crc32 = [](std::span<const std::uint8_t> bytes) {
    std::uint32_t crc = 0xFFFF'FFFFu;
    for (const std::uint8_t byte : bytes) {
      crc ^= byte;
      for (int i = 0; i < 8; ++i) {
        crc = (crc >> 1) ^ (0xEDB8'8320u & (0u - (crc & 1u)));
      }
    }
    return ~crc;
  };
  const ByteVec valid = write(sample_object());
  ASSERT_TRUE(read(valid).is_ok());
  struct Forgery {
    std::size_t field;  // header offset of the count
    const char* table;
  };
  for (const Forgery forgery : {Forgery{32, "relocation"}, Forgery{36, "symbol"}}) {
    for (const std::uint32_t count :
         {0xFFFF'FFFFu, static_cast<std::uint32_t>(valid.size())}) {
      ByteVec raw = valid;
      store_le32(raw.data() + forgery.field, count);
      store_le32(raw.data() + 40, crc32(std::span(raw).first(40)));
      auto parsed = read(raw);
      ASSERT_FALSE(parsed.is_ok()) << forgery.table << " count " << count;
      EXPECT_EQ(parsed.status().code(), Err::kCorrupt);
      EXPECT_NE(parsed.status().message().find(std::string("truncated ") + forgery.table),
                std::string::npos)
          << parsed.status().to_string();
    }
  }
}

TEST(Tbf, RejectsEntryOutsideImage) {
  isa::ObjectFile object = sample_object();
  object.entry = static_cast<std::uint32_t>(object.image.size()) + 4;
  EXPECT_EQ(read(write(object)).status().code(), Err::kCorrupt);
}

TEST(Tbf, RejectsRelocationOutsideImage) {
  isa::ObjectFile object = sample_object();
  object.relocs.push_back({static_cast<std::uint32_t>(object.image.size()),
                           isa::RelocKind::kAbs32, 0});
  EXPECT_EQ(read(write(object)).status().code(), Err::kCorrupt);
}

TEST(Tbf, RejectsImageNotWordMultiple) {
  isa::ObjectFile object = sample_object();
  object.image.push_back(0x00);
  const auto parsed = read(write(object));
  EXPECT_EQ(parsed.status().code(), Err::kCorrupt);
  EXPECT_NE(parsed.status().to_string().find("instruction-aligned"),
            std::string::npos);
}

TEST(Tbf, DataOnlyObjectsMayHaveOddSizedImages) {
  isa::ObjectFile object = sample_object();
  object.image.push_back(0x00);
  object.flags |= isa::kObjDataOnly;
  object.relocs.clear();  // reloc offsets were computed for the aligned image
  EXPECT_TRUE(read(write(object)).is_ok());
}

TEST(Tbf, RejectsMisalignedEntry) {
  isa::ObjectFile object = sample_object();
  object.entry += 2;
  EXPECT_EQ(read(write(object)).status().code(), Err::kCorrupt);
}

TEST(Tbf, RejectsMisalignedMsgHandler) {
  isa::ObjectFile object = sample_object();
  object.msg_handler = 2;
  EXPECT_EQ(read(write(object)).status().code(), Err::kCorrupt);
}

TEST(Tbf, RejectsMailboxOutsideImage) {
  isa::ObjectFile object = sample_object();
  object.mailbox = static_cast<std::uint32_t>(object.image.size()) - 4;
  const auto parsed = read(write(object));
  EXPECT_EQ(parsed.status().code(), Err::kCorrupt);
  EXPECT_NE(parsed.status().to_string().find("mailbox"), std::string::npos);
}

TEST(Tbf, RejectsMisalignedMailbox) {
  isa::ObjectFile object = sample_object();
  object.mailbox = 2;
  EXPECT_EQ(read(write(object)).status().code(), Err::kCorrupt);
}

TEST(Relocation, ApplyAndRevertAreInverse) {
  isa::ObjectFile object = sample_object();
  ByteVec image = object.image;
  ASSERT_TRUE(apply_relocations(object, image, 0x40000).is_ok());
  EXPECT_NE(image, object.image);
  for (const isa::Relocation& reloc : object.relocs) {
    revert_relocation(reloc, image);
  }
  EXPECT_EQ(image, object.image);
}

TEST(Relocation, Abs32PatchesFullWord) {
  ByteVec image(8, 0);
  const isa::Relocation reloc{4, isa::RelocKind::kAbs32, 0x100};
  apply_relocation(reloc, image, 0x20000);
  EXPECT_EQ(load_le32(image.data() + 4), 0x20100u);
}

TEST(Relocation, Lo16Hi16PatchOnlyImmediateField) {
  // An instruction word with opcode/reg bits that must survive patching.
  ByteVec image(8, 0);
  store_le32(image.data(), 0x0310'0000u);      // moviu r1, 0
  store_le32(image.data() + 4, 0x0410'0000u);  // movhi r1, 0
  apply_relocation({0, isa::RelocKind::kLo16, 0x1234}, image, 0x54320);
  apply_relocation({4, isa::RelocKind::kHi16, 0x1234}, image, 0x54320);
  // value = 0x1234 + 0x54320 = 0x55554.
  EXPECT_EQ(load_le32(image.data()) >> 16, 0x0310u);
  EXPECT_EQ(load_le32(image.data()) & 0xFFFF, 0x5554u);
  EXPECT_EQ(load_le32(image.data() + 4) & 0xFFFF, 0x5u);
}

TEST(Relocation, LoadedCodeIsPositionCorrect) {
  // End-to-end: assemble a program using li, relocate for two bases, and
  // check the materialized addresses differ by exactly the base delta.
  const isa::ObjectFile object = sample_object();
  ByteVec at_a = object.image;
  ByteVec at_b = object.image;
  ASSERT_TRUE(apply_relocations(object, at_a, 0x30000).is_ok());
  ASSERT_TRUE(apply_relocations(object, at_b, 0x70000).is_ok());
  // Find the li (first instruction of main).
  const std::uint32_t main_off = object.symbols.at("main");
  const std::uint32_t lo_a = load_le32(at_a.data() + main_off) & 0xFFFF;
  const std::uint32_t hi_a = load_le32(at_a.data() + main_off + 4) & 0xFFFF;
  const std::uint32_t lo_b = load_le32(at_b.data() + main_off) & 0xFFFF;
  const std::uint32_t hi_b = load_le32(at_b.data() + main_off + 4) & 0xFFFF;
  EXPECT_EQ(((hi_b << 16) | lo_b) - ((hi_a << 16) | lo_a), 0x40000u);
}

}  // namespace
}  // namespace tytan::tbf
