#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <string>

#include "common/bytes.h"
#include "common/json.h"
#include "common/status.h"

namespace tytan {
namespace {

TEST(Bytes, LittleEndianRoundTrip) {
  std::uint8_t buf[8] = {};
  store_le32(buf, 0xdeadbeef);
  EXPECT_EQ(load_le32(buf), 0xdeadbeefu);
  store_le16(buf, 0xbeef);
  EXPECT_EQ(load_le16(buf), 0xbeef);
  store_le64(buf, 0x0123456789abcdefull);
  EXPECT_EQ(load_le64(buf), 0x0123456789abcdefull);
  EXPECT_EQ(buf[0], 0xef);  // little endian: LSB first
}

TEST(Bytes, AppendHelpers) {
  ByteVec out;
  append_le16(out, 0x1122);
  append_le32(out, 0x33445566);
  append_le64(out, 0x778899aabbccddeeull);
  ASSERT_EQ(out.size(), 14u);
  EXPECT_EQ(load_le16(out.data()), 0x1122);
  EXPECT_EQ(load_le32(out.data() + 2), 0x33445566u);
  EXPECT_EQ(load_le64(out.data() + 6), 0x778899aabbccddeeull);
}

TEST(Bytes, HexRoundTrip) {
  const ByteVec data = {0xde, 0xad, 0x00, 0xff};
  EXPECT_EQ(hex_encode(data), "dead00ff");
  EXPECT_EQ(hex_decode("dead00ff"), data);
  EXPECT_EQ(hex_decode("DEAD00FF"), data);
}

TEST(Bytes, HexDecodeRejectsMalformed) {
  EXPECT_TRUE(hex_decode("abc").empty());   // odd length
  EXPECT_TRUE(hex_decode("zz").empty());    // non-hex
}

TEST(Bytes, ConstantTimeEqual) {
  const ByteVec a = {1, 2, 3};
  const ByteVec b = {1, 2, 3};
  const ByteVec c = {1, 2, 4};
  const ByteVec d = {1, 2};
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, d));
}

TEST(Ranges, Overlap) {
  EXPECT_TRUE(ranges_overlap(0, 10, 5, 10));
  EXPECT_TRUE(ranges_overlap(5, 10, 0, 10));
  EXPECT_TRUE(ranges_overlap(0, 10, 2, 2));
  EXPECT_FALSE(ranges_overlap(0, 10, 10, 5));  // adjacent, not overlapping
  EXPECT_FALSE(ranges_overlap(10, 5, 0, 10));
  EXPECT_FALSE(ranges_overlap(0, 0, 0, 10));   // empty never overlaps
}

TEST(Ranges, Contains) {
  EXPECT_TRUE(range_contains(0, 10, 0, 10));
  EXPECT_TRUE(range_contains(0, 10, 2, 3));
  EXPECT_FALSE(range_contains(0, 10, 8, 3));
  EXPECT_TRUE(range_contains(0, 10, 10, 0));  // empty at end is inside
}

TEST(Status, FormatsErrorAndMessage) {
  const Status s = make_error(Err::kPermissionDenied, "no access");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.to_string(), "permission-denied: no access");
  EXPECT_EQ(Status::ok().to_string(), "ok");
}

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err = make_error(Err::kNotFound, "nope");
  ASSERT_FALSE(err.is_ok());
  EXPECT_EQ(err.status().code(), Err::kNotFound);
  EXPECT_THROW(err.value(), std::logic_error);
}

TEST(Result, ConstructingFromOkStatusIsInternalError) {
  Result<int> bad = Status::ok();
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), Err::kInternal);
}

// ------------------------------------------------------------ JSON codec

TEST(Json, FindStrInvertsEscapeOnRandomBytes) {
  // Bytes a hand-written reader gets wrong: quote, backslash (also as the
  // last byte), newline, tab, other control bytes, NUL and high bytes.
  constexpr char kTricky[] = {'"',    '\\',   '\n',   '\t',  '\x01',
                              '\x1f', '\0', '\x7f', '\xff'};
  std::mt19937 rng(21);
  for (int trial = 0; trial < 5'000; ++trial) {
    std::string s(rng() % 24, '\0');
    for (char& c : s) {
      c = rng() % 2 == 0 ? kTricky[rng() % sizeof kTricky] : static_cast<char>(rng());
    }
    if (trial % 4 == 0) {
      s += '\\';
    }
    const std::string line = R"({"k":")" + json::escape(s) + R"("})";
    ASSERT_EQ(json::find_str(line, "k"), s) << line;
    // A field after the string still reads back.
    EXPECT_EQ(json::find_int(R"({"k":")" + json::escape(s) + R"(","n":-7})", "n", 0), -7);
  }
}

TEST(Json, EscapeMatchesTheArtifactEncoding) {
  EXPECT_EQ(json::escape("plain name"), "plain name");
  EXPECT_EQ(json::escape(R"(say "hi")"), R"(say \"hi\")");
  EXPECT_EQ(json::escape(R"(dir\x)"), R"(dir\\x)");
  EXPECT_EQ(json::escape("a\nb\tc"), R"(a\nb\tc)");
  EXPECT_EQ(json::escape(std::string("\x01\0", 2)), R"(\u0001\u0000)");
}

TEST(Json, FieldReadersHandleAbsentTruncatedAndMalformedValues) {
  const std::string line =
      R"({"type":"block","start":262144,"neg":-3,"big":18446744073709551615})";
  EXPECT_EQ(json::find_str(line, "type"), "block");
  EXPECT_EQ(json::find_str(line, "missing"), "");
  EXPECT_EQ(json::find_u64(line, "start"), 262144u);
  EXPECT_EQ(json::find_u64(line, "big"), 18446744073709551615u);
  EXPECT_EQ(json::find_u64(line, "neg"), 0u);
  EXPECT_EQ(json::find_u64(line, "missing"), 0u);
  EXPECT_EQ(json::find_int(line, "neg", 0), -3);
  EXPECT_EQ(json::find_int(line, "missing", -1), -1);
  EXPECT_EQ(json::find_int(line, "type", 5), 5);  // a string is not a number
  // Unterminated strings and cut-off escapes read as empty, never past the end.
  EXPECT_EQ(json::find_str(R"({"k":"abc)", "k"), "");
  EXPECT_EQ(json::find_str(R"({"k":"abc\)", "k"), "");
  EXPECT_EQ(json::find_str(R"({"k":"\u00)", "k"), "");
  EXPECT_EQ(json::find_str(R"({"k":"\uzzzz"})", "k"), "");
}

TEST(Json, ReadTextFileReturnsBytesOrNotFound) {
  const std::string path = ::testing::TempDir() + "json_read_text_file.txt";
  const std::string bytes("line one\nline \"two\"\0tail", 24);
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  auto text = json::read_text_file(path);
  ASSERT_TRUE(text.is_ok()) << text.status().to_string();
  EXPECT_EQ(*text, bytes);
  auto missing = json::read_text_file(path + ".absent");
  ASSERT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.status().code(), Err::kNotFound);
}

}  // namespace
}  // namespace tytan
