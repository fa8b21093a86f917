// The one JSON text codec behind every artifact writer and reader: heat,
// span and telemetry JSONL, Chrome traces, and the tytan-lint/tytan-objdump
// --json reports.
//
// Writers escape every string with escape(); readers pull one field out of
// one line by its key.  find_str is the exact inverse of escape, so any byte
// string a writer emits reads back unchanged.  A key matches its first
// `"key":` occurrence; because escape() leaves no bare quote inside a string
// value, that never lands inside a string.
//
// Record artifacts (the obs JSONL files and Chrome traces) go through Io, a
// two-way field walk over one JSON object: each record type lists its keys
// once, and the same walk writes the record and reads it back.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace tytan::json {

/// `text` as the body of a JSON string: `"` `\` newline and tab become
/// two-character escapes, other bytes below 0x20 become `\u00XX`, and every
/// other byte is copied verbatim.
std::string escape(std::string_view text);

/// Unescaped value of `"key":"<string>"` in `line`; empty when the key is
/// absent or the string is unterminated or malformed.
std::string find_str(std::string_view line, std::string_view key);

/// Whole contents of the file at `path`; kNotFound if it cannot be opened.
Result<std::string> read_text_file(const std::string& path);

/// `parse` run over the contents of the file at `path` (an artifact
/// reader: obs::parse_spans_jsonl, parse_heat_jsonl, parse_chrome_trace).
template <typename Parse>
auto read_file(const std::string& path, Parse&& parse) -> decltype(parse(std::string_view{})) {
  auto text = read_text_file(path);
  if (!text.is_ok()) {
    return text.status();
  }
  return parse(*text);
}

/// Offset of the `}` or `]` that closes the object or array opening at
/// `text[open]`, stepping over string contents; npos if it never closes.
std::size_t close_of(std::string_view text, std::size_t open);

template <typename Walk, typename... Fields>
void write_object(std::string& out, Walk&& walk, Fields&&... fields);
template <typename Walk, typename... Fields>
bool read_object(std::string_view line, Walk&& walk, Fields&&... fields);

/// One JSON object walked key by key in either direction, the text
/// counterpart of snap::Io.  A record type lists its keys once, as a walk
/// over its fields; write_object() runs the walk to append the object and
/// read_object() runs it to fill the fields from one line.  Reading looks
/// every key up by find_str's rule inside the object's own text (a nested
/// object or array element is its own scope), so key order and extra keys
/// do not matter.  A missing key, a malformed or out-of-range value, or an
/// unknown name clears ok().  Writers walk a copy when the source is const:
/// a walk takes its fields by reference for both directions.
class Io {
 public:
  /// Writing: fields are appended to `out`.
  explicit Io(std::string& out) : out_(&out) {}
  /// Reading: fields are looked up in `text`, the object without its braces.
  explicit Io(std::string_view text) : text_(text) {}

  [[nodiscard]] bool loading() const { return out_ == nullptr; }
  [[nodiscard]] bool ok() const { return ok_; }

  void u64(std::string_view key, std::uint64_t& v);
  void u32(std::string_view key, std::uint32_t& v);
  void i32(std::string_view key, std::int32_t& v);
  /// A bool written as 0 or 1.
  void flag(std::string_view key, bool& v);
  /// An escaped string.
  void str(std::string_view key, std::string& v);
  /// A u64 written only when `present`; reading leaves `v` when it is absent.
  void optional(std::string_view key, std::uint64_t& v, bool present);

  /// Write-only fields, skipped by reading: a constant string (`"key":"text"`)
  /// and a value derived from other fields (`"key":text`, unquoted).
  void tag(std::string_view key, std::string_view text);
  void derived(std::string_view key, std::string_view text);
  void derived(std::string_view key, std::uint64_t v);

  /// An enum (or index) written as `name_of(v)`, an identifier needing no
  /// escapes; reading maps the name back over the first `count` values.
  template <typename T, typename NameOf>
  void name(std::string_view key, T& v, std::size_t count, NameOf&& name_of) {
    if (!loading()) {
      tag(key, name_of(v));
      return;
    }
    const std::optional<std::string> text = string_field(key);
    for (std::size_t i = 0; text.has_value() && i < count; ++i) {
      if (name_of(static_cast<T>(i)) == *text) {
        v = static_cast<T>(i);
        return;
      }
    }
    ok_ = false;
  }

  /// A nested object whose keys `fields(Io&)` walks.
  template <typename Fields>
  void object(std::string_view key, Fields&& fields) {
    if (loading()) {
      ok_ = read_object(nested(key, '{'), fields) && ok_;
    } else {
      this->key(key);
      write_object(*out_, fields);
    }
  }

  /// An array of objects, `item(Io&, T&)` walked over each element.
  template <typename T, typename Item>
  void array(std::string_view key, std::vector<T>& items, Item&& item) {
    if (loading()) {
      const std::vector<std::string_view> texts = elements(nested(key, '['));
      items.resize(texts.size());
      for (std::size_t i = 0; i < texts.size(); ++i) {
        ok_ = read_object(texts[i], item, items[i]) && ok_;
      }
      return;
    }
    this->key(key);
    *out_ += '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
      *out_ += i == 0 ? "" : ",";
      write_object(*out_, item, items[i]);
    }
    *out_ += ']';
  }

 private:
  /// Writes the separator and `"key":`.
  void key(std::string_view key);
  template <typename T>
  void number(std::string_view key, T& v);
  std::optional<std::string> string_field(std::string_view key);
  /// The object or array opening with `bracket` at `key`, brackets
  /// included; empty (and ok() cleared) when there is none.
  std::string_view nested(std::string_view key, char bracket);
  /// The elements of `array` (brackets included), each an object's text;
  /// clears ok() and returns none when it is not a list of objects.
  std::vector<std::string_view> elements(std::string_view array);

  std::string* out_ = nullptr;
  std::string_view text_;
  bool first_ = true;
  bool ok_ = true;
};

/// Append the object `walk(io, fields...)` writes.
template <typename Walk, typename... Fields>
void write_object(std::string& out, Walk&& walk, Fields&&... fields) {
  out += '{';
  Io io(out);
  walk(io, fields...);
  out += '}';
}

/// Run `walk(io, fields...)` over the object that is exactly `line`; false
/// when `line` is not one complete object or the walk failed.
template <typename Walk, typename... Fields>
bool read_object(std::string_view line, Walk&& walk, Fields&&... fields) {
  if (line.empty() || line.front() != '{' || close_of(line, 0) != line.size() - 1) {
    return false;
  }
  Io io(line.substr(1, line.size() - 2));
  walk(io, fields...);
  return io.ok();
}

/// The non-empty lines of a text artifact, counted for error messages.
class Lines {
 public:
  explicit Lines(std::string_view text) : rest_(text) {}

  /// The next non-empty line; false once the text is used up.
  bool next(std::string_view& line);
  /// kCorrupt: "<what> line N is truncated or not a <what> record", N being
  /// the line next() returned last.
  [[nodiscard]] Status corrupt(std::string_view what) const;

 private:
  std::string_view rest_;
  std::size_t number_ = 0;
};

}  // namespace tytan::json
