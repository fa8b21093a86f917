// The one JSON text codec behind every artifact writer and reader: heat,
// span and telemetry JSONL, Chrome traces, and the tytan-lint/tytan-objdump
// --json reports.
//
// Writers escape every string with escape(); readers pull one flat field out
// of one line with find_str / find_int / find_u64.  find_str is the exact
// inverse of escape, so any byte string a writer emits reads back unchanged.
// A key matches its first `"key":` occurrence; because escape() leaves no
// bare quote inside a string value, that never lands inside a string.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace tytan::json {

/// `text` as the body of a JSON string: `"` `\` newline and tab become
/// two-character escapes, other bytes below 0x20 become `\u00XX`, and every
/// other byte is copied verbatim.
std::string escape(std::string_view text);

/// Unescaped value of `"key":"<string>"` in `line`; empty when the key is
/// absent or the string is unterminated or malformed.
std::string find_str(std::string_view line, std::string_view key);

/// Value of `"key":<integer>` in `line`, or `fallback` when the key is
/// absent or the number does not parse.
std::int64_t find_int(std::string_view line, std::string_view key, std::int64_t fallback);

/// Value of `"key":<unsigned integer>` over the full 64-bit range, or 0.
std::uint64_t find_u64(std::string_view line, std::string_view key);

/// Whole contents of the file at `path`; kNotFound if it cannot be opened.
Result<std::string> read_text_file(const std::string& path);

}  // namespace tytan::json
