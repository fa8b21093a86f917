#include "common/json.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <type_traits>

namespace tytan::json {

namespace {

/// Offset just past `"key":` plus `suffix` in `line`, or npos.
std::size_t value_at(std::string_view line, std::string_view key, std::string_view suffix) {
  const std::string needle = "\"" + std::string(key) + "\":" + std::string(suffix);
  const std::size_t pos = line.find(needle);
  return pos == std::string_view::npos ? pos : pos + needle.size();
}

/// End of the run of digits (and, if `signed_value`, minus signs) at `begin`.
std::size_t number_end(std::string_view line, std::size_t begin, bool signed_value) {
  while (begin < line.size() && ((line[begin] >= '0' && line[begin] <= '9') ||
                                 (signed_value && line[begin] == '-'))) {
    ++begin;
  }
  return begin;
}

/// Unescaped value of `"key":"<string>"`; nullopt when the key is absent or
/// the string is unterminated or malformed.
std::optional<std::string> string_value(std::string_view line, std::string_view key) {
  std::size_t i = value_at(line, key, "\"");
  if (i == std::string_view::npos) {
    return std::nullopt;
  }
  std::string out;
  for (; i < line.size(); ++i) {
    if (line[i] == '"') {
      return out;
    }
    if (line[i] != '\\') {
      out += line[i];
      continue;
    }
    if (++i == line.size()) {
      break;
    }
    switch (line[i]) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'u': {
        const char* first = line.data() + i + 1;
        const std::size_t digits = std::min<std::size_t>(4, line.size() - i - 1);
        unsigned code = 0;
        const auto [ptr, ec] = std::from_chars(first, first + digits, code, 16);
        if (ec != std::errc{} || ptr != first + 4) {
          return std::nullopt;
        }
        out += static_cast<char>(code);
        i += 4;
        break;
      }
      default: out += line[i];  // \" and \\ (and any other escaped byte)
    }
  }
  return std::nullopt;  // no closing quote: a truncated line
}

/// Value of `"key":<integer>` as a T; nullopt when the key is absent or no
/// number of T's range follows it.
template <typename T>
std::optional<T> number_value(std::string_view line, std::string_view key) {
  const std::size_t begin = value_at(line, key, "");
  if (begin == std::string_view::npos) {
    return std::nullopt;
  }
  const std::size_t end = number_end(line, begin, std::is_signed_v<T>);
  T value{};
  const auto [ptr, ec] = std::from_chars(line.data() + begin, line.data() + end, value);
  if (ec != std::errc{} || ptr == line.data() + begin) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string find_str(std::string_view line, std::string_view key) {
  return string_value(line, key).value_or("");
}

Result<std::string> read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return make_error(Err::kNotFound, "cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::size_t close_of(std::string_view text, std::size_t open) {
  std::size_t depth = 0;
  bool in_string = false;
  for (std::size_t i = open; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if ((c == '}' || c == ']') && --depth == 0) {
      return i;
    }
  }
  return std::string_view::npos;
}

// ---------------------------------------------------------------------------
// Io
// ---------------------------------------------------------------------------

void Io::key(std::string_view key) {
  *out_ += first_ ? "\"" : ",\"";
  first_ = false;
  *out_ += key;
  *out_ += "\":";
}

std::optional<std::string> Io::string_field(std::string_view key) {
  std::optional<std::string> value = string_value(text_, key);
  ok_ = ok_ && value.has_value();
  return value;
}

template <typename T>
void Io::number(std::string_view key, T& v) {
  if (!loading()) {
    this->key(key);
    char buf[24];
    out_->append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  } else if (const std::optional<T> value = number_value<T>(text_, key)) {
    v = *value;
  } else {
    ok_ = false;
  }
}

void Io::u64(std::string_view key, std::uint64_t& v) { number(key, v); }
void Io::u32(std::string_view key, std::uint32_t& v) { number(key, v); }
void Io::i32(std::string_view key, std::int32_t& v) { number(key, v); }

void Io::flag(std::string_view key, bool& v) {
  std::uint32_t bit = v ? 1 : 0;
  u32(key, bit);
  ok_ = ok_ && bit <= 1;
  v = bit != 0;
}

void Io::str(std::string_view key, std::string& v) {
  if (!loading()) {
    this->key(key);
    *out_ += '"';
    *out_ += escape(v);
    *out_ += '"';
  } else if (auto value = string_field(key)) {
    v = std::move(*value);
  }
}

void Io::optional(std::string_view key, std::uint64_t& v, bool present) {
  if (loading() ? value_at(text_, key, "") != std::string_view::npos : present) {
    u64(key, v);
  }
}

void Io::tag(std::string_view key, std::string_view text) {
  if (!loading()) {
    this->key(key);
    *out_ += '"';
    *out_ += text;
    *out_ += '"';
  }
}

void Io::derived(std::string_view key, std::string_view text) {
  if (!loading()) {
    this->key(key);
    *out_ += text;
  }
}

void Io::derived(std::string_view key, std::uint64_t v) {
  if (!loading()) {
    number(key, v);
  }
}

std::string_view Io::nested(std::string_view key, char bracket) {
  const std::size_t at = value_at(text_, key, std::string_view(&bracket, 1));
  const std::size_t end = at == std::string_view::npos ? at : close_of(text_, at - 1);
  if (end == std::string_view::npos) {
    ok_ = false;
    return {};
  }
  return text_.substr(at - 1, end - at + 2);
}

std::vector<std::string_view> Io::elements(std::string_view array) {
  std::vector<std::string_view> out;
  for (std::size_t at = 1; at + 1 < array.size(); at += out.back().size() + 1) {
    const std::size_t end = array[at] == '{' ? close_of(array, at) : std::string_view::npos;
    const char next = end == std::string_view::npos ? 0 : array[end + 1];
    if ((next != ',' && next != ']') || (next == ',' && array[end + 2] == ']')) {
      ok_ = false;
      return {};
    }
    out.push_back(array.substr(at, end - at + 1));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Lines
// ---------------------------------------------------------------------------

bool Lines::next(std::string_view& line) {
  while (!rest_.empty()) {
    const std::size_t end = rest_.find('\n');
    line = rest_.substr(0, end);
    rest_.remove_prefix(end == std::string_view::npos ? rest_.size() : end + 1);
    ++number_;
    if (!line.empty()) {
      return true;
    }
  }
  return false;
}

Status Lines::corrupt(std::string_view what) const {
  return make_error(Err::kCorrupt, std::string(what) + " line " + std::to_string(number_) +
                                       " is truncated or not a " + std::string(what) +
                                       " record");
}

}  // namespace tytan::json
