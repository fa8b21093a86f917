#include "common/json.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>

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
  std::size_t i = value_at(line, key, "\"");
  if (i == std::string_view::npos) {
    return {};
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
          return {};
        }
        out += static_cast<char>(code);
        i += 4;
        break;
      }
      default: out += line[i];  // \" and \\ (and any other escaped byte)
    }
  }
  return {};  // no closing quote: a truncated line
}

std::int64_t find_int(std::string_view line, std::string_view key, std::int64_t fallback) {
  const std::size_t begin = value_at(line, key, "");
  if (begin == std::string_view::npos) {
    return fallback;
  }
  const std::size_t end = number_end(line, begin, /*signed_value=*/true);
  std::int64_t value = fallback;
  std::from_chars(line.data() + begin, line.data() + end, value);
  return value;
}

std::uint64_t find_u64(std::string_view line, std::string_view key) {
  const std::size_t begin = value_at(line, key, "");
  if (begin == std::string_view::npos) {
    return 0;
  }
  const std::size_t end = number_end(line, begin, /*signed_value=*/false);
  std::uint64_t value = 0;
  std::from_chars(line.data() + begin, line.data() + end, value);
  return value;
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

}  // namespace tytan::json
