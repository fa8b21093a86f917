// Shared helpers for the tytan-* CLI tools.
//
// Checked numeric parsing: bare strtoull() silently maps garbage ("banana")
// to 0 and saturates out-of-range input, which turns a typo'd flag into a
// quietly wrong fleet configuration.  These helpers validate the whole token
// (endptr + errno + emptiness) and exit with a usage error instead.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace tytan::tools {

/// One shared suite version for every tytan-* tool, carrying the schema
/// versions of the serialized formats so scripts can gate on compatibility.
inline constexpr const char* kSuiteVersion =
    "tytan-tools 11 (heat-schema 1, snapshot-schema 1, span-schema 1, "
    "telemetry-schema 2, trace-schema 1)";

/// Handle `--version` / `--help` uniformly: scan argv before any other
/// parsing; print one line (version) or the usage text (help) on stdout and
/// exit 0.  Every tool calls this first, so the flags win over positional
/// parsing and never depend on argument order.
inline void handle_version_help(const char* tool, int argc, char** argv,
                                const char* usage_text) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--version") == 0) {
      std::printf("%s %s\n", tool, kSuiteVersion);
      std::exit(0);
    }
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::fputs(usage_text, stdout);
      std::exit(0);
    }
  }
}

/// Parse `text` as an unsigned 64-bit decimal/hex number; on any garbage,
/// overflow, or negative sign, print "<tool>: <flag> ..." and exit 2.
inline std::uint64_t parse_u64(const char* tool, const char* flag, const char* text) {
  if (text == nullptr || *text == '\0' || *text == '-') {
    std::fprintf(stderr, "%s: %s needs a non-negative number, got '%s'\n", tool,
                 flag, text == nullptr ? "" : text);
    std::exit(2);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 0);
  if (errno == ERANGE || end == text || *end != '\0') {
    std::fprintf(stderr, "%s: %s needs a number, got '%s'\n", tool, flag, text);
    std::exit(2);
  }
  return static_cast<std::uint64_t>(value);
}

inline std::uint32_t parse_u32(const char* tool, const char* flag, const char* text) {
  const std::uint64_t value = parse_u64(tool, flag, text);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    std::fprintf(stderr, "%s: %s value '%s' out of 32-bit range\n", tool, flag, text);
    std::exit(2);
  }
  return static_cast<std::uint32_t>(value);
}

/// Fetch the value of a `--flag VALUE` option from argv, advancing `*i`;
/// prints a usage error and exits 2 when the value is missing.
inline const char* required_value(const char* tool, const char* flag, int argc,
                                  char** argv, int* i) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "%s: %s needs a value\n", tool, flag);
    std::exit(2);
  }
  return argv[++*i];
}

/// The value of `flag` given as `flag VALUE` (advancing *i; exits 2 when
/// the value is missing) or as `flag=VALUE`; nullptr when argv[*i] is
/// another argument.
inline const char* flag_value(const char* tool, const char* flag, int argc, char** argv,
                              int* i) {
  const std::size_t n = std::strlen(flag);
  const char* arg = argv[*i];
  if (std::strncmp(arg, flag, n) != 0 || (arg[n] != '=' && arg[n] != '\0')) {
    return nullptr;
  }
  return arg[n] == '=' ? arg + n + 1 : required_value(tool, flag, argc, argv, i);
}

/// Nearest-rank percentile over a sorted cycle list (0 when empty).
inline std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, unsigned pct) {
  if (sorted.empty()) {
    return 0;
  }
  const std::size_t rank = (sorted.size() * pct + 99) / 100;
  return sorted[rank == 0 ? 0 : rank - 1];
}

/// Reject an option no branch recognized.  Exits 2 (usage error).
[[noreturn]] inline void unknown_flag(const char* tool, const char* arg) {
  std::fprintf(stderr, "%s: unknown option '%s'\n", tool, arg);
  std::exit(2);
}

/// Signed variant for flags where -1 means "disabled" (device indices).
inline std::int64_t parse_i64(const char* tool, const char* flag, const char* text) {
  if (text == nullptr || *text == '\0') {
    std::fprintf(stderr, "%s: %s needs a number\n", tool, flag);
    std::exit(2);
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 0);
  if (errno == ERANGE || end == text || *end != '\0') {
    std::fprintf(stderr, "%s: %s needs a number, got '%s'\n", tool, flag, text);
    std::exit(2);
  }
  return static_cast<std::int64_t>(value);
}

}  // namespace tytan::tools
