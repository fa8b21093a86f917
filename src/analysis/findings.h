// Machine-readable diagnostics of the static binary verifier.
//
// Every check the analyzer performs is identified by a stable rule id
// ("CF002", "ST001", ...) so tests, CI, and suppression lists can refer to a
// diagnostic without parsing its message.  A Finding anchors one diagnostic
// at an image offset; a Report is the ordered collection for one object.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tytan::analysis {

enum class Severity : std::uint8_t {
  kInfo = 0,
  kWarning = 1,
  kError = 2,
};

/// Stable rule catalogue.  Ids are grouped by pass:
///   CF*  control-flow recovery    RL*  relocation lints
///   ST*  stack-depth analysis     MM*  MMIO / privilege lints
///   IM*  image structure          DF*  value-set dataflow
enum class Rule : std::uint8_t {
  kCfEntry,        ///< CF001: entry/msg-handler does not reach valid code
  kCfTarget,       ///< CF002: branch/call target outside image or misaligned
  kCfUndecodable,  ///< CF003: reachable word does not decode
  kCfFallOff,      ///< CF004: reachable path falls off the image end
  kCfDataExec,     ///< CF005: reachable code overlaps relocated data
  kCfIndirect,     ///< CF006: retired (indirect sites get DF verdicts); still parses
  kRlPairing,      ///< RL001: LO16/HI16 pair broken
  kRlSite,         ///< RL002: relocation targets the wrong instruction kind
  kRlOverlap,      ///< RL003: overlapping/duplicate relocation records
  kRlRange,        ///< RL004: relocation offset or addend out of range
  kStDepth,        ///< ST001: worst-case stack depth exceeds the stack size
  kStRecursion,    ///< ST002: recursion in the call graph
  kStLoopGrowth,   ///< ST003: stack depth grows inside a loop
  kMmDevice,       ///< MM001: device MMIO access from an unprivileged task
  kMmKeyRegister,  ///< MM002: platform-key register access from a task
  kMmTrusted,      ///< MM003: access to the trusted region below task RAM
  kMmOutOfMem,     ///< MM004: access beyond physical memory
  kImSize,         ///< IM001: image size not a multiple of the word size
  kImMailbox,      ///< IM002: mailbox offset outside the image
  kDfResolved,     ///< DF001: indirect transfer resolved to a bounded target set
  kDfUnresolved,   ///< DF002: indirect target set not statically bounded
  kDfBadTarget,    ///< DF003: resolved indirect target is not valid code
  kDfOutOfRegion,  ///< DF004: register-relative access provably outside the task region
  kDfMayEscape,    ///< DF005: register-relative access may fall outside the task region
};

/// Last catalogue entry, for exhaustive iteration (tests, rule_from_id).
inline constexpr auto kLastRule = Rule::kDfMayEscape;

/// "CF002", "ST001", ... (stable across releases).
std::string_view rule_id(Rule rule);
/// Parse "CF002"-style ids (case-insensitive); nullopt if unknown.
std::optional<Rule> rule_from_id(std::string_view id);
/// "error" / "warning" / "info".
std::string_view severity_name(Severity severity);
/// "0x1f" / "-0x8": the address and offset format of finding messages.
std::string hex(std::int64_t value);

struct Finding {
  Rule rule = Rule::kCfEntry;
  Severity severity = Severity::kError;
  std::uint32_t offset = 0;  ///< image offset the finding anchors at
  std::string message;

  friend bool operator==(const Finding&, const Finding&) = default;
};

/// "[ERROR CF002] 0x0010: branch target 0x0060 outside 64-byte image"
std::string format_finding(const Finding& finding);

struct Report {
  std::vector<Finding> findings;

  void add(Rule rule, Severity severity, std::uint32_t offset, std::string message);

  [[nodiscard]] bool clean() const { return findings.empty(); }
  [[nodiscard]] std::size_t count(Severity severity) const;
  [[nodiscard]] std::size_t errors() const { return count(Severity::kError); }
  [[nodiscard]] std::size_t warnings() const { return count(Severity::kWarning); }
  [[nodiscard]] bool has(Rule rule) const { return find(rule) != nullptr; }
  [[nodiscard]] const Finding* find(Rule rule) const;
  /// First finding of exactly this severity, or nullptr.
  [[nodiscard]] const Finding* first(Severity severity) const;

  /// Order findings by (offset, rule id) for deterministic output.
  void sort();
  /// One format_finding() line per finding.
  [[nodiscard]] std::string to_string() const;
};

}  // namespace tytan::analysis
