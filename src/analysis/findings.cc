#include "analysis/findings.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

namespace tytan::analysis {

std::string hex(std::int64_t value) {
  std::ostringstream os;
  if (value < 0) {
    os << "-0x" << std::hex << -value;
  } else {
    os << "0x" << std::hex << value;
  }
  return os.str();
}

std::string_view rule_id(Rule rule) {
  switch (rule) {
    case Rule::kCfEntry: return "CF001";
    case Rule::kCfTarget: return "CF002";
    case Rule::kCfUndecodable: return "CF003";
    case Rule::kCfFallOff: return "CF004";
    case Rule::kCfDataExec: return "CF005";
    case Rule::kCfIndirect: return "CF006";
    case Rule::kRlPairing: return "RL001";
    case Rule::kRlSite: return "RL002";
    case Rule::kRlOverlap: return "RL003";
    case Rule::kRlRange: return "RL004";
    case Rule::kStDepth: return "ST001";
    case Rule::kStRecursion: return "ST002";
    case Rule::kStLoopGrowth: return "ST003";
    case Rule::kMmDevice: return "MM001";
    case Rule::kMmKeyRegister: return "MM002";
    case Rule::kMmTrusted: return "MM003";
    case Rule::kMmOutOfMem: return "MM004";
    case Rule::kImSize: return "IM001";
    case Rule::kImMailbox: return "IM002";
    case Rule::kDfResolved: return "DF001";
    case Rule::kDfUnresolved: return "DF002";
    case Rule::kDfBadTarget: return "DF003";
    case Rule::kDfOutOfRegion: return "DF004";
    case Rule::kDfMayEscape: return "DF005";
  }
  return "??";
}

std::optional<Rule> rule_from_id(std::string_view id) {
  std::string upper(id);
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  for (int i = 0; i <= static_cast<int>(kLastRule); ++i) {
    const auto rule = static_cast<Rule>(i);
    if (rule_id(rule) == upper) {
      return rule;
    }
  }
  return std::nullopt;
}

std::string_view severity_name(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

std::string format_finding(const Finding& finding) {
  char head[32];
  std::snprintf(head, sizeof(head), "[%s %s] 0x%04x: ",
                finding.severity == Severity::kError     ? "ERROR"
                : finding.severity == Severity::kWarning ? "WARN"
                                                         : "INFO",
                std::string(rule_id(finding.rule)).c_str(), finding.offset);
  return std::string(head) + finding.message;
}

void Report::add(Rule rule, Severity severity, std::uint32_t offset, std::string message) {
  findings.push_back({rule, severity, offset, std::move(message)});
}

std::size_t Report::count(Severity severity) const {
  std::size_t n = 0;
  for (const Finding& f : findings) {
    n += f.severity == severity ? 1 : 0;
  }
  return n;
}

const Finding* Report::find(Rule rule) const {
  for (const Finding& f : findings) {
    if (f.rule == rule) {
      return &f;
    }
  }
  return nullptr;
}

const Finding* Report::first(Severity severity) const {
  for (const Finding& f : findings) {
    if (f.severity == severity) {
      return &f;
    }
  }
  return nullptr;
}

void Report::sort() {
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.offset != b.offset) return a.offset < b.offset;
                     return static_cast<int>(a.rule) < static_cast<int>(b.rule);
                   });
}

std::string Report::to_string() const {
  std::string out;
  for (const Finding& f : findings) {
    out += format_finding(f);
    out += '\n';
  }
  return out;
}

}  // namespace tytan::analysis
