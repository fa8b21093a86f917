// Control-flow recovery over a Peak-32 image.
//
// The decoder classifies every aligned word of the image as instruction or
// data: `.word label` sites are known data (they carry ABS32 relocation
// records), everything reachable from the entry points is code, and the rest
// stays unknown (unreachable bytes are never flagged — string tables and
// padding are normal).  Reachability follows static branch displacements and
// call targets; `jmpr`/`callr` have no static successor and are reported as
// not statically verifiable (CF006) — unless the caller passes a set of
// dataflow-resolved targets, in which case the resolved edges are spliced
// into the traversal, the successor lists, and the call graph, and CF006 is
// left to the dataflow pass's more precise DF rules.
//
// The recovered CFG (basic blocks, successors, call graph) is shared by the
// stack-depth and MMIO passes and is exposed for future consumers
// (control-flow attestation, coverage tooling).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "analysis/findings.h"
#include "isa/isa.h"
#include "isa/object.h"

namespace tytan::analysis {

inline constexpr std::uint32_t kNoOffset = 0xFFFF'FFFFu;

enum class WordClass : std::uint8_t { kUnknown = 0, kCode, kData };

/// Static control-flow effect of one instruction.
struct Flow {
  std::optional<std::int64_t> target;  ///< static branch/call target (bytes)
  bool falls_through = true;
  bool is_call = false;   ///< `target` (or the indirect exit) is a call
  bool indirect = false;  ///< jmpr/callr: no static target
};

struct BasicBlock {
  std::uint32_t start = 0;
  std::uint32_t end = 0;  ///< exclusive; the block covers [start, end)
  std::vector<std::uint32_t> successors;    ///< start offsets of successor blocks
  std::uint32_t call_target = kNoOffset;    ///< static call out of the terminator
  bool indirect_exit = false;               ///< ends in jmpr/callr
  /// Dataflow-resolved callees of a terminating `callr` (empty otherwise);
  /// resolved `jmpr` targets land in `successors` directly.
  std::vector<std::uint32_t> indirect_call_targets;
};

/// Indirect-site image offset -> the statically resolved target set (sorted).
using ResolvedTargets = std::map<std::uint32_t, std::vector<std::uint32_t>>;

/// Every aligned word of an image, decoded; nullopt where a word does not.
using DecodedWords = std::vector<std::optional<isa::Instruction>>;

struct Cfg {
  DecodedWords decoded;              ///< per aligned word
  std::vector<WordClass> word_class;                     ///< per aligned word
  std::vector<bool> reachable;                           ///< per aligned word
  /// `int 0x21` sites whose syscall number is statically an exit-style call
  /// (kSysExit / kSysMsgDone) — they never return to the next instruction.
  std::vector<bool> terminal_int;
  std::vector<std::uint32_t> roots;  ///< validated entry offsets
  std::map<std::uint32_t, BasicBlock> blocks;  ///< keyed by start offset
  std::set<std::uint32_t> functions;           ///< roots + static call targets
  std::map<std::uint32_t, std::set<std::uint32_t>> call_graph;
  /// The resolved edges this CFG was recovered with (per jmpr/callr site).
  ResolvedTargets indirect_targets;

  [[nodiscard]] std::size_t words() const { return decoded.size(); }
  [[nodiscard]] bool is_code(std::uint32_t offset) const {
    const std::size_t index = offset / isa::kInstrSize;
    return offset % isa::kInstrSize == 0 && index < word_class.size() &&
           word_class[index] == WordClass::kCode;
  }
  /// Control-flow effect of the (decoded) instruction at `offset`.
  [[nodiscard]] Flow flow_at(std::uint32_t offset) const;
};

/// Decode every aligned word of `object.image`.  The one decode of an image
/// per analysis: every recover_cfg round takes its result.
DecodedWords decode_image(const isa::ObjectFile& object);

/// Validate the entry points of `object` and recover its CFG from
/// `decoded` (decode_image(object)).  Structural violations (CF001–CF006)
/// are appended to `report`.
///
/// When `resolved` is non-null the recovery runs in dataflow mode: resolved
/// jmpr/callr edges are followed (their targets become reachable leaders,
/// successors, and call-graph edges) and CF006 is never emitted — the
/// dataflow pass reports each indirect site precisely (DF001–DF003).
Cfg recover_cfg(const isa::ObjectFile& object, DecodedWords decoded, Report& report,
                const ResolvedTargets* resolved = nullptr);

}  // namespace tytan::analysis
