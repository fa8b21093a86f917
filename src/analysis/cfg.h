// Control-flow recovery over a Peak-32 image.
//
// The decoder classifies every aligned word of the image as instruction or
// data: `.word label` sites are known data (they carry ABS32 relocation
// records), everything reachable from the entry points is code, and the rest
// stays unknown (unreachable bytes are never flagged — string tables and
// padding are normal).  Reachability follows static branch displacements and
// call targets; `jmpr`/`callr` have no static successor until the dataflow
// pass resolves them: resolved targets are spliced into the traversal, the
// successor lists, and the call graph, and every indirect site gets the
// dataflow pass's DF verdict.
//
// `CfgBuilder` grows one image's CFG: it recovers the statically reachable
// code from the roots, then takes resolved indirect sites one at a time as
// the dataflow worklist finds them (`splice`), recovering only the newly
// reached code.  `recover_cfg` is the one-shot form over a known resolved
// set; both build exactly the same blocks.
//
// The recovered CFG (basic blocks, successors, call graph) is shared by the
// stack-depth and MMIO passes, and the loader seeds heat-profile block
// leaders from it, so runtime blocks are the verifier's blocks.
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

  friend bool operator==(const BasicBlock&, const BasicBlock&) = default;
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
  std::set<std::uint32_t> functions;  ///< roots + call targets + resolved callees
  std::map<std::uint32_t, std::set<std::uint32_t>> call_graph;
  /// The resolved edges spliced into this CFG (per jmpr/callr site).
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
/// per analysis.
DecodedWords decode_image(const isa::ObjectFile& object);

/// Grows the CFG of one image.  The per-word facts (decoded words, exit-style
/// `int` sites, ABS32 data words) and the validated entry points are computed
/// once, at construction; `start` may run again (a dataflow restart) without
/// recomputing them.
class CfgBuilder {
 public:
  /// What one growth step changed, for the dataflow worklist to revisit.
  struct Growth {
    /// Blocks that lost their tail to a new leader: their out-state must
    /// reach the new block that starts at the leader.
    std::vector<std::uint32_t> split;
    /// New function entries (roots, call targets, resolved callees).
    std::vector<std::uint32_t> entries;
  };

  /// `decoded` is decode_image(object).  An indirect site is followed once
  /// it is spliced.
  CfgBuilder(const isa::ObjectFile& object, DecodedWords decoded);

  /// Recover everything reachable from the roots afresh, following the
  /// edges of `resolved` from the start.
  Growth start(const ResolvedTargets& resolved = {});
  /// Splice `targets` (sorted; a superset of what the site held) as the
  /// edges of the reachable indirect site `site`, recover the code they
  /// reach and split every block a new leader lands inside.
  Growth splice(std::uint32_t site, std::vector<std::uint32_t> targets);

  [[nodiscard]] const Cfg& cfg() const { return cfg_; }

  /// Complete the call graph, append the structural findings (CF001–CF005)
  /// of the CFG as it stands to `report`, and hand the CFG over.
  Cfg finish(Report& report);

 private:
  void explore(Growth& growth);
  void mark_leader(std::uint32_t offset);
  void add_indirect_entries(std::uint32_t site, Growth& growth);
  void build_blocks(Growth& growth);
  [[nodiscard]] std::uint32_t block_end(std::uint32_t start) const;
  [[nodiscard]] BasicBlock make_block(std::uint32_t start, std::uint32_t end) const;
  [[nodiscard]] bool in_image(std::int64_t target) const;

  const isa::ObjectFile& object_;
  Cfg cfg_;
  std::vector<WordClass> initial_class_;  ///< ABS32 data words, else unknown
  std::vector<Finding> root_findings_;    ///< CF001, once per image
  std::vector<bool> leader_;              ///< per aligned word
  std::vector<std::uint32_t> new_leaders_;
  std::vector<std::uint32_t> worklist_;
};

/// Validate the entry points of `object` and recover its CFG from
/// `decoded` (decode_image(object)), following the edges of `resolved`.
/// Structural violations (CF001–CF005) are appended to `report`.  The
/// splice oracle: run_dataflow's final CFG is exactly this one over the
/// resolved set it returns.
Cfg recover_cfg(const isa::ObjectFile& object, DecodedWords decoded, Report& report,
                const ResolvedTargets& resolved);

}  // namespace tytan::analysis
