// Static binary verifier for Peak-32/TBF task images.
//
// Runs one pipeline over an object file and returns a Report of rule
// findings (see findings.h for the catalogue):
//
//   structural  CF001–CF005, IM001–IM002   CFG recovery + image shape
//   dataflow    DF001–DF005                 value-set resolution of indirect
//                                           control flow + EA-MPU certification
//   relocation  RL001–RL004                 LO16/HI16 pairing, sites, ranges
//   stack       ST001–ST003                 conservative worst-case depth
//   mmio        MM001–MM004                 statically-known access addresses
//
// CFG recovery and value-set analysis share one worklist and reach a joint
// fixpoint: targets resolved by the dataflow pass become CFG edges, and
// newly reachable code is recovered and analyzed in the same worklist; each
// indirect site gets a precise DF verdict (see dataflow.h).  The stack pass
// then tightens its worst case through resolved indirect calls, and
// register-relative accesses are certified against the task's EA-MPU region.
//
// The verifier is conservative in what it *claims*: a clean report means no
// statically-provable violation was found, not that the binary is correct —
// unresolvable indirect control flow and unbounded register-relative
// addressing are reported as unverifiable rather than guessed at.  It never
// charges simulated machine cycles; the loader runs it host-side before any
// memory is allocated for the task, and seeds heat-profile block leaders
// from the CFG it recovers.
#pragma once

#include <cstdint>
#include <set>

#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "analysis/findings.h"
#include "isa/object.h"

namespace tytan::analysis {

struct Config {
  /// Bytes the platform may push onto the task stack underneath the task's
  /// own worst case: the hardware interrupt frame (EFLAGS + EIP, 8 bytes)
  /// plus the Int Mux context save (r0..r6, 28 bytes).
  std::uint32_t interrupt_reserve = 36;
  /// An indirect site whose value set exceeds this many candidates stays
  /// unresolved (DF002) rather than splicing a huge edge fan into the CFG.
  std::uint32_t max_indirect_targets = 64;
  /// Rules to drop from the report (per-rule suppression).
  std::set<Rule> suppress;

  [[nodiscard]] bool suppressed(Rule rule) const { return suppress.contains(rule); }
};

/// Everything one verification run produced.  `analyze()` is the
/// findings-only shorthand; the loader, and tools that annotate
/// disassembly, use the full result.
struct Analysis {
  Report report;
  Cfg cfg;                  ///< final CFG (resolved edges spliced in)
  bool has_cfg = false;     ///< false for data-only objects
  DataflowResult dataflow;  ///< empty for data-only objects
};

/// Analyze `object` and return all findings, sorted by (offset, rule).
Report analyze(const isa::ObjectFile& object, const Config& config = {});

/// Full analysis: findings plus the recovered CFG and resolved indirect
/// targets.
Analysis analyze_full(const isa::ObjectFile& object, const Config& config = {});

}  // namespace tytan::analysis
