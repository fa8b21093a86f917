// Value-set dataflow engine over the recovered CFG.
//
// A worklist fixpoint propagates one ValueSet per register through every
// basic block, modelling the address-materialization idioms the tool chain
// emits: `li` pairs (LO16/HI16 relocations), `.word label` jump tables
// (ABS32 relocations), index masking/scaling, and cmp/branch interval
// refinement.  The engine answers two questions the structural passes
// cannot:
//
//   1. Where can a `jmpr`/`callr` go?  When the target value set is a
//      bounded set of base-relative offsets, the site is *resolved*
//      (DF001) and the edges are spliced into the CFG; a torn or unbounded
//      set is DF002, a set containing a non-code offset DF003.
//   2. Is a register-relative load/store contained in the task's EA-MPU
//      region?  Base-relative accesses are certified against the task
//      memory [0, image+bss+stack); provable escapes are DF004, possible
//      escapes DF005.  Absolute (constant) addresses stay the MMIO pass's
//      claim; Top is nobody's claim.
//
// CFG recovery and resolution share one worklist per analysis.  A pass
// starts from the code statically reachable from the roots.  Whenever the
// worklist drains, every site whose target set became resolvable (or grew)
// is spliced in (CfgBuilder::splice), the newly reached code is recovered,
// and the same worklist carries on from the in-states it has.  In-states,
// table clobbers and target sets only ever grow, so a pass reaches its
// fixpoint with no round budget.  A spliced site whose set becomes
// unresolvable (Top, too many candidates, a target that is not code) stays
// so for good: it is banned at once — never spliced again — and the pass
// restarts from the roots.  Restarts are bounded by the number of sites,
// and the one walk that emits findings runs once, on the final CFG.
//
// Soundness over precision: table loads resolve only through unclobbered
// ABS32 relocation sites, stores that may alias a table demote its loads to
// Top, and the per-block join widens to Top rather than guess.  Stack-region
// stores (SP-relative, within the task's stack reservation) are assumed not
// to alias the image — stack-discipline violations are the stack pass's
// domain (ST001/ST003).
#pragma once

#include <cstddef>

#include "analysis/cfg.h"
#include "analysis/findings.h"
#include "isa/object.h"

namespace tytan::analysis {

struct Config;  // analyzer.h

struct DataflowResult {
  /// Site offset -> sorted, validated target offsets (DF001 sites only).
  ResolvedTargets resolved;
  /// False when the fixpoint budget ran out; no resolution is claimed then.
  bool converged = true;
  /// Reachable jmpr/callr instructions seen.
  std::size_t indirect_sites = 0;
  /// Register-relative accesses proven inside the task's EA-MPU region.
  std::size_t certified_accesses = 0;
  /// Fixpoint passes: 1 + the restarts that followed a ban.
  int passes = 0;
};

/// Recover `builder`'s CFG and resolve its indirect sites in one worklist,
/// then walk the final CFG once: DF001–DF005 for every reachable indirect
/// site and every certifiable register-relative access go to `report`.
/// `builder.cfg()` is then the final CFG, exactly the one recover_cfg builds
/// from the returned resolved set.
DataflowResult run_dataflow(const isa::ObjectFile& object, CfgBuilder& builder,
                            const Config& config, Report& report);

}  // namespace tytan::analysis
