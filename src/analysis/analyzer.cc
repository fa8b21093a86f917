#include "analysis/analyzer.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
#include <map>
#include <set>

#include "common/bytes.h"
#include "isa/assembler.h"
#include "sim/memory_map.h"

namespace tytan::analysis {

namespace {

// ---------------------------------------------------------------------------
// Image-structure checks (IM*)
// ---------------------------------------------------------------------------

void check_image_shape(const isa::ObjectFile& object, Report& report) {
  const auto image_size = static_cast<std::uint32_t>(object.image.size());
  if (image_size % isa::kInstrSize != 0) {
    report.add(Rule::kImSize, Severity::kError, image_size & ~3u,
               "image size " + std::to_string(image_size) +
                   " is not a multiple of the instruction size");
  }
  if (object.mailbox != 0 &&
      (object.mailbox % 4 != 0 ||
       object.mailbox + isa::SecureLayout::kMailboxSize > image_size)) {
    report.add(Rule::kImMailbox, Severity::kError, object.mailbox,
               "mailbox at " + hex(object.mailbox) + " (+" +
                   std::to_string(isa::SecureLayout::kMailboxSize) +
                   " bytes) does not fit the " + std::to_string(image_size) +
                   "-byte image");
  }
}

// ---------------------------------------------------------------------------
// Relocation lints (RL*)
// ---------------------------------------------------------------------------

void check_relocations(const isa::ObjectFile& object, const Cfg* cfg, Report& report) {
  const auto image_size = static_cast<std::uint32_t>(object.image.size());
  const std::uint32_t memory_size = object.memory_size();

  // Work on an offset-sorted view; hand-built objects may be unsorted.
  std::vector<const isa::Relocation*> sorted;
  sorted.reserve(object.relocs.size());
  for (const isa::Relocation& reloc : object.relocs) {
    sorted.push_back(&reloc);
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto* a, const auto* b) { return a->offset < b->offset; });

  std::map<std::uint32_t, const isa::Relocation*> by_offset;
  for (const isa::Relocation* reloc : sorted) {
    by_offset.emplace(reloc->offset, reloc);
  }

  const isa::Relocation* prev = nullptr;
  for (const isa::Relocation* reloc : sorted) {
    const char* kind = reloc->kind == isa::RelocKind::kAbs32  ? "ABS32"
                       : reloc->kind == isa::RelocKind::kLo16 ? "LO16"
                                                              : "HI16";
    if (reloc->offset + 4 > image_size) {
      report.add(Rule::kRlRange, Severity::kError, reloc->offset,
                 std::string(kind) + " relocation at " + hex(reloc->offset) +
                     " outside the " + std::to_string(image_size) + "-byte image");
      continue;
    }
    if (reloc->kind != isa::RelocKind::kAbs32 && reloc->offset % isa::kInstrSize != 0) {
      report.add(Rule::kRlRange, Severity::kError, reloc->offset,
                 std::string(kind) + " relocation at " + hex(reloc->offset) +
                     " is not instruction-aligned");
      continue;
    }
    if (reloc->addend > memory_size) {
      report.add(Rule::kRlRange, Severity::kError, reloc->offset,
                 std::string(kind) + " addend " + hex(reloc->addend) +
                     " beyond the task memory (image+bss+stack = " +
                     std::to_string(memory_size) + " bytes)");
    }
    if (prev != nullptr && reloc->offset < prev->offset + 4) {
      report.add(Rule::kRlOverlap, Severity::kError, reloc->offset,
                 "relocation at " + hex(reloc->offset) + " overlaps the record at " +
                     hex(prev->offset));
    }
    prev = reloc;

    // LO16/HI16 come in pairs: the two halves of one `li`, adjacent words,
    // same addend.  An unpaired half materializes a torn address at runtime.
    if (reloc->kind == isa::RelocKind::kLo16) {
      const auto hi = by_offset.find(reloc->offset + 4);
      if (hi == by_offset.end() || hi->second->kind != isa::RelocKind::kHi16) {
        report.add(Rule::kRlPairing, Severity::kError, reloc->offset,
                   "LO16 at " + hex(reloc->offset) + " has no HI16 at " +
                       hex(reloc->offset + 4));
      } else if (hi->second->addend != reloc->addend) {
        report.add(Rule::kRlPairing, Severity::kError, reloc->offset,
                   "LO16/HI16 pair at " + hex(reloc->offset) +
                       " disagrees on the addend (" + hex(reloc->addend) + " vs " +
                       hex(hi->second->addend) + ")");
      }
    } else if (reloc->kind == isa::RelocKind::kHi16) {
      const auto lo = by_offset.find(reloc->offset - 4);
      if (reloc->offset < 4 || lo == by_offset.end() ||
          lo->second->kind != isa::RelocKind::kLo16) {
        report.add(Rule::kRlPairing, Severity::kError, reloc->offset,
                   "HI16 at " + hex(reloc->offset) + " has no LO16 at " +
                       hex(reloc->offset - 4));
      }
    }

    // Site checks: LO16 patches the imm16 of a moviu, HI16 of a movhi.
    // (ABS32 sites are data by definition; executing them is CF005.)
    if (cfg != nullptr && reloc->kind != isa::RelocKind::kAbs32 &&
        reloc->offset % isa::kInstrSize == 0) {
      const auto& instr = cfg->decoded[reloc->offset / isa::kInstrSize];
      const isa::Opcode expected = reloc->kind == isa::RelocKind::kLo16
                                       ? isa::Opcode::kMoviu
                                       : isa::Opcode::kMovhi;
      if (!instr.has_value() || instr->opcode != expected) {
        report.add(Rule::kRlSite, Severity::kError, reloc->offset,
                   std::string(kind) + " relocation at " + hex(reloc->offset) +
                       " does not target a " +
                       std::string(isa::mnemonic(expected)) + " instruction");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Stack-depth analysis (ST*)
// ---------------------------------------------------------------------------

class StackAnalysis {
 public:
  StackAnalysis(const Cfg& cfg, Report& report) : cfg_(cfg), report_(report) {}

  void run(const isa::ObjectFile& object, std::uint32_t reserve) {
    std::int64_t worst = 0;
    bool known = true;
    for (const std::uint32_t root : cfg_.roots) {
      const FnResult result = function_depth(root);
      worst = std::max(worst, result.worst);
      known = known && result.known;
    }
    if (known && worst + reserve > object.stack_size) {
      report_.add(Rule::kStDepth, Severity::kError,
                  cfg_.roots.empty() ? 0 : cfg_.roots.front(),
                  "worst-case stack depth " + std::to_string(worst) + " bytes + " +
                      std::to_string(reserve) +
                      "-byte interrupt reserve exceeds the requested stack size " +
                      std::to_string(object.stack_size));
    }
  }

 private:
  struct FnResult {
    std::int64_t worst = 0;
    bool known = true;  ///< false: recursion / indirect call / SP clobber
  };

  /// Cap on re-walking one offset with a deeper incoming stack; a loop that
  /// still grows after this many widening steps is unbounded (ST003).
  static constexpr int kMaxVisits = 32;

  FnResult function_depth(std::uint32_t entry) {
    if (const auto it = memo_.find(entry); it != memo_.end()) {
      return it->second;
    }
    if (on_stack_.contains(entry)) {
      if (recursion_reported_.insert(entry).second) {
        report_.add(Rule::kStRecursion, Severity::kWarning, entry,
                    "recursive call cycle through " + hex(entry) +
                        "; stack depth is not statically bounded");
      }
      return {0, false};
    }
    on_stack_.insert(entry);
    FnResult result = walk(entry);
    on_stack_.erase(entry);
    memo_.emplace(entry, result);
    return result;
  }

  FnResult walk(std::uint32_t entry) {
    FnResult result;
    std::map<std::uint32_t, std::int64_t> best;
    std::map<std::uint32_t, int> visits;
    std::deque<std::pair<std::uint32_t, std::int64_t>> work{{entry, 0}};
    bool growth_reported = false;
    while (!work.empty()) {
      const auto [offset, depth] = work.front();
      work.pop_front();
      if (!cfg_.is_code(offset)) {
        continue;  // structural violations are CF* findings, not ours
      }
      if (const auto it = best.find(offset); it != best.end() && depth <= it->second) {
        continue;  // already walked at this depth or deeper
      }
      if (++visits[offset] > kMaxVisits) {
        if (!growth_reported) {
          report_.add(Rule::kStLoopGrowth, Severity::kWarning, offset,
                      "stack depth keeps growing through the loop at " + hex(offset));
          growth_reported = true;
        }
        result.known = false;
        continue;
      }
      best[offset] = depth;

      const isa::Instruction& instr = *cfg_.decoded[offset / isa::kInstrSize];
      std::int64_t delta = 0;
      std::int64_t peak = depth;
      bool sp_lost = false;
      switch (instr.opcode) {
        case isa::Opcode::kPush:
          delta = 4;
          break;
        case isa::Opcode::kPop:
          if (instr.rd == isa::kSpIndex) {
            sp_lost = true;
          } else {
            delta = -4;
          }
          break;
        case isa::Opcode::kSubi:
          if (instr.rd == isa::kSpIndex) {
            delta = instr.simm();
          }
          break;
        case isa::Opcode::kAddi:
          if (instr.rd == isa::kSpIndex) {
            delta = -instr.simm();
          }
          break;
        case isa::Opcode::kMov:
        case isa::Opcode::kMovi:
        case isa::Opcode::kMoviu:
        case isa::Opcode::kMovhi:
        case isa::Opcode::kAdd:
        case isa::Opcode::kSub:
        case isa::Opcode::kAnd:
        case isa::Opcode::kAndi:
        case isa::Opcode::kOr:
        case isa::Opcode::kOri:
        case isa::Opcode::kXor:
        case isa::Opcode::kShl:
        case isa::Opcode::kShli:
        case isa::Opcode::kShr:
        case isa::Opcode::kShri:
        case isa::Opcode::kMul:
        case isa::Opcode::kLdw:
        case isa::Opcode::kLdb:
        case isa::Opcode::kRdcyc:
          if (instr.rd == isa::kSpIndex) {
            sp_lost = true;  // SP rewritten from a non-stack source
          }
          break;
        default:
          break;
      }
      if (sp_lost) {
        result.known = false;
        continue;  // cannot track this path further
      }

      const Flow flow = cfg_.flow_at(offset);
      const auto resolved = flow.indirect ? cfg_.indirect_targets.find(offset)
                                          : cfg_.indirect_targets.end();
      if (flow.is_call) {
        if (flow.indirect) {
          if (resolved == cfg_.indirect_targets.end()) {
            result.known = false;  // unknown callee, unknown depth
          } else {
            // Dataflow bounded the callee set: the worst case is the
            // deepest resolved callee, exactly as for a direct call.
            for (const std::uint32_t target : resolved->second) {
              if (!cfg_.is_code(target)) {
                continue;
              }
              const FnResult callee = function_depth(target);
              peak = std::max(peak, depth + 4 + callee.worst);
              result.known = result.known && callee.known;
            }
          }
        } else if (flow.target.has_value() && *flow.target >= 0 &&
                   cfg_.is_code(static_cast<std::uint32_t>(*flow.target))) {
          const FnResult callee =
              function_depth(static_cast<std::uint32_t>(*flow.target));
          peak = std::max(peak, depth + 4 + callee.worst);  // +4: return address
          result.known = result.known && callee.known;
        }
      }
      const std::int64_t after = depth + delta;
      result.worst = std::max({result.worst, peak, after});

      if (flow.target.has_value() && !flow.is_call && *flow.target >= 0) {
        work.emplace_back(static_cast<std::uint32_t>(*flow.target), after);
      }
      if (flow.indirect && !flow.is_call) {
        if (resolved == cfg_.indirect_targets.end()) {
          result.known = false;  // jmpr to an unbounded target
        } else {
          for (const std::uint32_t target : resolved->second) {
            work.emplace_back(target, after);
          }
        }
      }
      if (flow.falls_through) {
        work.emplace_back(offset + isa::kInstrSize, after);
      }
    }
    return result;
  }

  const Cfg& cfg_;
  Report& report_;
  std::map<std::uint32_t, FnResult> memo_;
  std::set<std::uint32_t> on_stack_;
  std::set<std::uint32_t> recursion_reported_;
};

// ---------------------------------------------------------------------------
// MMIO / privilege lints (MM*)
// ---------------------------------------------------------------------------

/// Forward constant propagation over the recovered CFG.  Only the address
/// -materialization idioms are modeled (mov/movi/moviu/movhi/addi/subi); any
/// other register write demotes the register to unknown, so the pass can
/// never report an address the program would not actually compute.
class MmioAnalysis {
 public:
  MmioAnalysis(const Cfg& cfg, const isa::ObjectFile& object, Report& report)
      : cfg_(cfg), object_(object), report_(report) {
    for (const isa::Relocation& reloc : object.relocs) {
      if (reloc.kind != isa::RelocKind::kAbs32) {
        relocated_site_.insert(reloc.offset);
      }
    }
  }

  void run() {
    if (cfg_.blocks.empty()) {
      return;
    }
    // Roots and call-graph function entries start with every register
    // unknown (the unknown state is the lattice bottom, so seeding extra
    // blocks is always sound).
    std::deque<std::uint32_t> worklist;
    for (const std::uint32_t fn : cfg_.functions) {
      if (cfg_.blocks.contains(fn)) {
        in_.emplace(fn, State{});
        worklist.push_back(fn);
      }
    }
    int budget = static_cast<int>(cfg_.blocks.size()) * 16 + 64;
    while (!worklist.empty() && budget-- > 0) {
      const std::uint32_t start = worklist.front();
      worklist.pop_front();
      const BasicBlock& block = cfg_.blocks.at(start);
      State state = in_.at(start);
      transfer(block, state, /*emit=*/false);
      const Flow flow = cfg_.flow_at(block.end - isa::kInstrSize);
      const State succ_state = flow.is_call ? State{} : state;
      for (const std::uint32_t succ : block.successors) {
        if (!cfg_.blocks.contains(succ)) {
          continue;
        }
        const auto it = in_.find(succ);
        if (it == in_.end()) {
          in_.emplace(succ, succ_state);
          worklist.push_back(succ);
        } else if (meet(it->second, succ_state)) {
          worklist.push_back(succ);
        }
      }
    }
    // States have converged (or the budget ran out on a pathological CFG —
    // the in-states are still sound, only possibly over-precise on blocks
    // never re-visited).  Emit findings in one deterministic pass.
    for (const auto& [start, block] : cfg_.blocks) {
      if (const auto it = in_.find(start); it != in_.end()) {
        State state = it->second;
        transfer(block, state, /*emit=*/true);
      }
    }
  }

 private:
  using State = std::array<std::optional<std::uint32_t>, isa::kNumGprs>;

  /// Merge `from` into `into`; true if `into` changed (lost knowledge).
  static bool meet(State& into, const State& from) {
    bool changed = false;
    for (std::size_t i = 0; i < into.size(); ++i) {
      if (into[i].has_value() && into[i] != from[i]) {
        into[i].reset();
        changed = true;
      }
    }
    return changed;
  }

  void transfer(const BasicBlock& block, State& state, bool emit) {
    for (std::uint32_t offset = block.start; offset < block.end;
         offset += isa::kInstrSize) {
      const isa::Instruction& instr = *cfg_.decoded[offset / isa::kInstrSize];
      const bool relocated = relocated_site_.contains(offset);
      switch (instr.opcode) {
        case isa::Opcode::kMov:
          state[instr.rd] = state[instr.ra];
          break;
        case isa::Opcode::kMovi:
          state[instr.rd] = static_cast<std::uint32_t>(instr.simm());
          break;
        case isa::Opcode::kMoviu:
          // A LO16 site materializes a base-relative address; its final
          // value depends on the load base and is unknown here.
          state[instr.rd] =
              relocated ? std::nullopt
                        : std::optional<std::uint32_t>(instr.imm);
          break;
        case isa::Opcode::kMovhi:
          if (relocated || !state[instr.rd].has_value()) {
            state[instr.rd].reset();
          } else {
            state[instr.rd] = (*state[instr.rd] & 0xFFFFu) |
                              (static_cast<std::uint32_t>(instr.imm) << 16);
          }
          break;
        case isa::Opcode::kAddi:
          if (state[instr.rd].has_value()) {
            state[instr.rd] = *state[instr.rd] + static_cast<std::uint32_t>(instr.simm());
          }
          break;
        case isa::Opcode::kSubi:
          if (state[instr.rd].has_value()) {
            state[instr.rd] = *state[instr.rd] - static_cast<std::uint32_t>(instr.simm());
          }
          break;
        case isa::Opcode::kLdw:
        case isa::Opcode::kLdb:
          if (emit) {
            check_access(state[instr.ra], instr, offset, /*is_store=*/false);
          }
          state[instr.rd].reset();
          break;
        case isa::Opcode::kStw:
        case isa::Opcode::kStb:
          if (emit) {
            check_access(state[instr.ra], instr, offset, /*is_store=*/true);
          }
          break;
        case isa::Opcode::kPop:
        case isa::Opcode::kRdcyc:
        case isa::Opcode::kAdd:
        case isa::Opcode::kSub:
        case isa::Opcode::kAnd:
        case isa::Opcode::kAndi:
        case isa::Opcode::kOr:
        case isa::Opcode::kOri:
        case isa::Opcode::kXor:
        case isa::Opcode::kShl:
        case isa::Opcode::kShli:
        case isa::Opcode::kShr:
        case isa::Opcode::kShri:
        case isa::Opcode::kMul:
          state[instr.rd].reset();
          break;
        case isa::Opcode::kInt:
          // Syscalls return values in the low registers.
          for (unsigned reg = 0; reg < 4; ++reg) {
            state[reg].reset();
          }
          break;
        default:
          break;
      }
    }
  }

  void check_access(const std::optional<std::uint32_t>& base,
                    const isa::Instruction& instr, std::uint32_t offset,
                    bool is_store) {
    if (!base.has_value()) {
      return;  // register-relative access with unknown base: not our claim
    }
    const std::uint32_t addr = *base + static_cast<std::uint32_t>(instr.simm());
    const std::string what = std::string(is_store ? "store to " : "load from ") + hex(addr);
    // The platform-key register pages one 0x100 device window.
    constexpr std::uint32_t kKeyWindowSize = 0x100;
    if (addr >= sim::kMemSize) {
      report_.add(Rule::kMmOutOfMem, Severity::kError, offset,
                  what + " beyond physical memory (" + hex(sim::kMemSize) + ")");
    } else if (addr >= sim::kMmioKeyReg && addr < sim::kMmioKeyReg + kKeyWindowSize) {
      report_.add(Rule::kMmKeyRegister, Severity::kError, offset,
                  what + " hits the platform-key register window");
    } else if (addr >= sim::kMmioBase) {
      if (!object_.secure()) {
        report_.add(Rule::kMmDevice, Severity::kError, offset,
                    what + " hits device MMIO from an unprivileged task");
      }
    } else if (addr < sim::kRamBase) {
      report_.add(Rule::kMmTrusted,
                  is_store ? Severity::kError : Severity::kWarning, offset,
                  what + " hits the trusted region below task RAM");
    }
  }

  const Cfg& cfg_;
  const isa::ObjectFile& object_;
  Report& report_;
  std::set<std::uint32_t> relocated_site_;
  std::map<std::uint32_t, State> in_;
};

}  // namespace

Analysis analyze_full(const isa::ObjectFile& object, const Config& config) {
  using Clock = std::chrono::steady_clock;
  const auto elapsed_us = [](Clock::time_point since) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - since)
            .count());
  };

  Analysis out;
  Report& report = out.report;
  if (!object.data_only()) {
    if (config.structural) {
      check_image_shape(object, report);
    }
    // The CFG is recovered even when structural findings are disabled — the
    // downstream passes need it.  Structural findings go to a scratch report
    // in that case.
    Report scratch;
    Report& structural_sink = config.structural ? report : scratch;
    if (config.dataflow) {
      // Resolved indirect targets create CFG edges, and new edges expose new
      // code to the value-set analysis: iterate recovery and dataflow until
      // the resolved set is stable, then run both once more against the real
      // report so every finding reflects the final CFG.
      constexpr int kMaxResolveRounds = 8;
      const auto dataflow_begin = Clock::now();
      ResolvedTargets resolved;
      // A resolution that does not survive its own spliced edges is banned
      // for good (self-referential tables oscillate otherwise); banning is
      // monotone, so the loop terminates with a resolved set that is a true
      // fixpoint of recover+dataflow — the final claims are exactly the ones
      // the final CFG was built from.
      std::set<std::uint32_t> banned;
      bool stable = false;
      for (int round = 0; round < kMaxResolveRounds && !stable; ++round) {
        ++out.dataflow_iterations;
        Report iteration_scratch;
        const Cfg cfg = recover_cfg(object, iteration_scratch, &resolved);
        DataflowResult result = run_dataflow(object, cfg, config, nullptr, &banned);
        stable = result.resolved == resolved;
        if (!stable) {
          // A site whose resolution vanishes once its own edges are spliced
          // in can never be claimed: keep it banned so the iteration is
          // monotone.  A *changed* target set is ordinary convergence (new
          // edges expose more of the loop) and keeps iterating.
          for (const auto& [site, targets] : resolved) {
            if (result.resolved.find(site) == result.resolved.end()) {
              banned.insert(site);
            }
          }
          resolved = std::move(result.resolved);
        }
      }
      if (!stable) {
        // Still churning after the round budget: withdraw every claim and
        // fall back to the seed CFG, where the (all-banned) final pass is
        // trivially consistent.
        for (const auto& [site, targets] : resolved) {
          banned.insert(site);
        }
        resolved.clear();
      }
      out.timings.dataflow_us = elapsed_us(dataflow_begin);
      const auto structural_begin = Clock::now();
      out.cfg = recover_cfg(object, structural_sink, &resolved);
      out.timings.structural_us = elapsed_us(structural_begin);
      const auto final_begin = Clock::now();
      out.dataflow = run_dataflow(object, out.cfg, config, &report, &banned);
      out.timings.dataflow_us += elapsed_us(final_begin);
    } else {
      const auto structural_begin = Clock::now();
      out.cfg = recover_cfg(object, structural_sink);
      out.timings.structural_us = elapsed_us(structural_begin);
    }
    out.has_cfg = true;
  }
  if (config.relocations) {
    const auto begin = Clock::now();
    check_relocations(object, out.has_cfg ? &out.cfg : nullptr, report);
    out.timings.relocation_us = elapsed_us(begin);
  }
  if (out.has_cfg && config.stack) {
    const auto begin = Clock::now();
    StackAnalysis(out.cfg, report).run(object, config.interrupt_reserve);
    out.timings.stack_us = elapsed_us(begin);
  }
  if (out.has_cfg && config.mmio) {
    const auto begin = Clock::now();
    MmioAnalysis(out.cfg, object, report).run();
    out.timings.mmio_us = elapsed_us(begin);
  }
  if (!config.suppress.empty()) {
    std::erase_if(report.findings,
                  [&](const Finding& f) { return config.suppressed(f.rule); });
  }
  report.sort();
  return out;
}

Report analyze(const isa::ObjectFile& object, const Config& config) {
  return analyze_full(object, config).report;
}

}  // namespace tytan::analysis
