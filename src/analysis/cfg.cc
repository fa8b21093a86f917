#include "analysis/cfg.h"

#include <deque>
#include <sstream>

#include "common/bytes.h"
#include "core/layout.h"
#include "sim/memory_map.h"

namespace tytan::analysis {

namespace {

Flow instruction_flow(const isa::Instruction& instr, std::uint32_t offset,
                      bool terminal_int) {
  Flow flow;
  const auto relative = [&] {
    return static_cast<std::int64_t>(offset) + isa::kInstrSize + instr.simm();
  };
  switch (instr.opcode) {
    case isa::Opcode::kJmp:
      flow.target = relative();
      flow.falls_through = false;
      break;
    case isa::Opcode::kJz:
    case isa::Opcode::kJnz:
    case isa::Opcode::kJlt:
    case isa::Opcode::kJge:
    case isa::Opcode::kJc:
    case isa::Opcode::kJnc:
      flow.target = relative();
      break;
    case isa::Opcode::kCall:
      flow.target = relative();
      flow.is_call = true;
      break;
    case isa::Opcode::kJmpr:
      flow.indirect = true;
      flow.falls_through = false;
      break;
    case isa::Opcode::kCallr:
      flow.indirect = true;
      flow.is_call = true;
      break;
    case isa::Opcode::kRet:
    case isa::Opcode::kIret:
    case isa::Opcode::kHlt:
      flow.falls_through = false;
      break;
    case isa::Opcode::kInt:
      flow.falls_through = !terminal_int;
      break;
    default:
      break;
  }
  return flow;
}

/// True if the `int 0x21` at word `index` is statically an exit-style syscall
/// (the ubiquitous `movi r0, N ; int 0x21` idiom with N = exit or msg-done —
/// neither ever returns to the next instruction).
bool int_is_terminal(const Cfg& cfg, std::size_t index) {
  const auto& instr = cfg.decoded[index];
  if (instr->opcode != isa::Opcode::kInt ||
      (instr->imm & 0xFF) != sim::kVecSyscall || index == 0) {
    return false;
  }
  const auto& prev = cfg.decoded[index - 1];
  if (!prev.has_value() || prev->rd != 0 ||
      (prev->opcode != isa::Opcode::kMovi && prev->opcode != isa::Opcode::kMoviu)) {
    return false;
  }
  return prev->imm == core::kSysExit || prev->imm == core::kSysMsgDone;
}

}  // namespace

Flow Cfg::flow_at(std::uint32_t offset) const {
  const std::size_t index = offset / isa::kInstrSize;
  return instruction_flow(*decoded[index], offset, terminal_int[index]);
}

Cfg recover_cfg(const isa::ObjectFile& object, Report& report,
                const ResolvedTargets* resolved) {
  Cfg cfg;
  if (resolved != nullptr) {
    cfg.indirect_targets = *resolved;
  }
  const auto image_size = static_cast<std::uint32_t>(object.image.size());
  const std::size_t n_words = image_size / isa::kInstrSize;
  cfg.decoded.resize(n_words);
  cfg.word_class.assign(n_words, WordClass::kUnknown);
  cfg.reachable.assign(n_words, false);
  cfg.terminal_int.assign(n_words, false);
  for (std::size_t i = 0; i < n_words; ++i) {
    cfg.decoded[i] = isa::decode(load_le32(object.image.data() + i * isa::kInstrSize));
  }
  for (std::size_t i = 0; i < n_words; ++i) {
    if (cfg.decoded[i].has_value()) {
      cfg.terminal_int[i] = int_is_terminal(cfg, i);
    }
  }

  // `.word label` sites are data by construction: ABS32 relocations patch the
  // full word, so an ABS32 site can never be an instruction.
  for (const isa::Relocation& reloc : object.relocs) {
    if (reloc.kind != isa::RelocKind::kAbs32) {
      continue;
    }
    for (std::uint32_t byte = reloc.offset; byte < reloc.offset + 4; ++byte) {
      if (byte / isa::kInstrSize < n_words) {
        cfg.word_class[byte / isa::kInstrSize] = WordClass::kData;
      }
    }
  }

  // Validate and seed the roots.
  const auto add_root = [&](std::uint32_t offset, std::string_view what) {
    std::string why;
    const std::size_t index = offset / isa::kInstrSize;
    if (offset % isa::kInstrSize != 0) {
      why = "not instruction-aligned";
    } else if (offset + isa::kInstrSize > image_size) {
      why = "outside the " + std::to_string(image_size) + "-byte image";
    } else if (cfg.word_class[index] == WordClass::kData) {
      why = "points at relocated data";
    } else if (!cfg.decoded[index].has_value()) {
      why = "does not decode";
    } else {
      cfg.roots.push_back(offset);
      return;
    }
    report.add(Rule::kCfEntry, Severity::kError, offset,
               std::string(what) + " offset " + hex(offset) + " " + why);
  };
  add_root(object.entry, "entry");
  if (object.msg_handler != 0 && object.msg_handler != object.entry) {
    add_root(object.msg_handler, "msg-handler");
  }

  // Reachability traversal.  `leaders` collects basic-block starts.
  std::set<std::uint32_t> leaders(cfg.roots.begin(), cfg.roots.end());
  std::map<std::uint32_t, std::uint32_t> call_sites;  // site offset -> target
  // Dataflow-resolved edges out of indirect sites, re-validated against this
  // image (the resolution may predate a re-recovery).
  std::map<std::uint32_t, std::vector<std::uint32_t>> indirect_jumps;
  std::map<std::uint32_t, std::vector<std::uint32_t>> indirect_calls;
  std::deque<std::uint32_t> worklist(cfg.roots.begin(), cfg.roots.end());
  while (!worklist.empty()) {
    const std::uint32_t offset = worklist.front();
    worklist.pop_front();
    const std::size_t index = offset / isa::kInstrSize;
    if (cfg.reachable[index]) {
      continue;
    }
    cfg.reachable[index] = true;
    if (cfg.word_class[index] == WordClass::kData) {
      report.add(Rule::kCfDataExec, Severity::kError, offset,
                 "execution reaches relocated data at " + hex(offset));
      continue;
    }
    if (!cfg.decoded[index].has_value()) {
      report.add(Rule::kCfUndecodable, Severity::kError, offset,
                 "reachable word " + hex(offset) + " does not decode (0x" +
                     [&] {
                       std::ostringstream os;
                       os << std::hex << load_le32(object.image.data() + offset);
                       return os.str();
                     }() +
                     ")");
      continue;
    }
    cfg.word_class[index] = WordClass::kCode;
    const Flow flow = instruction_flow(*cfg.decoded[index], offset, cfg.terminal_int[index]);
    if (flow.indirect) {
      if (resolved == nullptr) {
        report.add(Rule::kCfIndirect, Severity::kWarning, offset,
                   std::string(isa::mnemonic(cfg.decoded[index]->opcode)) +
                       " at " + hex(offset) + ": indirect control transfer is not "
                       "statically verifiable");
      } else if (const auto it = resolved->find(offset); it != resolved->end()) {
        auto& spliced = flow.is_call ? indirect_calls[offset] : indirect_jumps[offset];
        for (const std::uint32_t target : it->second) {
          if (target % isa::kInstrSize != 0 || target + isa::kInstrSize > image_size) {
            continue;  // stale resolution from a previous recovery round
          }
          spliced.push_back(target);
          leaders.insert(target);
          worklist.push_back(target);
        }
      }
    }
    if (flow.target.has_value()) {
      const std::int64_t target = *flow.target;
      if (target < 0 || target + isa::kInstrSize > image_size ||
          target % isa::kInstrSize != 0) {
        report.add(Rule::kCfTarget, Severity::kError, offset,
                   std::string(flow.is_call ? "call" : "branch") + " target " +
                       hex(target) + " outside the " + std::to_string(image_size) +
                       "-byte image or misaligned");
      } else {
        const auto t = static_cast<std::uint32_t>(target);
        leaders.insert(t);
        worklist.push_back(t);
        if (flow.is_call) {
          call_sites[offset] = t;
        }
      }
    }
    if (flow.falls_through) {
      const std::uint32_t fall = offset + isa::kInstrSize;
      if (fall + isa::kInstrSize > image_size) {
        report.add(Rule::kCfFallOff, Severity::kError, offset,
                   "execution falls off the end of the image after " + hex(offset));
      } else {
        worklist.push_back(fall);
        // Any control transfer ends its block; the fall-through starts one.
        if (flow.target.has_value() || flow.indirect) {
          leaders.insert(fall);
        }
      }
    }
  }

  // Build basic blocks over the reachable code.
  std::uint32_t block_start = kNoOffset;
  const auto close_block = [&](std::uint32_t end) {
    if (block_start == kNoOffset) {
      return;
    }
    BasicBlock block;
    block.start = block_start;
    block.end = end;
    const std::uint32_t last = end - isa::kInstrSize;
    const Flow flow = cfg.flow_at(last);
    block.indirect_exit = flow.indirect;
    if (const auto it = call_sites.find(last); it != call_sites.end()) {
      block.call_target = it->second;
    }
    if (const auto it = indirect_calls.find(last); it != indirect_calls.end()) {
      block.indirect_call_targets = it->second;
    }
    if (const auto it = indirect_jumps.find(last); it != indirect_jumps.end()) {
      for (const std::uint32_t target : it->second) {
        if (cfg.is_code(target)) {
          block.successors.push_back(target);
        }
      }
    }
    if (flow.target.has_value() && !flow.is_call) {
      const std::int64_t target = *flow.target;
      if (target >= 0 && target + isa::kInstrSize <= image_size &&
          cfg.is_code(static_cast<std::uint32_t>(target))) {
        block.successors.push_back(static_cast<std::uint32_t>(target));
      }
    }
    if (flow.falls_through && end + isa::kInstrSize <= image_size &&
        cfg.is_code(end) && cfg.reachable[end / isa::kInstrSize]) {
      block.successors.push_back(end);
    }
    const std::uint32_t key = block.start;
    cfg.blocks.emplace(key, std::move(block));
    block_start = kNoOffset;
  };
  for (std::size_t i = 0; i < n_words; ++i) {
    const auto offset = static_cast<std::uint32_t>(i * isa::kInstrSize);
    const bool code = cfg.reachable[i] && cfg.word_class[i] == WordClass::kCode;
    if (!code) {
      close_block(offset);
      continue;
    }
    if (leaders.contains(offset)) {
      close_block(offset);
    }
    if (block_start == kNoOffset) {
      block_start = offset;
    }
    const Flow flow = cfg.flow_at(offset);
    const bool ends_block = flow.target.has_value() || flow.indirect ||
                            !flow.falls_through;
    if (ends_block) {
      close_block(offset + isa::kInstrSize);
    }
  }
  close_block(static_cast<std::uint32_t>(n_words * isa::kInstrSize));

  // Fall-through into a mid-block offset can only happen when the next
  // offset is a leader, so every successor recorded above is a block start.

  // Call graph: walk each function's intraprocedural blocks.
  cfg.functions.insert(cfg.roots.begin(), cfg.roots.end());
  for (const auto& [site, target] : call_sites) {
    cfg.functions.insert(target);
  }
  for (const auto& [site, targets] : indirect_calls) {
    for (const std::uint32_t target : targets) {
      if (cfg.is_code(target)) {
        cfg.functions.insert(target);
      }
    }
  }
  for (const std::uint32_t fn : cfg.functions) {
    std::set<std::uint32_t>& callees = cfg.call_graph[fn];
    std::set<std::uint32_t> seen;
    std::deque<std::uint32_t> blocks{fn};
    while (!blocks.empty()) {
      const std::uint32_t start = blocks.front();
      blocks.pop_front();
      if (!seen.insert(start).second) {
        continue;
      }
      const auto it = cfg.blocks.find(start);
      if (it == cfg.blocks.end()) {
        continue;
      }
      if (it->second.call_target != kNoOffset) {
        callees.insert(it->second.call_target);
      }
      for (const std::uint32_t callee : it->second.indirect_call_targets) {
        if (cfg.is_code(callee)) {
          callees.insert(callee);
        }
      }
      for (const std::uint32_t succ : it->second.successors) {
        blocks.push_back(succ);
      }
    }
  }
  return cfg;
}

}  // namespace tytan::analysis
