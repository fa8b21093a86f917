#include "analysis/cfg.h"

#include <algorithm>
#include <deque>
#include <iterator>
#include <sstream>

#include "common/bytes.h"
#include "common/status.h"
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
  switch (isa::opcode_info(instr.opcode).flow) {
    case isa::FlowClass::kNext:
      break;
    case isa::FlowClass::kCondBranch:
      flow.target = relative();
      break;
    case isa::FlowClass::kJump:
      flow.target = relative();
      flow.falls_through = false;
      break;
    case isa::FlowClass::kCall:
      flow.target = relative();
      flow.is_call = true;
      break;
    case isa::FlowClass::kJumpReg:
      flow.indirect = true;
      flow.falls_through = false;
      break;
    case isa::FlowClass::kCallReg:
      flow.indirect = true;
      flow.is_call = true;
      break;
    case isa::FlowClass::kInt:
      flow.falls_through = !terminal_int;
      break;
    case isa::FlowClass::kStop:
      flow.falls_through = false;
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

DecodedWords decode_image(const isa::ObjectFile& object) {
  DecodedWords decoded(object.image.size() / isa::kInstrSize);
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    decoded[i] = isa::decode(load_le32(object.image.data() + i * isa::kInstrSize));
  }
  return decoded;
}

CfgBuilder::CfgBuilder(const isa::ObjectFile& object, DecodedWords decoded)
    : object_(object) {
  const auto image_size = static_cast<std::uint32_t>(object.image.size());
  const std::size_t n_words = image_size / isa::kInstrSize;
  TYTAN_CHECK(decoded.size() == n_words, "CfgBuilder: decoded words of another image");
  cfg_.decoded = std::move(decoded);
  cfg_.terminal_int.assign(n_words, false);
  for (std::size_t i = 0; i < n_words; ++i) {
    if (cfg_.decoded[i].has_value()) {
      cfg_.terminal_int[i] = int_is_terminal(cfg_, i);
    }
  }

  // `.word label` sites are data by construction: ABS32 relocations patch the
  // full word, so an ABS32 site can never be an instruction.
  initial_class_.assign(n_words, WordClass::kUnknown);
  for (const isa::Relocation& reloc : object.relocs) {
    if (reloc.kind != isa::RelocKind::kAbs32) {
      continue;
    }
    for (std::uint32_t byte = reloc.offset; byte < reloc.offset + 4; ++byte) {
      if (byte / isa::kInstrSize < n_words) {
        initial_class_[byte / isa::kInstrSize] = WordClass::kData;
      }
    }
  }

  // Validate the roots.
  const auto add_root = [&](std::uint32_t offset, std::string_view what) {
    std::string why;
    const std::size_t index = offset / isa::kInstrSize;
    if (offset % isa::kInstrSize != 0) {
      why = "not instruction-aligned";
    } else if (offset + isa::kInstrSize > image_size) {
      why = "outside the " + std::to_string(image_size) + "-byte image";
    } else if (initial_class_[index] == WordClass::kData) {
      why = "points at relocated data";
    } else if (!cfg_.decoded[index].has_value()) {
      why = "does not decode";
    } else {
      cfg_.roots.push_back(offset);
      return;
    }
    root_findings_.push_back({Rule::kCfEntry, Severity::kError, offset,
                              std::string(what) + " offset " + hex(offset) + " " + why});
  };
  add_root(object.entry, "entry");
  if (object.msg_handler != 0 && object.msg_handler != object.entry) {
    add_root(object.msg_handler, "msg-handler");
  }
}

bool CfgBuilder::in_image(std::int64_t target) const {
  return target >= 0 && target % isa::kInstrSize == 0 &&
         target + isa::kInstrSize <= static_cast<std::int64_t>(object_.image.size());
}

CfgBuilder::Growth CfgBuilder::start(const ResolvedTargets& resolved) {
  cfg_.word_class = initial_class_;
  cfg_.reachable.assign(initial_class_.size(), false);
  leader_.assign(initial_class_.size(), false);
  cfg_.blocks.clear();
  cfg_.functions.clear();
  cfg_.indirect_targets = resolved;

  Growth growth;
  for (const std::uint32_t root : cfg_.roots) {
    mark_leader(root);
    worklist_.push_back(root);
    if (cfg_.functions.insert(root).second) {
      growth.entries.push_back(root);
    }
  }
  explore(growth);
  for (const auto& [site, targets] : cfg_.indirect_targets) {
    add_indirect_entries(site, growth);
  }
  build_blocks(growth);
  std::sort(growth.entries.begin(), growth.entries.end());
  return growth;
}

CfgBuilder::Growth CfgBuilder::splice(std::uint32_t site, std::vector<std::uint32_t> targets) {
  Growth growth;
  for (const std::uint32_t target : targets) {
    if (in_image(target)) {
      mark_leader(target);
      worklist_.push_back(target);
    }
  }
  cfg_.indirect_targets[site] = std::move(targets);
  explore(growth);
  add_indirect_entries(site, growth);
  build_blocks(growth);
  // The site's own block gains the new edges.
  auto block = std::prev(cfg_.blocks.upper_bound(site));
  block->second = make_block(block->first, block->second.end);
  std::sort(growth.entries.begin(), growth.entries.end());
  return growth;
}

void CfgBuilder::mark_leader(std::uint32_t offset) {
  const std::size_t index = offset / isa::kInstrSize;
  if (!leader_[index]) {
    leader_[index] = true;
    new_leaders_.push_back(offset);
  }
}

/// Resolved callees of a reachable `callr` site are function entries.
void CfgBuilder::add_indirect_entries(std::uint32_t site, Growth& growth) {
  if (!cfg_.is_code(site) || !cfg_.flow_at(site).is_call) {
    return;
  }
  for (const std::uint32_t target : cfg_.indirect_targets.at(site)) {
    if (in_image(target) && cfg_.is_code(target) && cfg_.functions.insert(target).second) {
      growth.entries.push_back(target);
    }
  }
}

/// Reachability traversal from the queued offsets.
void CfgBuilder::explore(Growth& growth) {
  const auto image_size = static_cast<std::uint32_t>(object_.image.size());
  while (!worklist_.empty()) {
    const std::uint32_t offset = worklist_.back();
    worklist_.pop_back();
    const std::size_t index = offset / isa::kInstrSize;
    if (cfg_.reachable[index]) {
      continue;
    }
    cfg_.reachable[index] = true;
    if (cfg_.word_class[index] == WordClass::kData || !cfg_.decoded[index].has_value()) {
      continue;  // CF005 / CF003, reported by finish()
    }
    cfg_.word_class[index] = WordClass::kCode;
    const Flow flow = cfg_.flow_at(offset);
    if (flow.indirect) {
      if (const auto it = cfg_.indirect_targets.find(offset);
          it != cfg_.indirect_targets.end()) {
        for (const std::uint32_t target : it->second) {
          if (in_image(target)) {
            mark_leader(target);
            worklist_.push_back(target);
          }
        }
      }
    }
    if (flow.target.has_value() && in_image(*flow.target)) {
      const auto target = static_cast<std::uint32_t>(*flow.target);
      mark_leader(target);
      worklist_.push_back(target);
      if (flow.is_call && cfg_.functions.insert(target).second) {
        growth.entries.push_back(target);
      }
    }
    if (flow.falls_through && offset + 2 * isa::kInstrSize <= image_size) {
      const std::uint32_t fall = offset + isa::kInstrSize;
      worklist_.push_back(fall);
      // Any control transfer ends its block; the fall-through starts one.
      if (flow.target.has_value() || flow.indirect) {
        mark_leader(fall);
      }
    }
  }
}

/// Every block starts at a leader: a new leader inside a block splits it,
/// and a new leader in newly reached code starts a new block.
void CfgBuilder::build_blocks(Growth& growth) {
  std::sort(new_leaders_.begin(), new_leaders_.end());
  for (const std::uint32_t leader : new_leaders_) {
    if (!cfg_.is_code(leader)) {
      continue;
    }
    auto next = cfg_.blocks.upper_bound(leader);
    if (next != cfg_.blocks.begin()) {
      BasicBlock& before = std::prev(next)->second;
      if (before.start < leader && leader < before.end) {
        const std::uint32_t end = before.end;
        before = make_block(before.start, leader);
        cfg_.blocks.emplace(leader, make_block(leader, end));
        growth.split.push_back(before.start);
        continue;
      }
    }
    cfg_.blocks.emplace(leader, make_block(leader, block_end(leader)));
  }
  new_leaders_.clear();
}

/// A block runs over reachable code up to the next leader, the first
/// control transfer, or the first word that is not code.
std::uint32_t CfgBuilder::block_end(std::uint32_t start) const {
  for (std::uint32_t offset = start;; offset += isa::kInstrSize) {
    const Flow flow = cfg_.flow_at(offset);
    const std::uint32_t next = offset + isa::kInstrSize;
    if (flow.target.has_value() || flow.indirect || !flow.falls_through ||
        !cfg_.is_code(next) || leader_[next / isa::kInstrSize]) {
      return next;
    }
  }
}

BasicBlock CfgBuilder::make_block(std::uint32_t start, std::uint32_t end) const {
  BasicBlock block;
  block.start = start;
  block.end = end;
  const std::uint32_t last = end - isa::kInstrSize;
  const Flow flow = cfg_.flow_at(last);
  block.indirect_exit = flow.indirect;
  if (flow.is_call && flow.target.has_value() && in_image(*flow.target)) {
    block.call_target = static_cast<std::uint32_t>(*flow.target);
  }
  if (flow.indirect) {
    if (const auto it = cfg_.indirect_targets.find(last); it != cfg_.indirect_targets.end()) {
      for (const std::uint32_t target : it->second) {
        if (!in_image(target)) {
          continue;
        }
        if (flow.is_call) {
          block.indirect_call_targets.push_back(target);
        } else if (cfg_.is_code(target)) {
          block.successors.push_back(target);
        }
      }
    }
  }
  if (flow.target.has_value() && !flow.is_call && in_image(*flow.target) &&
      cfg_.is_code(static_cast<std::uint32_t>(*flow.target))) {
    block.successors.push_back(static_cast<std::uint32_t>(*flow.target));
  }
  if (flow.falls_through && cfg_.is_code(end)) {
    block.successors.push_back(end);
  }
  return block;
}

Cfg CfgBuilder::finish(Report& report) {
  const auto image_size = static_cast<std::uint32_t>(object_.image.size());
  for (const Finding& finding : root_findings_) {
    report.add(finding.rule, finding.severity, finding.offset, finding.message);
  }
  for (std::size_t index = 0; index < cfg_.reachable.size(); ++index) {
    if (!cfg_.reachable[index]) {
      continue;
    }
    const auto offset = static_cast<std::uint32_t>(index * isa::kInstrSize);
    if (cfg_.word_class[index] == WordClass::kData) {
      report.add(Rule::kCfDataExec, Severity::kError, offset,
                 "execution reaches relocated data at " + hex(offset));
      continue;
    }
    if (!cfg_.decoded[index].has_value()) {
      std::ostringstream word;
      word << std::hex << load_le32(object_.image.data() + offset);
      report.add(Rule::kCfUndecodable, Severity::kError, offset,
                 "reachable word " + hex(offset) + " does not decode (0x" + word.str() + ")");
      continue;
    }
    const Flow flow = cfg_.flow_at(offset);
    if (flow.target.has_value() && !in_image(*flow.target)) {
      report.add(Rule::kCfTarget, Severity::kError, offset,
                 std::string(flow.is_call ? "call" : "branch") + " target " +
                     hex(*flow.target) + " outside the " + std::to_string(image_size) +
                     "-byte image or misaligned");
    }
    if (flow.falls_through && offset + 2 * isa::kInstrSize > image_size) {
      report.add(Rule::kCfFallOff, Severity::kError, offset,
                 "execution falls off the end of the image after " + hex(offset));
    }
  }

  // Call graph: walk each function's intraprocedural blocks.
  for (const std::uint32_t fn : cfg_.functions) {
    std::set<std::uint32_t>& callees = cfg_.call_graph[fn];
    std::set<std::uint32_t> seen;
    std::deque<std::uint32_t> blocks{fn};
    while (!blocks.empty()) {
      const std::uint32_t start = blocks.front();
      blocks.pop_front();
      if (!seen.insert(start).second) {
        continue;
      }
      const auto it = cfg_.blocks.find(start);
      if (it == cfg_.blocks.end()) {
        continue;
      }
      if (it->second.call_target != kNoOffset) {
        callees.insert(it->second.call_target);
      }
      for (const std::uint32_t callee : it->second.indirect_call_targets) {
        if (cfg_.is_code(callee)) {
          callees.insert(callee);
        }
      }
      for (const std::uint32_t succ : it->second.successors) {
        blocks.push_back(succ);
      }
    }
  }
  return std::move(cfg_);
}

Cfg recover_cfg(const isa::ObjectFile& object, DecodedWords decoded, Report& report,
                const ResolvedTargets& resolved) {
  CfgBuilder builder(object, std::move(decoded));
  builder.start(resolved);
  return builder.finish(report);
}

}  // namespace tytan::analysis
