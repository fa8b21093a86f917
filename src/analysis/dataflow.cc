#include "analysis/dataflow.h"

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <set>

#include "analysis/analyzer.h"
#include "analysis/vsa.h"
#include "sim/memory_map.h"

namespace tytan::analysis {

namespace {

/// One abstract machine state: a value set per GPR.
struct Regs {
  std::array<ValueSet, isa::kNumGprs> r;

  friend bool operator==(const Regs&, const Regs&) = default;

  /// Function-entry state: nothing known except that SP is the entry SP.
  static Regs entry() {
    Regs s;
    s.r[isa::kSpIndex] = ValueSet::stack_rel(0);
    return s;
  }

  /// State after a (direct or resolved) call returns.  Callees are assumed
  /// to balance the stack — the stack pass flags SP-clobbering callees
  /// separately — and every other register is clobbered.
  static Regs after_call(const Regs& before) {
    Regs s;
    s.r[isa::kSpIndex] = before.r[isa::kSpIndex];
    return s;
  }
};

/// Pending `cmp reg, rhs` whose flags a conditional branch may consume.
struct CmpFact {
  int reg = -1;  ///< -1: no usable compare in flight
  std::uint32_t rhs = 0;

  [[nodiscard]] bool valid() const { return reg >= 0; }
};

class Engine {
 public:
  Engine(const isa::ObjectFile& object, const Cfg& cfg, const Config& config,
         Report* report, const std::set<std::uint32_t>* banned)
      : object_(object), cfg_(cfg), config_(config), report_(report),
        banned_(banned) {
    const auto image_size = static_cast<std::uint32_t>(object.image.size());
    for (const isa::Relocation& reloc : object.relocs) {
      if (reloc.offset + 4 > image_size) {
        continue;  // RL004 territory
      }
      switch (reloc.kind) {
        case isa::RelocKind::kAbs32:
          if (reloc.offset % isa::kInstrSize == 0) {
            abs32_.emplace(reloc.offset, reloc.addend);
          }
          break;
        case isa::RelocKind::kLo16:
          lo16_.emplace(reloc.offset, reloc.addend);
          break;
        case isa::RelocKind::kHi16:
          hi16_.emplace(reloc.offset, reloc.addend);
          break;
      }
    }
  }

  DataflowResult run() {
    if (cfg_.blocks.empty()) {
      return result_;
    }
    // The table-clobber set and the fixpoint depend on each other: stores
    // whose addresses the fixpoint bounds may demote table loads, which
    // changes the fixpoint.  The set only grows, so iterate to stability.
    constexpr int kMaxClobberRounds = 4;
    bool stable = false;
    for (int round = 0; round < kMaxClobberRounds && !stable; ++round) {
      fixpoint();
      stable = !replay(/*emit=*/false);
    }
    if (!stable) {
      clobber_all_ = true;
      fixpoint();
    }
    replay(/*emit=*/report_ != nullptr);
    return result_;
  }

 private:
  static constexpr int kWidenAfter = 8;

  // -- fixpoint ---------------------------------------------------------------

  void fixpoint() {
    in_.clear();
    widen_.clear();
    std::deque<std::uint32_t> worklist;
    for (const std::uint32_t fn : cfg_.functions) {
      if (cfg_.blocks.contains(fn)) {
        in_.emplace(fn, Regs::entry());
        worklist.push_back(fn);
      }
    }
    // Widening bounds the join chains, so this budget is a backstop for
    // pathological CFGs only; running out drops every dataflow claim.
    std::int64_t budget = static_cast<std::int64_t>(cfg_.blocks.size()) * 64 + 512;
    while (!worklist.empty()) {
      if (--budget < 0) {
        result_.converged = false;
        return;
      }
      const std::uint32_t start = worklist.front();
      worklist.pop_front();
      const BasicBlock& block = cfg_.blocks.at(start);
      Regs state = in_.at(start);
      CmpFact cmp;
      for (std::uint32_t offset = block.start; offset < block.end;
           offset += isa::kInstrSize) {
        step(*cfg_.decoded[offset / isa::kInstrSize], offset, state, cmp,
             /*record=*/false, /*emit=*/false);
      }
      const std::uint32_t term = block.end - isa::kInstrSize;
      const Flow flow = cfg_.flow_at(term);
      for (const std::uint32_t succ : block.successors) {
        if (!cfg_.blocks.contains(succ)) {
          continue;
        }
        Regs out = flow.is_call ? Regs::after_call(state) : state;
        if (!flow.is_call) {
          refine_edge(out, cmp, term, flow, succ, block.end);
        }
        merge(succ, out, worklist);
      }
    }
  }

  void merge(std::uint32_t block, const Regs& incoming,
             std::deque<std::uint32_t>& worklist) {
    const auto it = in_.find(block);
    if (it == in_.end()) {
      in_.emplace(block, incoming);
      worklist.push_back(block);
      return;
    }
    Regs joined;
    for (std::size_t i = 0; i < joined.r.size(); ++i) {
      joined.r[i] = ValueSet::join(it->second.r[i], incoming.r[i]);
    }
    if (joined == it->second) {
      return;
    }
    if (++widen_[block] > kWidenAfter) {
      // The in-state keeps moving: widen the unstable registers straight to
      // Top so the chain terminates.
      for (std::size_t i = 0; i < joined.r.size(); ++i) {
        if (!(joined.r[i] == it->second.r[i])) {
          joined.r[i] = ValueSet::top();
        }
      }
      if (joined == it->second) {
        return;
      }
    }
    it->second = joined;
    worklist.push_back(block);
  }

  void refine_edge(Regs& out, const CmpFact& cmp, std::uint32_t term,
                   const Flow& flow, std::uint32_t succ, std::uint32_t fall) const {
    if (!cmp.valid() || !flow.target.has_value() ||
        *flow.target == static_cast<std::int64_t>(fall)) {
      return;
    }
    const bool taken = static_cast<std::int64_t>(succ) == *flow.target;
    ValueSet& v = out.r[cmp.reg];
    switch (cfg_.decoded[term / isa::kInstrSize]->opcode) {
      case isa::Opcode::kJc:  // unsigned below after cmp
        v = taken ? v.refine_below(cmp.rhs) : v.refine_at_least(cmp.rhs);
        break;
      case isa::Opcode::kJnc:
        v = taken ? v.refine_at_least(cmp.rhs) : v.refine_below(cmp.rhs);
        break;
      case isa::Opcode::kJz:
        if (taken) {
          v = v.refine_eq(cmp.rhs);
        }
        break;
      case isa::Opcode::kJnz:
        if (!taken) {
          v = v.refine_eq(cmp.rhs);
        }
        break;
      default:
        break;  // jlt/jge are signed; no sound constant refinement modeled
    }
  }

  // -- transfer function ------------------------------------------------------

  void step(const isa::Instruction& in, std::uint32_t offset, Regs& s, CmpFact& cmp,
            bool record, bool emit) {
    auto& r = s.r;
    const auto wr = [&](unsigned rd, ValueSet v) {
      r[rd] = std::move(v);
      if (cmp.reg == static_cast<int>(rd)) {
        cmp.reg = -1;
      }
    };
    const auto flags_clobbered = [&] { cmp.reg = -1; };
    switch (in.opcode) {
      case isa::Opcode::kMov:
        wr(in.rd, r[in.ra]);
        break;
      case isa::Opcode::kMovi:
        wr(in.rd, ValueSet::constant(static_cast<std::uint32_t>(in.simm())));
        break;
      case isa::Opcode::kMoviu: {
        const auto lo = lo16_.find(offset);
        wr(in.rd, lo != lo16_.end() ? ValueSet::base_lo(lo->second)
                                    : ValueSet::constant(in.imm));
        break;
      }
      case isa::Opcode::kMovhi: {
        const auto hi = hi16_.find(offset);
        wr(in.rd, hi != hi16_.end() ? r[in.rd].movhi_reloc(hi->second)
                                    : r[in.rd].movhi_const(in.imm));
        break;
      }
      case isa::Opcode::kAdd:
        wr(in.rd, ValueSet::add(r[in.rd], r[in.ra]));
        flags_clobbered();
        break;
      case isa::Opcode::kAddi:
        wr(in.rd, r[in.rd].add(in.simm()));
        flags_clobbered();
        break;
      case isa::Opcode::kSub:
        wr(in.rd, ValueSet::sub(r[in.rd], r[in.ra]));
        flags_clobbered();
        break;
      case isa::Opcode::kSubi:
        wr(in.rd, r[in.rd].add(-static_cast<std::int64_t>(in.simm())));
        flags_clobbered();
        break;
      case isa::Opcode::kCmp:
        cmp = r[in.ra].singleton() && r[in.ra].kind() == ValueSet::Kind::kConst
                  ? CmpFact{in.rd, static_cast<std::uint32_t>(r[in.ra].lo())}
                  : CmpFact{};
        break;
      case isa::Opcode::kCmpi:
        cmp = CmpFact{in.rd, static_cast<std::uint32_t>(in.simm())};
        break;
      case isa::Opcode::kAnd:
        wr(in.rd, r[in.ra].singleton() && r[in.ra].kind() == ValueSet::Kind::kConst
                      ? r[in.rd].and_mask(static_cast<std::uint32_t>(r[in.ra].lo()))
                      : ValueSet::top());
        flags_clobbered();
        break;
      case isa::Opcode::kAndi:
        wr(in.rd, r[in.rd].and_mask(in.imm));
        flags_clobbered();
        break;
      case isa::Opcode::kOri:
        wr(in.rd, r[in.rd].or_mask(in.imm));
        flags_clobbered();
        break;
      case isa::Opcode::kShli:
        wr(in.rd, r[in.rd].shl(in.imm & 31u));
        flags_clobbered();
        break;
      case isa::Opcode::kShri:
        wr(in.rd, r[in.rd].shr(in.imm & 31u));
        flags_clobbered();
        break;
      case isa::Opcode::kOr:
      case isa::Opcode::kXor:
      case isa::Opcode::kShl:
      case isa::Opcode::kShr:
      case isa::Opcode::kMul:
        wr(in.rd, ValueSet::top());
        flags_clobbered();
        break;
      case isa::Opcode::kLdw: {
        const ValueSet addr = r[in.ra].add(in.simm());
        if (record) {
          check_access(addr, 4, offset, /*is_store=*/false, emit);
        }
        wr(in.rd, load_word(addr));
        break;
      }
      case isa::Opcode::kLdb: {
        const ValueSet addr = r[in.ra].add(in.simm());
        if (record) {
          check_access(addr, 1, offset, /*is_store=*/false, emit);
        }
        // Bytes are zero-extended: a byte-wide table index is still bounded.
        wr(in.rd, ValueSet::interval(ValueSet::Kind::kConst, 0, 255, 1));
        break;
      }
      case isa::Opcode::kStw:
      case isa::Opcode::kStb: {
        const std::int64_t width = in.opcode == isa::Opcode::kStw ? 4 : 1;
        const ValueSet addr = r[in.ra].add(in.simm());
        if (record) {
          check_access(addr, width, offset, /*is_store=*/true, emit);
          note_store(addr, width);
        }
        break;
      }
      case isa::Opcode::kPush: {
        const ValueSet slot = r[isa::kSpIndex].add(-4);
        if (record) {
          note_store(slot, 4);
        }
        r[isa::kSpIndex] = slot;
        if (cmp.reg == static_cast<int>(isa::kSpIndex)) {
          cmp.reg = -1;
        }
        break;
      }
      case isa::Opcode::kPop:
        if (in.rd == isa::kSpIndex) {
          wr(in.rd, ValueSet::top());
        } else {
          wr(in.rd, ValueSet::top());
          r[isa::kSpIndex] = r[isa::kSpIndex].add(4);
        }
        break;
      case isa::Opcode::kCall:
      case isa::Opcode::kCallr:
        // The return-address push; the post-call register state is built by
        // the edge propagation (Regs::after_call).
        if (record) {
          note_store(r[isa::kSpIndex].add(-4), 4);
        }
        break;
      case isa::Opcode::kInt:
        // Syscalls return values in the low registers and may trash flags.
        for (unsigned reg = 0; reg < 4; ++reg) {
          wr(reg, ValueSet::top());
        }
        flags_clobbered();
        break;
      case isa::Opcode::kRdcyc:
        wr(in.rd, ValueSet::top());
        break;
      default:
        break;  // nop/hlt/cli/sti/branches/ret/iret: no register effect
    }
  }

  // -- memory modelling -------------------------------------------------------

  /// Value of a 32-bit load: resolvable only through unclobbered `.word
  /// label` (ABS32) sites — everything else in memory is mutable or unknown.
  [[nodiscard]] ValueSet load_word(const ValueSet& addr) const {
    if (addr.kind() != ValueSet::Kind::kBaseRel ||
        !addr.enumerable(config_.max_indirect_targets)) {
      return ValueSet::top();
    }
    const auto image_size = static_cast<std::int64_t>(object_.image.size());
    ValueSet value = ValueSet::top();
    bool first = true;
    for (const std::int64_t a : addr.enumerate(config_.max_indirect_targets)) {
      if (a < 0 || a % isa::kInstrSize != 0 || a + 4 > image_size) {
        return ValueSet::top();
      }
      const auto it = abs32_.find(static_cast<std::uint32_t>(a));
      if (it == abs32_.end() || clobber_all_ ||
          clobbered_.contains(static_cast<std::uint32_t>(a))) {
        return ValueSet::top();
      }
      const ValueSet entry = ValueSet::base_rel(it->second);
      value = first ? entry : ValueSet::join(value, entry);
      first = false;
    }
    return value;
  }

  /// A store that may alias a `.word` table demotes the table's loads.
  void note_store(const ValueSet& addr, std::int64_t width) {
    switch (addr.kind()) {
      case ValueSet::Kind::kTop:
      case ValueSet::Kind::kBaseLo:
        pending_clobber_all_ = true;
        break;
      case ValueSet::Kind::kConst:
        // An absolute store can only alias the image if it lands in the RAM
        // the loader places tasks in; device/trusted-window stores cannot.
        if (addr.hi() + width > sim::kRamBase && addr.lo() < sim::kMemSize) {
          pending_clobber_all_ = true;
        }
        break;
      case ValueSet::Kind::kStackRel:
        // In-reservation stack stores are disjoint from the image; a store
        // provably below the reservation could descend into it.
        if (addr.lo() < -static_cast<std::int64_t>(object_.stack_size)) {
          pending_clobber_all_ = true;
        }
        break;
      case ValueSet::Kind::kBaseRel: {
        const std::int64_t lo = addr.lo();
        const std::int64_t hi = addr.hi() + width - 1;
        for (const auto& [site, addend] : abs32_) {
          if (static_cast<std::int64_t>(site) + 3 >= lo &&
              static_cast<std::int64_t>(site) <= hi) {
            pending_clobbered_.insert(site);
          }
        }
        break;
      }
    }
  }

  /// Certify a register-relative access against the task's EA-MPU region.
  void check_access(const ValueSet& addr, std::int64_t width, std::uint32_t offset,
                    bool is_store, bool emit) {
    const char* what = is_store ? "store" : "load";
    if (addr.kind() == ValueSet::Kind::kBaseRel) {
      const std::int64_t lo = addr.lo();
      const std::int64_t hi = addr.hi() + width - 1;
      const auto mem = static_cast<std::int64_t>(object_.memory_size());
      if (lo >= 0 && hi < mem) {
        ++result_.certified_accesses;
      } else if (hi < 0 || lo >= mem) {
        if (emit) {
          report_->add(Rule::kDfOutOfRegion, Severity::kError, offset,
                       std::string(what) + " at " + hex(offset) + " targets " +
                           addr.to_string() + ", provably outside the task's " +
                           "EA-MPU region [base, base+" + hex(mem) + ")");
        }
      } else if (emit) {
        report_->add(Rule::kDfMayEscape, Severity::kWarning, offset,
                     std::string(what) + " at " + hex(offset) + " targets " +
                         addr.to_string() + ", which may fall outside the " +
                         "task's EA-MPU region [base, base+" + hex(mem) + ")");
      }
    } else if (addr.kind() == ValueSet::Kind::kStackRel) {
      const std::int64_t lo = addr.lo();
      const std::int64_t hi = addr.hi() + width - 1;
      if (lo >= -static_cast<std::int64_t>(object_.stack_size) && hi < 0) {
        ++result_.certified_accesses;  // inside the stack reservation
      }
      // Depth violations are the stack pass's claim (ST001), not ours.
    }
  }

  // -- replay: clobber collection, site resolution, findings ------------------

  /// Walk every block once at the converged in-states.  Returns true when
  /// new table clobbers were discovered (the fixpoint must rerun).
  bool replay(bool emit) {
    result_.resolved.clear();
    result_.indirect_sites = 0;
    result_.certified_accesses = 0;
    pending_clobber_all_ = clobber_all_;
    pending_clobbered_ = clobbered_;
    for (const auto& [start, block] : cfg_.blocks) {
      const auto it = in_.find(start);
      if (it == in_.end()) {
        continue;
      }
      Regs state = it->second;
      CmpFact cmp;
      for (std::uint32_t offset = block.start; offset < block.end;
           offset += isa::kInstrSize) {
        const isa::Instruction& instr = *cfg_.decoded[offset / isa::kInstrSize];
        if (instr.opcode == isa::Opcode::kJmpr ||
            instr.opcode == isa::Opcode::kCallr) {
          resolve_site(instr, offset, state.r[instr.ra], emit);
        }
        step(instr, offset, state, cmp, /*record=*/true, emit);
      }
    }
    const bool grew = pending_clobber_all_ != clobber_all_ ||
                      pending_clobbered_ != clobbered_;
    clobber_all_ = pending_clobber_all_;
    clobbered_ = pending_clobbered_;
    return grew;
  }

  void resolve_site(const isa::Instruction& in, std::uint32_t offset,
                    const ValueSet& target, bool emit) {
    ++result_.indirect_sites;
    const std::string mn(isa::mnemonic(in.opcode));
    const auto df = [&](Rule rule, Severity severity, std::string message) {
      if (emit) {
        report_->add(rule, severity, offset, std::move(message));
      }
    };
    if (!result_.converged) {
      df(Rule::kDfUnresolved, Severity::kWarning,
         mn + " at " + hex(offset) +
             ": dataflow fixpoint budget exhausted; target not certified");
      return;
    }
    if (banned_ != nullptr && banned_->count(offset) != 0) {
      // The analyzer withdrew this site: its resolution did not survive
      // splicing its own edges into the CFG (a self-referential table),
      // so no claim is sound.
      df(Rule::kDfUnresolved, Severity::kWarning,
         mn + " at " + hex(offset) +
             ": target set does not stabilize across CFG refinement; "
             "resolution withdrawn");
      return;
    }
    switch (target.kind()) {
      case ValueSet::Kind::kStackRel:
        df(Rule::kDfBadTarget, Severity::kError,
           mn + " at " + hex(offset) + ": target " + target.to_string() +
               " lies in the stack, not in image code");
        return;
      case ValueSet::Kind::kConst:
        df(Rule::kDfUnresolved, Severity::kWarning,
           mn + " at " + hex(offset) + ": target " + target.to_string() +
               " is an absolute address; image code is load-base-relative "
               "and cannot be certified");
        return;
      case ValueSet::Kind::kTop:
      case ValueSet::Kind::kBaseLo:
        df(Rule::kDfUnresolved, Severity::kWarning,
           mn + " at " + hex(offset) +
               ": indirect target is not statically bounded");
        return;
      case ValueSet::Kind::kBaseRel:
        break;
    }
    if (!target.enumerable(config_.max_indirect_targets)) {
      df(Rule::kDfUnresolved, Severity::kWarning,
         mn + " at " + hex(offset) + ": target set " + target.to_string() +
             " exceeds " + std::to_string(config_.max_indirect_targets) +
             " candidates");
      return;
    }
    const auto image_size = static_cast<std::int64_t>(object_.image.size());
    std::vector<std::uint32_t> good;
    for (const std::int64_t t : target.enumerate(config_.max_indirect_targets)) {
      const bool valid = t >= 0 && t % isa::kInstrSize == 0 &&
                         t + isa::kInstrSize <= image_size &&
                         cfg_.decoded[t / isa::kInstrSize].has_value() &&
                         cfg_.word_class[t / isa::kInstrSize] != WordClass::kData;
      if (!valid) {
        df(Rule::kDfBadTarget, Severity::kError,
           mn + " at " + hex(offset) + ": resolved target " + hex(t) +
               " is not valid image code");
        return;
      }
      good.push_back(static_cast<std::uint32_t>(t));
    }
    std::string list;
    for (std::size_t i = 0; i < good.size(); ++i) {
      if (i == 8) {
        list += ", …";
        break;
      }
      list += (i == 0 ? "" : ", ") + hex(good[i]);
    }
    df(Rule::kDfResolved, Severity::kInfo,
       mn + " at " + hex(offset) + ": resolved to " +
           std::to_string(good.size()) + " target(s): " + list);
    result_.resolved.emplace(offset, std::move(good));
  }

  const isa::ObjectFile& object_;
  const Cfg& cfg_;
  const Config& config_;
  Report* report_;
  const std::set<std::uint32_t>* banned_;

  std::map<std::uint32_t, std::uint32_t> abs32_;  ///< `.word label` sites
  std::map<std::uint32_t, std::uint32_t> lo16_;
  std::map<std::uint32_t, std::uint32_t> hi16_;

  std::map<std::uint32_t, Regs> in_;
  std::map<std::uint32_t, int> widen_;

  bool clobber_all_ = false;
  std::set<std::uint32_t> clobbered_;
  bool pending_clobber_all_ = false;
  std::set<std::uint32_t> pending_clobbered_;

  DataflowResult result_;
};

}  // namespace

DataflowResult run_dataflow(const isa::ObjectFile& object, const Cfg& cfg,
                            const Config& config, Report* report,
                            const std::set<std::uint32_t>* banned) {
  Engine engine(object, cfg, config, report, banned);
  return engine.run();
}

}  // namespace tytan::analysis
