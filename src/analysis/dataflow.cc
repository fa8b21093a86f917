#include "analysis/dataflow.h"

#include <algorithm>
#include <array>
#include <deque>
#include <iterator>
#include <map>
#include <optional>
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
  Engine(const isa::ObjectFile& object, CfgBuilder& builder, const Config& config)
      : object_(object), builder_(builder), config_(config) {
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

  /// Passes until one ends without a ban; each ban restarts from the roots.
  void resolve() {
    do {
      ++result_.passes;
    } while (!pass());
  }

  /// Walk every block once at its final in-state: DF findings and counts.
  DataflowResult emit(Report& report) {
    report_ = &report;
    for (const auto& [start, block] : cfg().blocks) {
      const auto it = nodes_.find(start);
      if (it == nodes_.end()) {
        continue;
      }
      Regs state = it->second.in;
      CmpFact cmp;
      for (std::uint32_t offset = block.start; offset < block.end;
           offset += isa::kInstrSize) {
        const isa::Instruction& instr = *cfg().decoded[offset / isa::kInstrSize];
        if (instr.opcode == isa::Opcode::kJmpr || instr.opcode == isa::Opcode::kCallr) {
          resolve_site(instr, offset, state.r[instr.ra]);
        }
        step(instr, offset, state, cmp, /*certify=*/true);
      }
    }
    return std::move(result_);
  }

 private:
  static constexpr int kWidenAfter = 8;

  /// Per-block fixpoint state; a block has a node once it has an in-state.
  struct Node {
    Regs in;
    int changes = 0;           ///< in-state changes, for widening
    bool queued = false;
    bool reads_table = false;  ///< a load of the last visit read a table word
  };

  [[nodiscard]] const Cfg& cfg() const { return builder_.cfg(); }

  // -- fixpoint ---------------------------------------------------------------

  /// One fixpoint pass from the roots.  False when a spliced site's target
  /// set turned unresolvable: the site is banned and the pass must restart.
  bool pass() {
    nodes_.clear();
    worklist_.clear();
    pending_.clear();
    clobber_all_ = false;
    clobbered_.clear();
    result_.converged = true;
    const CfgBuilder::Growth growth = builder_.start();
    // Widening bounds the join chains, so this budget is a backstop for
    // pathological CFGs only; it grows with the CFG.
    budget_ = static_cast<std::int64_t>(cfg().blocks.size()) * 64 + 512;
    revisit(growth);
    do {
      while (!worklist_.empty()) {
        if (--budget_ < 0) {
          return out_of_budget();
        }
        const std::uint32_t start = worklist_.front();
        worklist_.pop_front();
        if (!visit(start)) {
          return false;
        }
      }
    } while (splice_pending());
    return true;
  }

  /// Step one block from its in-state and push its out-state along every
  /// edge.  False when the block's indirect site had to be banned.
  bool visit(std::uint32_t start) {
    Node& node = nodes_.at(start);
    node.queued = false;
    const BasicBlock& block = cfg().blocks.at(start);
    Regs state = node.in;
    CmpFact cmp;
    read_table_ = false;
    const std::uint64_t clobbers = clobber_count_;
    for (std::uint32_t offset = start; offset < block.end; offset += isa::kInstrSize) {
      step(*cfg().decoded[offset / isa::kInstrSize], offset, state, cmp, /*certify=*/false);
    }
    node.reads_table = read_table_;
    if (clobber_count_ != clobbers) {
      // A table word was clobbered: every load that read one reads again.
      // Clobbers only grow, so these visits are bounded apart from the
      // budget.
      for (auto& [reader, other] : nodes_) {
        if (other.reads_table && !other.queued) {
          enqueue(reader, other);
          ++budget_;
        }
      }
    }
    const std::uint32_t term = block.end - isa::kInstrSize;
    const Flow flow = cfg().flow_at(term);
    if (flow.indirect &&
        !settle_site(term, state.r[cfg().decoded[term / isa::kInstrSize]->ra])) {
      return false;
    }
    for (const std::uint32_t succ : block.successors) {
      if (!cfg().blocks.contains(succ)) {
        continue;
      }
      Regs out = flow.is_call ? Regs::after_call(state) : state;
      if (!flow.is_call) {
        refine_edge(out, cmp, term, flow, succ, block.end);
      }
      merge(succ, out);
    }
    return true;
  }

  /// Compare a site's target set with its splice.  A set that can be
  /// claimed and is not spliced yet waits in `pending_` for the worklist to
  /// drain.  False when the site must be banned: its edges are spliced but
  /// the set is no longer a resolvable superset of them.
  bool settle_site(std::uint32_t site, const ValueSet& target) {
    if (banned_.contains(site)) {
      return true;
    }
    std::optional<std::vector<std::uint32_t>> targets = resolvable(target);
    const auto spliced = cfg().indirect_targets.find(site);
    if (spliced != cfg().indirect_targets.end()) {
      if (!targets.has_value() ||
          !std::includes(targets->begin(), targets->end(), spliced->second.begin(),
                         spliced->second.end())) {
        banned_.insert(site);
        return false;
      }
      if (*targets == spliced->second) {
        pending_.erase(site);
        return true;
      }
    }
    if (targets.has_value()) {
      pending_[site] = std::move(*targets);
    } else {
      pending_.erase(site);
    }
    return true;
  }

  /// The worklist drained: the in-states are a fixpoint of the CFG as it
  /// stands.  Splice every site whose set grew and go on from its block.
  /// False when there is nothing to splice.
  bool splice_pending() {
    if (pending_.empty()) {
      return false;
    }
    const std::size_t blocks = cfg().blocks.size();
    for (auto& [site, targets] : pending_) {
      revisit(builder_.splice(site, std::move(targets)));
    }
    budget_ += static_cast<std::int64_t>(cfg().blocks.size() - blocks) * 64;
    for (const auto& entry : pending_) {
      const std::uint32_t head = std::prev(cfg().blocks.upper_bound(entry.first))->first;
      if (const auto it = nodes_.find(head); it != nodes_.end()) {
        enqueue(head, it->second);
      }
    }
    pending_.clear();
    return true;
  }

  /// Queue what a growth step changed: heads of split blocks (their out-state
  /// must reach the new block) and new function entries.
  void revisit(const CfgBuilder::Growth& growth) {
    for (const std::uint32_t head : growth.split) {
      if (const auto it = nodes_.find(head); it != nodes_.end()) {
        enqueue(head, it->second);
      }
    }
    for (const std::uint32_t fn : growth.entries) {
      if (cfg().blocks.contains(fn)) {
        merge(fn, Regs::entry());
      }
    }
  }

  /// The budget ran out.  Spliced edges rest on claims the pass could not
  /// confirm: ban them and restart.  With nothing spliced, stop unconverged.
  bool out_of_budget() {
    if (cfg().indirect_targets.empty()) {
      result_.converged = false;
      return true;
    }
    for (const auto& [site, targets] : cfg().indirect_targets) {
      banned_.insert(site);
    }
    return false;
  }

  void enqueue(std::uint32_t start, Node& node) {
    if (!node.queued) {
      node.queued = true;
      worklist_.push_back(start);
    }
  }

  /// The targets a site may claim: a bounded base-relative set of valid
  /// image code.  Nullopt when the set cannot be claimed.
  [[nodiscard]] std::optional<std::vector<std::uint32_t>> resolvable(
      const ValueSet& target) const {
    if (target.kind() != ValueSet::Kind::kBaseRel ||
        !target.enumerable(config_.max_indirect_targets)) {
      return std::nullopt;
    }
    std::vector<std::uint32_t> targets;
    for (const std::int64_t t : target.enumerate(config_.max_indirect_targets)) {
      if (!valid_code(t)) {
        return std::nullopt;
      }
      targets.push_back(static_cast<std::uint32_t>(t));
    }
    return targets;
  }

  [[nodiscard]] bool valid_code(std::int64_t t) const {
    return t >= 0 && t % isa::kInstrSize == 0 &&
           t + isa::kInstrSize <= static_cast<std::int64_t>(object_.image.size()) &&
           cfg().decoded[t / isa::kInstrSize].has_value() &&
           cfg().word_class[t / isa::kInstrSize] != WordClass::kData;
  }

  void merge(std::uint32_t block, const Regs& incoming) {
    const auto [it, inserted] = nodes_.try_emplace(block);
    Node& node = it->second;
    if (inserted) {
      node.in = incoming;
      enqueue(block, node);
      return;
    }
    Regs joined;
    for (std::size_t i = 0; i < joined.r.size(); ++i) {
      joined.r[i] = ValueSet::join(node.in.r[i], incoming.r[i]);
    }
    if (joined == node.in) {
      return;
    }
    if (++node.changes > kWidenAfter) {
      // The in-state keeps moving: widen the unstable registers straight to
      // Top so the chain terminates.
      for (std::size_t i = 0; i < joined.r.size(); ++i) {
        if (!(joined.r[i] == node.in.r[i])) {
          joined.r[i] = ValueSet::top();
        }
      }
      if (joined == node.in) {
        return;
      }
    }
    node.in = std::move(joined);
    enqueue(block, node);
  }

  void refine_edge(Regs& out, const CmpFact& cmp, std::uint32_t term,
                   const Flow& flow, std::uint32_t succ, std::uint32_t fall) const {
    if (!cmp.valid() || !flow.target.has_value() ||
        *flow.target == static_cast<std::int64_t>(fall)) {
      return;
    }
    const bool taken = static_cast<std::int64_t>(succ) == *flow.target;
    ValueSet& v = out.r[cmp.reg];
    switch (cfg().decoded[term / isa::kInstrSize]->opcode) {
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

  /// The transfer function.  Fixpoint steps record table clobbers; the
  /// final walk (`certify`) checks accesses against the EA-MPU region.
  void step(const isa::Instruction& in, std::uint32_t offset, Regs& s, CmpFact& cmp,
            bool certify) {
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
        if (certify) {
          check_access(addr, 4, offset, /*is_store=*/false);
        }
        wr(in.rd, load_word(addr));
        break;
      }
      case isa::Opcode::kLdb: {
        const ValueSet addr = r[in.ra].add(in.simm());
        if (certify) {
          check_access(addr, 1, offset, /*is_store=*/false);
        }
        // Bytes are zero-extended: a byte-wide table index is still bounded.
        wr(in.rd, ValueSet::interval(ValueSet::Kind::kConst, 0, 255, 1));
        break;
      }
      case isa::Opcode::kStw:
      case isa::Opcode::kStb: {
        const std::int64_t width = in.opcode == isa::Opcode::kStw ? 4 : 1;
        const ValueSet addr = r[in.ra].add(in.simm());
        if (certify) {
          check_access(addr, width, offset, /*is_store=*/true);
        } else {
          note_store(addr, width);
        }
        break;
      }
      case isa::Opcode::kPush: {
        const ValueSet slot = r[isa::kSpIndex].add(-4);
        if (!certify) {
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
        if (!certify) {
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
  [[nodiscard]] ValueSet load_word(const ValueSet& addr) {
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
    read_table_ = true;
    return value;
  }

  /// A store that may alias a `.word` table demotes the table's loads.
  void note_store(const ValueSet& addr, std::int64_t width) {
    switch (addr.kind()) {
      case ValueSet::Kind::kTop:
      case ValueSet::Kind::kBaseLo:
        clobber_everything();
        break;
      case ValueSet::Kind::kConst:
        // An absolute store can only alias the image if it lands in the RAM
        // the loader places tasks in; device/trusted-window stores cannot.
        if (addr.hi() + width > sim::kRamBase && addr.lo() < sim::kMemSize) {
          clobber_everything();
        }
        break;
      case ValueSet::Kind::kStackRel:
        // In-reservation stack stores are disjoint from the image; a store
        // provably below the reservation could descend into it.
        if (addr.lo() < -static_cast<std::int64_t>(object_.stack_size)) {
          clobber_everything();
        }
        break;
      case ValueSet::Kind::kBaseRel: {
        if (clobber_all_) {
          break;
        }
        // Table words the store may touch: sites in [lo - 3, hi + width - 1].
        const std::int64_t lo = std::max<std::int64_t>(addr.lo() - 3, 0);
        const std::int64_t hi = addr.hi() + width - 1;
        if (hi < lo || lo > std::int64_t{0xFFFF'FFFF}) {
          break;
        }
        for (auto it = abs32_.lower_bound(static_cast<std::uint32_t>(lo));
             it != abs32_.end() && static_cast<std::int64_t>(it->first) <= hi; ++it) {
          if (clobbered_.insert(it->first).second) {
            ++clobber_count_;
          }
        }
        break;
      }
    }
  }

  void clobber_everything() {
    if (!clobber_all_) {
      clobber_all_ = true;
      ++clobber_count_;
    }
  }

  /// Certify a register-relative access against the task's EA-MPU region.
  void check_access(const ValueSet& addr, std::int64_t width, std::uint32_t offset,
                    bool is_store) {
    const char* what = is_store ? "store" : "load";
    if (addr.kind() == ValueSet::Kind::kBaseRel) {
      const std::int64_t lo = addr.lo();
      const std::int64_t hi = addr.hi() + width - 1;
      const auto mem = static_cast<std::int64_t>(object_.memory_size());
      if (lo >= 0 && hi < mem) {
        ++result_.certified_accesses;
      } else if (hi < 0 || lo >= mem) {
        report_->add(Rule::kDfOutOfRegion, Severity::kError, offset,
                     std::string(what) + " at " + hex(offset) + " targets " +
                         addr.to_string() + ", provably outside the task's " +
                         "EA-MPU region [base, base+" + hex(mem) + ")");
      } else {
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

  // -- findings ----------------------------------------------------------------

  void resolve_site(const isa::Instruction& in, std::uint32_t offset,
                    const ValueSet& target) {
    ++result_.indirect_sites;
    const std::string mn(isa::mnemonic(in.opcode));
    const auto df = [&](Rule rule, Severity severity, std::string message) {
      report_->add(rule, severity, offset, std::move(message));
    };
    if (!result_.converged) {
      df(Rule::kDfUnresolved, Severity::kWarning,
         mn + " at " + hex(offset) +
             ": dataflow fixpoint budget exhausted; target not certified");
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
    std::vector<std::uint32_t> good;
    for (const std::int64_t t : target.enumerate(config_.max_indirect_targets)) {
      if (!valid_code(t)) {
        df(Rule::kDfBadTarget, Severity::kError,
           mn + " at " + hex(offset) + ": resolved target " + hex(t) +
               " is not valid image code");
        return;
      }
      good.push_back(static_cast<std::uint32_t>(t));
    }
    if (banned_.contains(offset)) {
      // This set resolves, but splicing its own edges made the site
      // unresolvable (a self-referential table): no claim is sound.
      df(Rule::kDfUnresolved, Severity::kWarning,
         mn + " at " + hex(offset) +
             ": target set does not stabilize across CFG refinement; "
             "resolution withdrawn");
      return;
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
  CfgBuilder& builder_;
  const Config& config_;
  Report* report_ = nullptr;

  std::map<std::uint32_t, std::uint32_t> abs32_;  ///< `.word label` sites
  std::map<std::uint32_t, std::uint32_t> lo16_;
  std::map<std::uint32_t, std::uint32_t> hi16_;

  std::map<std::uint32_t, Node> nodes_;
  std::deque<std::uint32_t> worklist_;
  std::int64_t budget_ = 0;
  std::set<std::uint32_t> banned_;  ///< sites never spliced again
  /// Claimable target sets not spliced yet, spliced when the worklist drains.
  std::map<std::uint32_t, std::vector<std::uint32_t>> pending_;

  bool clobber_all_ = false;
  std::set<std::uint32_t> clobbered_;
  std::uint64_t clobber_count_ = 0;  ///< grows with every new clobber
  bool read_table_ = false;          ///< set by load_word on a table read

  DataflowResult result_;
};

}  // namespace

DataflowResult run_dataflow(const isa::ObjectFile& object, CfgBuilder& builder,
                            const Config& config, Report& report) {
  Engine engine(object, builder, config);
  engine.resolve();
  return engine.emit(report);
}

}  // namespace tytan::analysis
