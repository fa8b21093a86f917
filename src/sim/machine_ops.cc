// Per-opcode handlers of the Peak-32 interpreter, factored out of the former
// Machine::execute_op switch into the OpVariant function-pointer table
// (sim/decode_cache.h).  Both dispatch modes — the plain interpreter and the
// decoded basic-block cache — invoke exactly these functions, so there is a
// single implementation per opcode and the modes cannot diverge.
//
// Conventions every handler inherits from the old switch:
//   * on entry cpu_.eip == op.pc + 4 (execute_op set the fall-through);
//   * a transferring handler sets cpu_.eip = op.pc *before* the transfer
//     check so a denied transfer faults at the branching instruction;
//   * load/store/push/pop recovery keeps EIP at the faulting instruction
//     unless raise_fault() redirected it into the fault handler — tracked
//     explicitly in Machine::fault_eip_redirected_ (comparing EIP against
//     `next` broke when the handler happened to live at `next`).
#include "sim/decode_cache.h"
#include "sim/machine.h"

namespace tytan::sim {

using isa::Opcode;

struct MachineOps {
  static void nop(Machine&, const DecodedOp&) {}

  static void mov(Machine& m, const DecodedOp& op) {
    m.cpu_.regs[op.instr.rd] = m.cpu_.regs[op.instr.ra];
  }

  static void movi(Machine& m, const DecodedOp& op) {
    m.cpu_.regs[op.instr.rd] = static_cast<std::uint32_t>(op.instr.simm());
  }

  static void moviu(Machine& m, const DecodedOp& op) {
    m.cpu_.regs[op.instr.rd] = op.instr.imm;
  }

  static void movhi(Machine& m, const DecodedOp& op) {
    m.cpu_.regs[op.instr.rd] = (m.cpu_.regs[op.instr.rd] & 0xFFFFu) |
                               (static_cast<std::uint32_t>(op.instr.imm) << 16);
  }

  static void add(Machine& m, const DecodedOp& op) {
    const std::uint32_t a = m.cpu_.regs[op.instr.rd];
    const std::uint32_t b = op.instr.opcode == Opcode::kAdd
                                ? m.cpu_.regs[op.instr.ra]
                                : static_cast<std::uint32_t>(op.instr.simm());
    const std::uint64_t wide = static_cast<std::uint64_t>(a) + b;
    const auto result = static_cast<std::uint32_t>(wide);
    m.set_alu_flags_addsub(wide, a, b, result, /*is_sub=*/false);
    m.cpu_.regs[op.instr.rd] = result;
  }

  static void sub(Machine& m, const DecodedOp& op) {
    const std::uint32_t a = m.cpu_.regs[op.instr.rd];
    const std::uint32_t b =
        (op.instr.opcode == Opcode::kSub || op.instr.opcode == Opcode::kCmp)
            ? m.cpu_.regs[op.instr.ra]
            : static_cast<std::uint32_t>(op.instr.simm());
    const std::uint64_t wide =
        static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b);
    const auto result = static_cast<std::uint32_t>(wide);
    m.set_alu_flags_addsub(wide, a, b, result, /*is_sub=*/true);
    if (op.instr.opcode == Opcode::kSub || op.instr.opcode == Opcode::kSubi) {
      m.cpu_.regs[op.instr.rd] = result;
    }
  }

  static void and_r(Machine& m, const DecodedOp& op) {
    m.cpu_.regs[op.instr.rd] &= m.cpu_.regs[op.instr.ra];
    m.set_alu_flags_logic(m.cpu_.regs[op.instr.rd]);
  }

  static void and_i(Machine& m, const DecodedOp& op) {
    m.cpu_.regs[op.instr.rd] &= op.instr.imm;
    m.set_alu_flags_logic(m.cpu_.regs[op.instr.rd]);
  }

  static void or_r(Machine& m, const DecodedOp& op) {
    m.cpu_.regs[op.instr.rd] |= m.cpu_.regs[op.instr.ra];
    m.set_alu_flags_logic(m.cpu_.regs[op.instr.rd]);
  }

  static void or_i(Machine& m, const DecodedOp& op) {
    m.cpu_.regs[op.instr.rd] |= op.instr.imm;
    m.set_alu_flags_logic(m.cpu_.regs[op.instr.rd]);
  }

  static void xor_r(Machine& m, const DecodedOp& op) {
    m.cpu_.regs[op.instr.rd] ^= m.cpu_.regs[op.instr.ra];
    m.set_alu_flags_logic(m.cpu_.regs[op.instr.rd]);
  }

  static void shl_r(Machine& m, const DecodedOp& op) {
    m.cpu_.regs[op.instr.rd] <<= (m.cpu_.regs[op.instr.ra] & 31u);
    m.set_alu_flags_logic(m.cpu_.regs[op.instr.rd]);
  }

  static void shl_i(Machine& m, const DecodedOp& op) {
    m.cpu_.regs[op.instr.rd] <<= (op.instr.imm & 31u);
    m.set_alu_flags_logic(m.cpu_.regs[op.instr.rd]);
  }

  static void shr_r(Machine& m, const DecodedOp& op) {
    m.cpu_.regs[op.instr.rd] >>= (m.cpu_.regs[op.instr.ra] & 31u);
    m.set_alu_flags_logic(m.cpu_.regs[op.instr.rd]);
  }

  static void shr_i(Machine& m, const DecodedOp& op) {
    m.cpu_.regs[op.instr.rd] >>= (op.instr.imm & 31u);
    m.set_alu_flags_logic(m.cpu_.regs[op.instr.rd]);
  }

  static void mul(Machine& m, const DecodedOp& op) {
    m.cpu_.regs[op.instr.rd] *= m.cpu_.regs[op.instr.ra];
    m.set_alu_flags_logic(m.cpu_.regs[op.instr.rd]);
  }

  /// Shared load/store/push/pop recovery: keep EIP at the faulting
  /// instruction unless the fault dispatch redirected it into the handler.
  static void recover_eip(Machine& m, const DecodedOp& op) {
    if (!m.fault_eip_redirected_) {
      m.cpu_.eip = op.pc;
    }
  }

  static void ldw(Machine& m, const DecodedOp& op) {
    std::uint32_t value = 0;
    if (m.guest_read32(m.cpu_.regs[op.instr.ra] +
                           static_cast<std::uint32_t>(op.instr.simm()),
                       &value)) {
      m.cpu_.regs[op.instr.rd] = value;
    } else {
      recover_eip(m, op);
    }
  }

  static void stw(Machine& m, const DecodedOp& op) {
    if (!m.guest_write32(m.cpu_.regs[op.instr.ra] +
                             static_cast<std::uint32_t>(op.instr.simm()),
                         m.cpu_.regs[op.instr.rd])) {
      recover_eip(m, op);
    }
  }

  static void ldb(Machine& m, const DecodedOp& op) {
    std::uint8_t value = 0;
    if (m.guest_read8(m.cpu_.regs[op.instr.ra] +
                          static_cast<std::uint32_t>(op.instr.simm()),
                      &value)) {
      m.cpu_.regs[op.instr.rd] = value;
    } else {
      recover_eip(m, op);
    }
  }

  static void stb(Machine& m, const DecodedOp& op) {
    if (!m.guest_write8(m.cpu_.regs[op.instr.ra] +
                            static_cast<std::uint32_t>(op.instr.simm()),
                        static_cast<std::uint8_t>(m.cpu_.regs[op.instr.rd]))) {
      recover_eip(m, op);
    }
  }

  /// Taken relative branch/call transfer to a static target.  The decode
  /// cache memoizes the entry-point verdict (valid under the policy config
  /// epoch); transient interpreter ops carry kUnknown and ask live.
  static void take_static_transfer(Machine& m, const DecodedOp& op,
                                   std::uint32_t target) {
    m.cpu_.eip = op.pc;  // transfer check sees the branching instruction
    switch (op.transfer) {
      case TransferMemo::kAllowed:
        m.charge(m.costs_.branch_taken);
        m.cpu_.eip = target;
        break;
      case TransferMemo::kDenied:
        m.raise_fault({FaultType::kMpuTransfer, op.pc, target, Access::kExecute});
        break;
      case TransferMemo::kUnknown:
        m.guest_transfer(target);
        break;
    }
  }

  static void branch_if(Machine& m, const DecodedOp& op, bool taken) {
    if (taken) {
      // Relative branches within the running code cannot violate entry
      // points only when staying in-region; still check the policy so a
      // crafted displacement into another region faults.
      const std::uint32_t target = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(op.pc + isa::kInstrSize) + op.instr.simm());
      take_static_transfer(m, op, target);
    }
  }

  static void jmp(Machine& m, const DecodedOp& op) { branch_if(m, op, true); }
  static void jz(Machine& m, const DecodedOp& op) {
    branch_if(m, op, m.cpu_.flag(isa::kFlagZ));
  }
  static void jnz(Machine& m, const DecodedOp& op) {
    branch_if(m, op, !m.cpu_.flag(isa::kFlagZ));
  }
  static void jlt(Machine& m, const DecodedOp& op) {
    branch_if(m, op, m.cpu_.flag(isa::kFlagN) != m.cpu_.flag(isa::kFlagV));
  }
  static void jge(Machine& m, const DecodedOp& op) {
    branch_if(m, op, m.cpu_.flag(isa::kFlagN) == m.cpu_.flag(isa::kFlagV));
  }
  static void jc(Machine& m, const DecodedOp& op) {
    branch_if(m, op, m.cpu_.flag(isa::kFlagC));
  }
  static void jnc(Machine& m, const DecodedOp& op) {
    branch_if(m, op, !m.cpu_.flag(isa::kFlagC));
  }

  static void jmpr(Machine& m, const DecodedOp& op) {
    const std::uint32_t target = m.cpu_.regs[op.instr.ra];
    if (m.heat_ != nullptr) {
      m.heat_->record_edge(op.pc, target, /*is_call=*/false);
    }
    m.cpu_.eip = op.pc;
    m.guest_transfer(target);
  }

  static void call(Machine& m, const DecodedOp& op) {
    const std::uint32_t next = op.pc + isa::kInstrSize;
    if (!m.guest_push32(next)) {
      return;
    }
    const std::uint32_t target = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(next) + op.instr.simm());
    take_static_transfer(m, op, target);
  }

  static void callr(Machine& m, const DecodedOp& op) {
    const std::uint32_t next = op.pc + isa::kInstrSize;
    if (!m.guest_push32(next)) {
      return;
    }
    const std::uint32_t target = m.cpu_.regs[op.instr.ra];
    if (m.heat_ != nullptr) {
      m.heat_->record_edge(op.pc, target, /*is_call=*/true);
    }
    m.cpu_.eip = op.pc;
    m.guest_transfer(target);
  }

  static void ret(Machine& m, const DecodedOp& op) {
    std::uint32_t target = 0;
    if (!m.guest_pop32(&target)) {
      return;
    }
    m.cpu_.eip = op.pc;
    m.guest_transfer(target);
  }

  static void push(Machine& m, const DecodedOp& op) {
    if (!m.guest_push32(m.cpu_.regs[op.instr.rd])) {
      recover_eip(m, op);
    }
  }

  static void pop(Machine& m, const DecodedOp& op) {
    std::uint32_t value = 0;
    if (m.guest_pop32(&value)) {
      m.cpu_.regs[op.instr.rd] = value;
    } else {
      recover_eip(m, op);
    }
  }

  static void int_(Machine& m, const DecodedOp& op) {
    m.dispatch_interrupt(static_cast<std::uint8_t>(op.instr.imm & 0x3F), op.pc,
                         op.pc + isa::kInstrSize);
  }

  static void iret(Machine& m, const DecodedOp& op) {
    std::uint32_t new_eip = 0;
    std::uint32_t new_eflags = 0;
    if (!m.guest_pop32(&new_eip) || !m.guest_pop32(&new_eflags)) {
      return;
    }
    m.cpu_.eflags = new_eflags;
    m.cpu_.eip = op.pc;
    m.guest_transfer(new_eip);
  }

  static void hlt(Machine& m, const DecodedOp& op) {
    // With the EA-MPU armed, HLT is privileged: a guest task must not be
    // able to stop the platform (availability, paper §5).  On the bare
    // pre-boot machine it halts normally (tests, bring-up).
    if (m.policy_ != nullptr) {
      m.raise_fault({FaultType::kPrivileged, op.pc, op.pc, Access::kExecute});
    } else {
      m.halt(HaltReason::kHltInstruction);
    }
  }

  static void cli(Machine& m, const DecodedOp&) {
    m.cpu_.set_flag(isa::kFlagIF, false);
  }

  static void sti(Machine& m, const DecodedOp&) {
    m.cpu_.set_flag(isa::kFlagIF, true);
  }

  static void rdcyc(Machine& m, const DecodedOp& op) {
    m.cpu_.regs[op.instr.rd] = static_cast<std::uint32_t>(m.cycles_);
  }
};

const std::array<OpVariant, 256>& op_table() {
  // Built once, thread-safely (magic static): fleet devices share the table
  // read-only.  base_cycles rides in each variant so cached dispatch skips
  // the isa::base_cycles switch.
  static const std::array<OpVariant, 256> table = [] {
    std::array<OpVariant, 256> t{};
    const auto set = [&t](Opcode opc, void (*fn)(Machine&, const DecodedOp&)) {
      t[static_cast<std::size_t>(opc)] = {
          fn, static_cast<std::uint8_t>(isa::base_cycles(opc))};
    };
    set(Opcode::kNop, MachineOps::nop);
    set(Opcode::kMov, MachineOps::mov);
    set(Opcode::kMovi, MachineOps::movi);
    set(Opcode::kMoviu, MachineOps::moviu);
    set(Opcode::kMovhi, MachineOps::movhi);
    set(Opcode::kAdd, MachineOps::add);
    set(Opcode::kAddi, MachineOps::add);
    set(Opcode::kSub, MachineOps::sub);
    set(Opcode::kSubi, MachineOps::sub);
    set(Opcode::kCmp, MachineOps::sub);
    set(Opcode::kCmpi, MachineOps::sub);
    set(Opcode::kAnd, MachineOps::and_r);
    set(Opcode::kAndi, MachineOps::and_i);
    set(Opcode::kOr, MachineOps::or_r);
    set(Opcode::kOri, MachineOps::or_i);
    set(Opcode::kXor, MachineOps::xor_r);
    set(Opcode::kShl, MachineOps::shl_r);
    set(Opcode::kShli, MachineOps::shl_i);
    set(Opcode::kShr, MachineOps::shr_r);
    set(Opcode::kShri, MachineOps::shr_i);
    set(Opcode::kMul, MachineOps::mul);
    set(Opcode::kLdw, MachineOps::ldw);
    set(Opcode::kStw, MachineOps::stw);
    set(Opcode::kLdb, MachineOps::ldb);
    set(Opcode::kStb, MachineOps::stb);
    set(Opcode::kJmp, MachineOps::jmp);
    set(Opcode::kJz, MachineOps::jz);
    set(Opcode::kJnz, MachineOps::jnz);
    set(Opcode::kJlt, MachineOps::jlt);
    set(Opcode::kJge, MachineOps::jge);
    set(Opcode::kJc, MachineOps::jc);
    set(Opcode::kJnc, MachineOps::jnc);
    set(Opcode::kJmpr, MachineOps::jmpr);
    set(Opcode::kCall, MachineOps::call);
    set(Opcode::kCallr, MachineOps::callr);
    set(Opcode::kRet, MachineOps::ret);
    set(Opcode::kPush, MachineOps::push);
    set(Opcode::kPop, MachineOps::pop);
    set(Opcode::kInt, MachineOps::int_);
    set(Opcode::kIret, MachineOps::iret);
    set(Opcode::kHlt, MachineOps::hlt);
    set(Opcode::kCli, MachineOps::cli);
    set(Opcode::kSti, MachineOps::sti);
    set(Opcode::kRdcyc, MachineOps::rdcyc);
    return t;
  }();
  return table;
}

}  // namespace tytan::sim
