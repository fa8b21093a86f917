#include "isa/isa.h"

namespace tytan::isa {

std::uint32_t encode(const Instruction& instr) {
  return (static_cast<std::uint32_t>(instr.opcode) << 24) |
         (static_cast<std::uint32_t>(instr.rd & 0xF) << 20) |
         (static_cast<std::uint32_t>(instr.ra & 0xF) << 16) | instr.imm;
}

namespace {

using F = OperandForm;
using C = FlowClass;

constexpr std::array<OpcodeInfo, 256> make_opcode_table() {
  std::array<OpcodeInfo, 256> t{};
  const auto row = [&t](Opcode op, std::string_view mnemonic, OperandForm form,
                        std::uint8_t cycles, FlowClass flow = C::kNext) {
    t[static_cast<std::uint8_t>(op)] = {mnemonic, form, cycles, flow};
  };
  row(Opcode::kNop, "nop", F::kNone, 1);
  row(Opcode::kMov, "mov", F::kRdRa, 1);
  row(Opcode::kMovi, "movi", F::kRdSimm, 1);
  row(Opcode::kMoviu, "moviu", F::kRdUimm, 1);
  row(Opcode::kMovhi, "movhi", F::kRdUimm, 1);
  row(Opcode::kAdd, "add", F::kRdRa, 1);
  row(Opcode::kAddi, "addi", F::kRdSimm, 1);
  row(Opcode::kSub, "sub", F::kRdRa, 1);
  row(Opcode::kSubi, "subi", F::kRdSimm, 1);
  row(Opcode::kAnd, "and", F::kRdRa, 1);
  row(Opcode::kAndi, "andi", F::kRdUimm, 1);
  row(Opcode::kOr, "or", F::kRdRa, 1);
  row(Opcode::kOri, "ori", F::kRdUimm, 1);
  row(Opcode::kXor, "xor", F::kRdRa, 1);
  row(Opcode::kShl, "shl", F::kRdRa, 1);
  row(Opcode::kShli, "shli", F::kRdUimm, 1);
  row(Opcode::kShr, "shr", F::kRdRa, 1);
  row(Opcode::kShri, "shri", F::kRdUimm, 1);
  row(Opcode::kMul, "mul", F::kRdRa, 3);
  row(Opcode::kCmp, "cmp", F::kRdRa, 1);
  row(Opcode::kCmpi, "cmpi", F::kRdSimm, 1);
  row(Opcode::kLdw, "ldw", F::kMem, 2);
  row(Opcode::kStw, "stw", F::kMem, 2);
  row(Opcode::kLdb, "ldb", F::kMem, 2);
  row(Opcode::kStb, "stb", F::kMem, 2);
  // Branches cost 1, plus 2 when taken (charged by the machine).
  row(Opcode::kJmp, "jmp", F::kBranch, 1, C::kJump);
  row(Opcode::kJz, "jz", F::kBranch, 1, C::kCondBranch);
  row(Opcode::kJnz, "jnz", F::kBranch, 1, C::kCondBranch);
  row(Opcode::kJlt, "jlt", F::kBranch, 1, C::kCondBranch);
  row(Opcode::kJge, "jge", F::kBranch, 1, C::kCondBranch);
  row(Opcode::kJc, "jc", F::kBranch, 1, C::kCondBranch);
  row(Opcode::kJnc, "jnc", F::kBranch, 1, C::kCondBranch);
  row(Opcode::kJmpr, "jmpr", F::kRa, 1, C::kJumpReg);
  row(Opcode::kCall, "call", F::kBranch, 4, C::kCall);
  row(Opcode::kCallr, "callr", F::kRa, 4, C::kCallReg);
  row(Opcode::kRet, "ret", F::kNone, 4, C::kStop);
  row(Opcode::kPush, "push", F::kRd, 2);
  row(Opcode::kPop, "pop", F::kRd, 2);
  row(Opcode::kInt, "int", F::kImm, 12, C::kInt);
  row(Opcode::kIret, "iret", F::kNone, 12, C::kStop);
  row(Opcode::kHlt, "hlt", F::kNone, 1, C::kStop);
  row(Opcode::kCli, "cli", F::kNone, 1);
  row(Opcode::kSti, "sti", F::kNone, 1);
  row(Opcode::kRdcyc, "rdcyc", F::kRd, 1);
  return t;
}

}  // namespace

// Constant-initialized: reading it costs one load, with no guard.
constexpr std::array<OpcodeInfo, 256> kOpcodeTable = make_opcode_table();

std::string_view mnemonic(Opcode op) {
  const std::string_view name = opcode_info(op).mnemonic;
  return name.empty() ? "?" : name;
}

unsigned base_cycles(Opcode op) { return opcode_info(op).base_cycles; }

}  // namespace tytan::isa
