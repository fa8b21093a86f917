#include "isa/disasm.h"

#include <sstream>

namespace tytan::isa {

namespace {
std::string reg(unsigned r) { return (r == kSpIndex) ? "sp" : "r" + std::to_string(r); }

std::string hex32(std::uint32_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}
}  // namespace

std::string disassemble(const Instruction& instr, std::uint32_t pc) {
  std::ostringstream os;
  os << mnemonic(instr.opcode);
  switch (opcode_info(instr.opcode).form) {
    case OperandForm::kNone:
      break;
    case OperandForm::kRdRa:
      os << ' ' << reg(instr.rd) << ", " << reg(instr.ra);
      break;
    case OperandForm::kRdSimm:
      os << ' ' << reg(instr.rd) << ", " << instr.simm();
      break;
    case OperandForm::kRdUimm:
      os << ' ' << reg(instr.rd) << ", " << hex32(instr.imm);
      break;
    case OperandForm::kMem:
      os << ' ' << reg(instr.rd) << ", [" << reg(instr.ra);
      if (instr.simm() != 0) {
        os << (instr.simm() >= 0 ? "+" : "") << instr.simm();
      }
      os << ']';
      break;
    case OperandForm::kBranch:
      os << ' ' << hex32(static_cast<std::uint32_t>(
                     static_cast<std::int64_t>(pc) + kInstrSize + instr.simm()));
      break;
    case OperandForm::kRa:
      os << ' ' << reg(instr.ra);
      break;
    case OperandForm::kRd:
      os << ' ' << reg(instr.rd);
      break;
    case OperandForm::kImm:
      os << ' ' << hex32(instr.imm);
      break;
  }
  return os.str();
}

std::string disassemble_word(std::uint32_t word, std::uint32_t pc) {
  const auto instr = decode(word);
  if (!instr) {
    return "<invalid " + hex32(word) + ">";
  }
  return disassemble(*instr, pc);
}

}  // namespace tytan::isa
