// Instruction set of the simulated 32-bit embedded core ("Peak-32").
//
// The paper implements TyTAN on Intel Siskiyou Peak, a 32-bit core with a
// flat physical address space and MMIO.  We model a small RISC ISA with the
// registers the paper names (EIP, EFLAGS) plus eight GPRs.  Encoding is one
// little-endian 32-bit word per instruction:
//
//   [31:24] opcode   [23:20] rd   [19:16] ra   [15:0] imm16
//
// Branch displacements are relative to the *next* instruction, in bytes, so
// position-independent code needs no relocations; only `li` (address
// materialization) and `.word` data emit relocation records.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

namespace tytan::isa {

inline constexpr std::size_t kNumGprs = 8;
inline constexpr unsigned kSpIndex = 7;  ///< r7 is the stack pointer by convention
inline constexpr std::uint32_t kInstrSize = 4;

/// EFLAGS bits.
enum Flag : std::uint32_t {
  kFlagZ = 1u << 0,   ///< zero
  kFlagC = 1u << 1,   ///< carry / unsigned borrow
  kFlagN = 1u << 2,   ///< negative (sign)
  kFlagV = 1u << 3,   ///< signed overflow
  kFlagIF = 1u << 9,  ///< interrupts enabled
};

enum class Opcode : std::uint8_t {
  kNop = 0x00,
  kMov = 0x01,    ///< rd = ra
  kMovi = 0x02,   ///< rd = sext(imm16)
  kMoviu = 0x03,  ///< rd = zext(imm16)           (li low half; LO16 reloc target)
  kMovhi = 0x04,  ///< rd = (rd & 0xFFFF) | imm16 << 16   (li high half; HI16)
  kAdd = 0x05,
  kAddi = 0x06,
  kSub = 0x07,
  kSubi = 0x08,
  kAnd = 0x09,
  kAndi = 0x0A,
  kOr = 0x0B,
  kOri = 0x0C,
  kXor = 0x0D,
  kShl = 0x0E,
  kShli = 0x0F,
  kShr = 0x10,
  kShri = 0x11,
  kMul = 0x12,
  kCmp = 0x13,  ///< flags from rd - ra
  kCmpi = 0x14,
  kLdw = 0x20,  ///< rd = mem32[ra + sext(imm16)]
  kStw = 0x21,  ///< mem32[ra + sext(imm16)] = rd
  kLdb = 0x22,  ///< rd = zext(mem8[ra + sext(imm16)])
  kStb = 0x23,
  kJmp = 0x30,  ///< eip += sext(imm16)  (relative to next instruction)
  kJz = 0x31,
  kJnz = 0x32,
  kJlt = 0x33,  ///< signed less (N xor V)
  kJge = 0x34,
  kJc = 0x35,  ///< unsigned below
  kJnc = 0x36,
  kJmpr = 0x37,  ///< eip = ra
  kCall = 0x38,  ///< push return address; relative jump
  kCallr = 0x39,
  kRet = 0x3A,
  kPush = 0x3B,
  kPop = 0x3C,
  kInt = 0x40,   ///< software interrupt, vector = imm16 & 0xFF
  kIret = 0x41,  ///< pop EIP, pop EFLAGS
  kHlt = 0x42,
  kCli = 0x43,
  kSti = 0x44,
  kRdcyc = 0x45,  ///< rd = low 32 bits of the platform cycle counter
};

/// Decoded instruction.
struct Instruction {
  Opcode opcode = Opcode::kNop;
  std::uint8_t rd = 0;
  std::uint8_t ra = 0;
  std::uint16_t imm = 0;  ///< raw 16-bit immediate; sign-extension is per-opcode

  [[nodiscard]] std::int32_t simm() const { return static_cast<std::int16_t>(imm); }

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

/// How an instruction's operands are written, in assembly and disassembly.
enum class OperandForm : std::uint8_t {
  kNone,    ///< ret
  kRdRa,    ///< add rd, ra
  kRdSimm,  ///< addi rd, -4      (imm printed signed)
  kRdUimm,  ///< ori rd, 0xff     (imm printed as hex)
  kRd,      ///< push rd
  kRa,      ///< jmpr ra
  kMem,     ///< ldw rd, [ra+imm] (loads and stores alike)
  kBranch,  ///< jz label         (imm is relative to the next instruction)
  kImm,     ///< int 0x21
};

/// Where control goes after an instruction executes.
enum class FlowClass : std::uint8_t {
  kNext,        ///< the next instruction
  kCondBranch,  ///< the relative target or the next instruction
  kJump,        ///< the relative target only
  kCall,        ///< a call to the relative target, returning to the next
  kJumpReg,     ///< the address in ra only
  kCallReg,     ///< a call to the address in ra, returning to the next
  kInt,         ///< a software interrupt, returning to the next
  kStop,        ///< no static successor (ret, iret, hlt)
};

/// One row of the opcode table.  Rows of undefined opcode bytes are
/// value-initialized: an empty mnemonic marks them.
struct OpcodeInfo {
  std::string_view mnemonic;
  OperandForm form = OperandForm::kNone;
  /// Base cycle cost (memory-system costs are added by the machine).  These
  /// model a simple non-pipelined embedded core.
  std::uint8_t base_cycles = 0;
  FlowClass flow = FlowClass::kNext;
};

/// The opcode table (isa.cc), indexed by the raw opcode byte.
extern const std::array<OpcodeInfo, 256> kOpcodeTable;

inline const OpcodeInfo& opcode_info(Opcode op) {
  return kOpcodeTable[static_cast<std::uint8_t>(op)];
}

/// Pack an instruction into its 32-bit encoding.
std::uint32_t encode(const Instruction& instr);

/// True if the opcode is defined in the ISA.
inline bool opcode_valid(std::uint8_t raw) { return !kOpcodeTable[raw].mnemonic.empty(); }

/// Decode a 32-bit word; nullopt if the opcode is not defined.  Inline: the
/// analyzer decodes every word of an image, and the interpreter and the
/// decode cache every word they fetch.
inline std::optional<Instruction> decode(std::uint32_t word) {
  const auto raw = static_cast<std::uint8_t>(word >> 24);
  if (!opcode_valid(raw)) {
    return std::nullopt;
  }
  Instruction instr;
  instr.opcode = static_cast<Opcode>(raw);
  instr.rd = static_cast<std::uint8_t>((word >> 20) & 0xF);
  instr.ra = static_cast<std::uint8_t>((word >> 16) & 0xF);
  instr.imm = static_cast<std::uint16_t>(word & 0xFFFF);
  // The register fields are 4 bits wide but the file has kNumGprs registers;
  // encodings naming a nonexistent register are invalid (the machine would
  // otherwise index past the register file).
  if (instr.rd >= kNumGprs || instr.ra >= kNumGprs) {
    return std::nullopt;
  }
  return instr;
}

/// Mnemonic for an opcode (ldw, iret, ...); "?" if it is not defined.
std::string_view mnemonic(Opcode op);

/// Base cycle cost of an instruction (OpcodeInfo::base_cycles).
unsigned base_cycles(Opcode op);

}  // namespace tytan::isa
