#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "isa/assembler.h"
#include "isa/disasm.h"
#include "isa/isa.h"

namespace tytan::isa {
namespace {

TEST(Encoding, FieldPacking) {
  const Instruction instr{Opcode::kLdw, 3, 7, 0xFFFC};
  const std::uint32_t word = encode(instr);
  EXPECT_EQ(word >> 24, 0x20u);
  EXPECT_EQ((word >> 20) & 0xF, 3u);
  EXPECT_EQ((word >> 16) & 0xF, 7u);
  EXPECT_EQ(word & 0xFFFF, 0xFFFCu);
}

TEST(Encoding, SignedImmediate) {
  const Instruction instr{Opcode::kMovi, 0, 0, static_cast<std::uint16_t>(-5 & 0xFFFF)};
  EXPECT_EQ(instr.simm(), -5);
}

class OpcodeRoundTrip : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(OpcodeRoundTrip, EncodeDecode) {
  const std::uint8_t raw = GetParam();
  if (!opcode_valid(raw)) {
    GTEST_SKIP() << "undefined opcode";
  }
  const Instruction instr{static_cast<Opcode>(raw), 5, 2, 0x1234};
  const auto decoded = decode(encode(instr));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, instr);
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, OpcodeRoundTrip, ::testing::Range<std::uint8_t>(0, 0x50));

TEST(Decoding, RejectsUndefinedOpcodes) {
  EXPECT_FALSE(decode(0xFF00'0000u).has_value());
  EXPECT_FALSE(decode(0x5000'0000u).has_value());
  EXPECT_TRUE(decode(0x0000'0000u).has_value());  // NOP
}

TEST(Cycles, MemoryOpsCostMoreThanAlu) {
  EXPECT_GT(base_cycles(Opcode::kLdw), base_cycles(Opcode::kAdd));
  EXPECT_GT(base_cycles(Opcode::kInt), base_cycles(Opcode::kCall));
}

TEST(Disasm, FormatsCommonInstructions) {
  EXPECT_EQ(disassemble({Opcode::kMovi, 1, 0, 42}, 0), "movi r1, 42");
  EXPECT_EQ(disassemble({Opcode::kLdw, 2, 7, 8}, 0), "ldw r2, [sp+8]");
  EXPECT_EQ(disassemble({Opcode::kStw, 0, 3, static_cast<std::uint16_t>(-4 & 0xFFFF)}, 0),
            "stw r0, [r3-4]");
  EXPECT_EQ(disassemble({Opcode::kRet, 0, 0, 0}, 0), "ret");
  EXPECT_EQ(disassemble({Opcode::kInt, 0, 0, 0x21}, 0), "int 0x21");
}

TEST(Disasm, BranchTargetsAreAbsolute) {
  // jmp +8 at pc=0x100 -> target 0x100 + 4 + 8 = 0x10c.
  EXPECT_EQ(disassemble({Opcode::kJmp, 0, 0, 8}, 0x100), "jmp 0x10c");
}

TEST(Disasm, InvalidWord) {
  EXPECT_EQ(disassemble_word(0xEE00'0000u, 0), "<invalid 0xee000000>");
}

TEST(Isa, DecodeAcceptsExactlyTheTableRows) {
  unsigned defined = 0;
  for (std::uint32_t raw = 0; raw < 256; ++raw) {
    const bool listed = !kOpcodeTable[raw].mnemonic.empty();
    defined += listed ? 1 : 0;
    EXPECT_EQ(decode(raw << 24).has_value(), listed) << "opcode " << raw;
    EXPECT_EQ(opcode_valid(static_cast<std::uint8_t>(raw)), listed) << "opcode " << raw;
  }
  EXPECT_EQ(defined, 44u);
}

TEST(Isa, EveryOpcodeDisassemblesInItsForm) {
  // {op, r1, sp, -4} at 0x100 for each defined opcode, in opcode order.  The
  // lines pin every mnemonic and operand form independently of the table.
  const char* const kExpected[] = {
      "nop", "mov r1, sp", "movi r1, -4", "moviu r1, 0xfffc", "movhi r1, 0xfffc",
      "add r1, sp", "addi r1, -4", "sub r1, sp", "subi r1, -4",
      "and r1, sp", "andi r1, 0xfffc", "or r1, sp", "ori r1, 0xfffc", "xor r1, sp",
      "shl r1, sp", "shli r1, 0xfffc", "shr r1, sp", "shri r1, 0xfffc",
      "mul r1, sp", "cmp r1, sp", "cmpi r1, -4",
      "ldw r1, [sp-4]", "stw r1, [sp-4]", "ldb r1, [sp-4]", "stb r1, [sp-4]",
      "jmp 0x100", "jz 0x100", "jnz 0x100", "jlt 0x100", "jge 0x100", "jc 0x100",
      "jnc 0x100", "jmpr sp", "call 0x100", "callr sp", "ret",
      "push r1", "pop r1", "int 0xfffc", "iret", "hlt", "cli", "sti", "rdcyc r1",
  };
  std::vector<std::string> lines;
  for (std::uint32_t raw = 0; raw < 256; ++raw) {
    if (opcode_valid(static_cast<std::uint8_t>(raw))) {
      lines.push_back(disassemble({static_cast<Opcode>(raw), 1, kSpIndex, 0xFFFC}, 0x100));
    }
  }
  EXPECT_EQ(lines, std::vector<std::string>(std::begin(kExpected), std::end(kExpected)));
}

/// Instructions of opcode `op` with the operand values its form can hold:
/// negative simm, high uimm, sp.  Fields the form does not print stay 0.
std::vector<Instruction> operand_samples(Opcode op) {
  const auto imm = [](int v) { return static_cast<std::uint16_t>(v & 0xFFFF); };
  switch (opcode_info(op).form) {
    case OperandForm::kNone:
      return {{op, 0, 0, 0}};
    case OperandForm::kRdRa:
      return {{op, 1, 2, 0}, {op, kSpIndex, 6, 0}, {op, 0, kSpIndex, 0}};
    case OperandForm::kRdSimm:
      return {{op, 1, 0, 42}, {op, kSpIndex, 0, imm(-5)}, {op, 2, 0, imm(-32768)}};
    case OperandForm::kRdUimm:
      return {{op, 3, 0, 0xFFFF}, {op, kSpIndex, 0, 0x8000}, {op, 0, 0, 0}};
    case OperandForm::kRd:
      return {{op, 0, 0, 0}, {op, kSpIndex, 0, 0}};
    case OperandForm::kRa:
      return {{op, 0, 5, 0}, {op, 0, kSpIndex, 0}};
    case OperandForm::kMem:
      return {{op, 1, kSpIndex, 8}, {op, 0, 3, imm(-4)}, {op, 6, 2, 0}};
    case OperandForm::kBranch:
      return {{op, 0, 0, 8}, {op, 0, 0, imm(-8)}, {op, 0, 0, 0}};
    case OperandForm::kImm:
      return {{op, 0, 0, 0x21}, {op, 0, 0, 0xFFFF}};
  }
  return {};
}

TEST(Isa, AssemblingTheDisassemblyReproducesEveryOpcode) {
  // The instruction sits at kPc behind a `base` label.  A branch prints its
  // absolute target, which reassembles as the expression base+target.
  constexpr std::uint32_t kPc = 0x100;
  for (std::uint32_t raw = 0; raw < 256; ++raw) {
    const auto op = static_cast<Opcode>(raw);
    if (!opcode_valid(static_cast<std::uint8_t>(raw))) {
      continue;
    }
    for (const Instruction& instr : operand_samples(op)) {
      std::string text = disassemble(instr, kPc);
      if (opcode_info(op).form == OperandForm::kBranch) {
        text.insert(text.find(' ') + 1, "base+");
      }
      const auto object = assemble("base:\n.space 0x100\n" + text + "\n");
      ASSERT_TRUE(object.is_ok()) << text << ": " << object.status().message();
      ASSERT_EQ(object->image.size(), kPc + kInstrSize) << text;
      EXPECT_EQ(load_le32(object->image.data() + kPc), encode(instr)) << text;
    }
  }
}

TEST(Isa, BaseCyclesPerOpcode) {
  // The cost model the machine's cycle counts (and every timing table) rest
  // on: 1 cycle unless listed; taken branches add 2 in the machine.
  std::array<unsigned, 256> expected{};
  expected.fill(1);
  for (const Opcode op : {Opcode::kLdw, Opcode::kStw, Opcode::kLdb, Opcode::kStb,
                          Opcode::kPush, Opcode::kPop}) {
    expected[static_cast<std::uint8_t>(op)] = 2;
  }
  expected[static_cast<std::uint8_t>(Opcode::kMul)] = 3;
  for (const Opcode op : {Opcode::kCall, Opcode::kCallr, Opcode::kRet}) {
    expected[static_cast<std::uint8_t>(op)] = 4;
  }
  expected[static_cast<std::uint8_t>(Opcode::kInt)] = 12;
  expected[static_cast<std::uint8_t>(Opcode::kIret)] = 12;
  for (std::uint32_t raw = 0; raw < 256; ++raw) {
    if (opcode_valid(static_cast<std::uint8_t>(raw))) {
      EXPECT_EQ(base_cycles(static_cast<Opcode>(raw)), expected[raw])
          << mnemonic(static_cast<Opcode>(raw));
    }
  }
}

TEST(Isa, ControlFlowClassPerOpcode) {
  // What CFG recovery and the decode cache's block ends rest on: every op
  // not listed here continues to the next instruction.
  std::array<FlowClass, 256> expected{};
  expected.fill(FlowClass::kNext);
  for (const Opcode op : {Opcode::kJz, Opcode::kJnz, Opcode::kJlt, Opcode::kJge, Opcode::kJc,
                          Opcode::kJnc}) {
    expected[static_cast<std::uint8_t>(op)] = FlowClass::kCondBranch;
  }
  expected[static_cast<std::uint8_t>(Opcode::kJmp)] = FlowClass::kJump;
  expected[static_cast<std::uint8_t>(Opcode::kCall)] = FlowClass::kCall;
  expected[static_cast<std::uint8_t>(Opcode::kJmpr)] = FlowClass::kJumpReg;
  expected[static_cast<std::uint8_t>(Opcode::kCallr)] = FlowClass::kCallReg;
  expected[static_cast<std::uint8_t>(Opcode::kInt)] = FlowClass::kInt;
  for (const Opcode op : {Opcode::kRet, Opcode::kIret, Opcode::kHlt}) {
    expected[static_cast<std::uint8_t>(op)] = FlowClass::kStop;
  }
  for (std::uint32_t raw = 0; raw < 256; ++raw) {
    if (opcode_valid(static_cast<std::uint8_t>(raw))) {
      EXPECT_EQ(opcode_info(static_cast<Opcode>(raw)).flow, expected[raw])
          << mnemonic(static_cast<Opcode>(raw));
    }
  }
}

}  // namespace
}  // namespace tytan::isa
