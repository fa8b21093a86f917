// Dispatch-mode differential suite: the decoded basic-block cache must be
// bit-identical to the reference interpreter on every simulated quantity at
// every step.  Each scenario runs two machines in lockstep — one per
// DispatchMode — and compares registers, EIP, EFLAGS, cycles, instructions,
// and the fault stream after every single step().  This doubles as the
// decode-cache regression corpus: interrupt/fault edge paths, self-modifying
// code, firmware collisions, and fuzzed instruction words all ride through
// both paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "dispatch_sweep.h"
#include "isa/assembler.h"
#include "sim/decode_cache.h"
#include "sim/devices.h"
#include "sim/machine.h"

namespace tytan::sim {
namespace {

/// Step both machines once and compare every piece of simulated state.
/// Returns false once both machines halt (or on divergence, after failing).
bool lockstep_once(Machine& interp, Machine& cached, std::uint64_t step) {
  const StepOutcome a = interp.step();
  const StepOutcome b = cached.step();
  EXPECT_EQ(a, b) << "step outcome diverged at step " << step;
  expect_same_state(interp, cached, "step " + std::to_string(step));
  if (::testing::Test::HasFailure()) {
    return false;
  }
  return !(interp.halted() && cached.halted());
}

struct IdtBinding {
  std::uint8_t vector;
  const char* label;  ///< symbol the vector's handler lives at
};

/// Two machines, one per dispatch mode, loaded with the same program.
struct Lockstep {
  explicit Lockstep(std::string_view source)
      : interp(std::make_unique<Machine>()), cached(std::make_unique<Machine>()) {
    interp->set_dispatch_mode(DispatchMode::kInterpreter);
    cached->set_dispatch_mode(DispatchMode::kCached);
    symbols = load_program(*interp, source);
    load_program(*cached, source);
  }

  [[nodiscard]] std::uint32_t addr(const std::string& label) const {
    return kCodeBase + symbols.at(label);
  }

  /// Step both machines up to `steps` times; false once they halt or diverge.
  bool run(std::uint64_t steps) {
    for (std::uint64_t i = 0; i < steps; ++i) {
      if (!lockstep_once(*interp, *cached, step_count++)) {
        return false;
      }
    }
    return true;
  }

  /// Step until the next instruction is the one at `pc`.
  bool run_to(std::uint32_t pc, std::uint64_t max_steps) {
    for (std::uint64_t i = 0; i < max_steps && cached->cpu().eip != pc; ++i) {
      if (!run(1)) {
        return false;
      }
    }
    return cached->cpu().eip == pc;
  }

  std::unique_ptr<Machine> interp;
  std::unique_ptr<Machine> cached;
  std::map<std::string, std::uint32_t> symbols;
  std::uint64_t step_count = 0;
};

/// Run `source` through both dispatch modes in lockstep for up to `steps`.
void differential(std::string_view source, std::uint64_t steps = 20'000,
                  std::initializer_list<IdtBinding> idt = {}) {
  Lockstep ls(source);
  for (const IdtBinding& binding : idt) {
    ASSERT_TRUE(ls.symbols.contains(binding.label)) << binding.label;
    ls.interp->set_idt_entry(binding.vector, ls.addr(binding.label));
    ls.cached->set_idt_entry(binding.vector, ls.addr(binding.label));
  }
  ls.run(steps);
  // The cached leg must actually have exercised the cache, or the test
  // proves nothing about it.
  const DecodeCache::Stats& stats = ls.cached->decode_cache().stats();
  EXPECT_GT(stats.builds + stats.hits, 0u);
}

TEST(Dispatch, StraightLineArithmetic) {
  differential(R"(
      movi r0, 10
      addi r0, 5
      movi r1, 3
      sub  r0, r1
      movi r2, 4
      mul  r2, r0
      li   r3, 0xdeadbeef
      hlt
  )");
}

TEST(Dispatch, LoopsAndBranches) {
  differential(R"(
      movi r0, 0
      movi r1, 200
  loop:
      addi r0, 1
      cmp  r0, r1
      jlt  loop
      movi r2, 0
  down:
      addi r2, 3
      cmpi r2, 600
      jnz  down
      hlt
  )");
}

TEST(Dispatch, MemoryTraffic) {
  differential(R"(
      li   r2, data
      movi r0, 0
  loop:
      ldw  r3, [r2]
      addi r3, 1
      stw  r3, [r2]
      ldb  r4, [r2+1]
      stb  r4, [r2+2]
      addi r0, 1
      cmpi r0, 300
      jnz  loop
      hlt
  data:
      .word 0x01020304
  )");
}

TEST(Dispatch, CallRetAndJumpTable) {
  differential(R"(
      movi r5, 0
  main:
      call bump
      addi r1, 1
      andi r1, 3
      shli r1, 2
      li   r2, table
      add  r2, r1
      ldw  r2, [r2]
      shri r1, 2
      jmpr r2
  case0:
      jmp  next
  case1:
      jmp  next
  case2:
      jmp  next
  case3:
      jmp  next
  next:
      cmpi r5, 500
      jnz  main
      hlt
  bump:
      addi r5, 1
      ret
  table:
      .word case0, case1, case2, case3
  )");
}

TEST(Dispatch, SoftwareInterruptRoundTrip) {
  differential(R"(
      sti
      movi r5, 0
  loop:
      int  0x21
      cmpi r5, 50
      jnz  loop
      hlt
  handler:
      addi r5, 1
      iret
  )",
               20'000, {{kVecSyscall, "handler"}});
}

TEST(Dispatch, SelfModifyingCodeInvalidates) {
  // The loop body overwrites its own next instruction: first pass stores a
  // `movi r6, 7` word over the `movi r6, 1` site, so the second pass must
  // decode the NEW word.  The interpreter re-fetches naturally; the cache
  // must observe the store through the write watch and rebuild.
  differential(R"(
      li   r1, patch_site
      li   r2, patched_word
      ldw  r3, [r2]       ; r3 = encoding of "movi r6, 7"
      movi r0, 0
  loop:
      stw  r3, [r1]       ; overwrite the instruction below
  patch_site:
      movi r6, 1          ; becomes "movi r6, 7" after the first pass
      addi r0, 1
      cmpi r0, 20
      jnz  loop
      hlt
  patched_word:
      movi r6, 7          ; never executed here; fetched as data
  )");
}

TEST(Dispatch, FaultHandlerAtNextInstruction) {
  differential(R"(
      li   r1, 0x200000
      ldw  r2, [r1]       ; bus error; handler is the next instruction
  handler:
      movi r6, 99
      hlt
  )",
               1'000, {{kVecFault, "handler"}});
}

TEST(Dispatch, IretWithCorruptedStack) {
  // The handler clobbers SP before IRET, so the frame pops fault.  Both
  // modes must walk the identical fault path.
  differential(R"(
      sti
      int  0x21
      hlt
  handler:
      movi r7, 3          ; corrupt SP; iret pops fault
      iret
      hlt
  )",
               1'000, {{kVecSyscall, "handler"}});
}

TEST(Dispatch, IrqDeliveryWindowsIdentical) {
  // A periodic timer IRQ must land on exactly the same instruction boundary
  // in both modes — one-instruction-per-step is part of the contract.
  const char* source = R"(
      sti
  spin:
      addi r0, 1
      jmp  spin
  tick:
      addi r5, 1
      cmpi r5, 5
      jz   done
      iret
  done:
      hlt
  )";
  const auto interp = timed_machine(DispatchMode::kInterpreter, source, 137);
  const auto cached = timed_machine(DispatchMode::kCached, source, 137);
  for (std::uint64_t i = 0; i < 50'000; ++i) {
    if (!lockstep_once(*interp, *cached, i)) {
      break;
    }
  }
  EXPECT_EQ(cached->cpu().regs[5], 5u);
}

TEST(Dispatch, ChainedRunMatchesSteppingAtEveryLimit) {
  // run() chains cached ops back to back between step tops that need
  // step().  It must stop on exactly the cycle where stepping would, at
  // every limit, with a timer (odd period) preempting blocks mid-way, a
  // self-modifying store ahead of the cursor, sti with the timer IRQ
  // already pending, and MMIO writes that move the next tick mid-block.
  // 90 cycles of quiet ops after the restart, past the tick it moved
  // closer: the chain must reread the schedule after the write.  The run
  // reads the clock half-way (rdcyc), so a quiet run charged as a whole, or
  // run past the limit, shows in r6.
  std::string quiet_run;
  for (int i = 0; i < 30; ++i) {
    quiet_run += "      mul  r6, r3\n";
    if (i == 15) {
      quiet_run += "      rdcyc r1\n      add  r6, r1\n";
    }
  }
  const std::string source = R"(
      li   r2, data
      li   r4, patch_site
      li   r5, patched
      ldw  r5, [r5]          ; r5 = encoding of "addi r6, 2"
      sti
  main:
      addi r0, 1
      mov  r3, r0
      shli r3, 3
      xor  r3, r0
      addi r3, 7
      ldw  r1, [r2]
      add  r1, r3
      stw  r1, [r2]
      mul  r3, r3
      subi r3, 5
      andi r3, 0xFF
      stw  r5, [r4]          ; self-modifying store into this block
  patch_site:
      addi r6, 1             ; "addi r6, 2" from the first pass on
      or   r3, r0
      shri r3, 2
      addi r3, 9
      mov  r1, r0
      andi r1, 7
      cmpi r1, 3
      jnz  no_cli
      cli                    ; the timer fires inside this window
      movi r1, 40
  spin:
      subi r1, 1
      jnz  spin
      sti                    ; the IRQ is already pending here
  no_cli:
      mov  r1, r0
      andi r1, 3
      cmpi r1, 1
      jnz  no_mmio
      li   r1, )" + std::to_string(kMmioTimer) + R"(
      mov  r3, r0
      andi r3, 4
      shli r3, 8
      addi r3, 53            ; 53 and 1077 cycles by turns
      stw  r3, [r1+4]        ; a new period ...
      movi r3, 0
      stw  r3, [r1]
      movi r3, 1
      stw  r3, [r1]          ; ... and a restart: the next tick moves
)" + quiet_run + R"(
  no_mmio:
      cmpi r0, 300
      jnz  main
      hlt
  tick:
      push r1
      ldw  r1, [r2+4]
      addi r1, 1
      stw  r1, [r2+4]
      pop  r1
      iret
  patched:
      addi r6, 2
  data:
      .word 0, 0
  )";
  constexpr std::uint32_t kPeriod = 97;
  // One long sweep: every limit for the first few thousand cycles, then
  // random strides, so chains start and stop at every offset of the loop.
  const auto cached = sweep_run_limits(source, kPeriod, 4'000).cached;
  ASSERT_TRUE(cached->halted());
  EXPECT_EQ(cached->cpu().regs[0], 300u);
  EXPECT_GT(cached->interrupts_dispatched(), 100u);
  EXPECT_GT(cached->decode_cache().stats().code_writes, 0u);
  // One run() from reset to each of a window of consecutive limits: the
  // longest chains, each stopped at a different offset.
  for (std::uint64_t end = 20'000; end < 20'200 && !::testing::Test::HasFailure(); ++end) {
    const auto fresh = timed_machine(DispatchMode::kCached, source, kPeriod);
    const auto reference = timed_machine(DispatchMode::kInterpreter, source, kPeriod);
    fresh->run(end);
    reference->run(end);
    expect_same_state(*fresh, *reference, "one run to " + std::to_string(end));
  }
}

TEST(Dispatch, QuietRunSpanningAWholeBlock) {
  const auto cached = sweep_run_limits(quiet_run_program(), 61, 6'000).cached;
  ASSERT_TRUE(cached->halted());
  EXPECT_EQ(cached->cpu().regs[0], 40u);
  EXPECT_GT(cached->interrupts_dispatched(), 50u);
}

TEST(Dispatch, JumpTableAndReturnsMatchThroughLut) {
  // An 8-way jmpr table and a callr whose targets and return sites change
  // every pass: the dispatch, case and return blocks are entered through
  // the block-head LUT from ever-changing predecessors.  `leaf` returns to
  // six call sites, `mid` to two.
  const std::string source = R"(
      movi r0, 0
      movi r5, 0
      sti
  main:
      mov  r1, r0
      andi r1, 7
      shli r1, 2
      li   r2, table
      add  r2, r1
      ldw  r2, [r2]
      jmpr r2
  case0:
      call leaf
      jmp  next
  case1:
      addi r5, 3
      call mid
      jmp  next
  case2:
      call leaf
      call leaf
      jmp  next
  case3:
      xor  r5, r0
      jmp  next
  case4:
      call mid
      jmp  next
  case5:
      subi r5, 1
      call leaf
      jmp  next
  case6:
      rdcyc r4
      add  r5, r4
      jmp  next
  case7:
      li   r3, leaf
      callr r3
  next:
      addi r0, 1
      cmpi r0, 400
      jnz  main
      hlt
  mid:
      addi r5, 5
      call leaf
      addi r5, 1
      ret
  leaf:
      shli r5, 1
      addi r5, 1
      ret
  tick:
      addi r6, 1
      iret
  table:
      .word case0, case1, case2, case3, case4, case5, case6, case7
  )";
  Lockstep ls(source);
  ls.run(100'000);
  EXPECT_TRUE(ls.cached->halted());
  EXPECT_EQ(ls.cached->cpu().regs[0], 400u);
  const auto cached = sweep_run_limits(source, 89, 3'000).cached;
  ASSERT_TRUE(cached->halted());
  EXPECT_EQ(cached->cpu().regs[0], 400u);
  EXPECT_GT(cached->interrupts_dispatched(), 100u);
}

TEST(Dispatch, StoreKillsCachedSuccessor) {
  // `pred` builds `succ` on the first pass and enters it through the
  // block-head LUT on the second.  The third pass stores into `succ`,
  // erasing its block, and then comes back to it through one-op blocks
  // entered by the LUT only (`skip`, `pred`): no block is built that could
  // free or reuse the erased one first.  Its LUT entry must miss (the
  // generation moved), and `succ` must run the patched word.
  Lockstep ls(R"(
      li   r1, succ
      li   r2, patched
      ldw  r3, [r2]       ; r3 = encoding of "addi r6, 7"
      movi r0, 0
  pred:
      jmp  succ
  succ:
      addi r6, 1          ; "addi r6, 7" once the third pass patched it
      addi r0, 1
      cmpi r0, 7
      jz   done
      cmpi r0, 3
      jnz  skip
      stw  r3, [r1]       ; third pass only: kill the cached successor
  skip:
      jmp  pred
  done:
      hlt
  patched:
      addi r6, 7
  )");
  ls.run(1'000);
  EXPECT_TRUE(ls.cached->halted());
  EXPECT_EQ(ls.cached->cpu().regs[6], 3u + 4u * 7u);
  EXPECT_EQ(ls.cached->decode_cache().stats().code_writes, 1u);
}

TEST(Dispatch, PolicyEpochKillsCachedSuccessor) {
  // `succ` lies in protected data that only its own execution region may
  // fetch.  After `pred` has entered it through the LUT, removing the
  // region (an EA-MPU epoch bump) after `pred`'s jump, with EIP on `succ`,
  // must kill the LUT entry: the entry faults on the fetch exactly as the
  // interpreter does.  A pass
  // later the jump's own memoized transfer verdict must have died too.
  Lockstep ls(R"(
      movi r0, 0
  pred:
      addi r0, 1
      jmp  succ
  handler:
      addi r5, 1          ; hlt is privileged under a policy: spin instead
  spin:
      jmp  spin
  succ:
      addi r6, 1
      jmp  pred
  )");
  const std::uint32_t succ = ls.addr("succ");
  EaMpu mpu;
  auto region = mpu.add_exec_region(
      {.start = succ, .size = 8, .entry = ExecRegion::kEntryAnywhere});
  ASSERT_TRUE(region.is_ok());
  ASSERT_TRUE(mpu.write_slot(0, Rule{.code_start = succ,
                                     .code_size = 8,
                                     .data_start = succ,
                                     .data_size = 8,
                                     .perms = kPermRead})
                  .is_ok());
  for (Machine* m : {ls.interp.get(), ls.cached.get()}) {
    m->set_policy(&mpu);
    m->set_idt_entry(kVecFault, ls.addr("handler"));
  }
  const std::uint32_t pred = ls.addr("pred");
  ASSERT_TRUE(ls.run_to(pred, 100));
  for (int pass = 0; pass < 3; ++pass) {
    ASSERT_TRUE(ls.run(1));
    ASSERT_TRUE(ls.run_to(pred, 100));
  }
  ASSERT_TRUE(ls.run(1));
  ASSERT_TRUE(ls.run_to(succ, 100));
  EXPECT_EQ(ls.cached->cpu().regs[6], 3u);
  EXPECT_EQ(ls.cached->fault_count(), 0u);
  ASSERT_TRUE(mpu.remove_exec_region(*region).is_ok());
  ASSERT_TRUE(ls.run(1));
  EXPECT_EQ(ls.cached->fault_count(), 1u);
  EXPECT_EQ(ls.cached->last_fault().type, FaultType::kMpuFetch);
  EXPECT_EQ(ls.cached->last_fault().eip, succ);
  EXPECT_EQ(ls.cached->cpu().regs[6], 3u);
  // Back at `pred` once more: without its region `succ` is protected data,
  // and the jump into it faults.
  ls.cached->cpu().eip = pred;
  ls.interp->cpu().eip = pred;
  ASSERT_TRUE(ls.run(2));
  EXPECT_EQ(ls.cached->fault_count(), 2u);
  EXPECT_EQ(ls.cached->last_fault().type, FaultType::kMpuTransfer);
  EXPECT_EQ(ls.cached->last_fault().addr, succ);
  EXPECT_EQ(ls.cached->cpu().regs[6], 3u);
}

TEST(Dispatch, MemoizedDataVerdictDiesWithPolicyEpoch) {
  // A load's memoized grant must not outlive the rule that granted it: a
  // slot rewrite between two run() calls revokes it on the next pass.
  const char* source = R"(
      li   r2, data
  loop:
      ldw  r3, [r2]
      addi r0, 1
      jmp  loop
  data:
      .word 0x5EC12E7
  )";
  for (const DispatchMode mode : {DispatchMode::kCached, DispatchMode::kInterpreter}) {
    auto machine = std::make_unique<Machine>();
    machine->set_dispatch_mode(mode);
    const auto symbols = load_program(*machine, source);
    const std::uint32_t data = kCodeBase + symbols.at("data");
    EaMpu mpu;
    Rule grant{.code_start = kCodeBase,
               .code_size = data - kCodeBase,
               .data_start = data,
               .data_size = 4,
               .perms = kPermRead};
    ASSERT_TRUE(mpu.write_slot(0, grant).is_ok());
    machine->set_policy(&mpu);
    machine->run(1'000);
    EXPECT_EQ(machine->fault_count(), 0u);
    EXPECT_EQ(machine->cpu().regs[3], 0x5EC12E7u);
    const std::uint32_t passes = machine->cpu().regs[0];
    grant.perms = 0;  // the data stays protected; nobody may read it
    ASSERT_TRUE(mpu.write_slot(0, grant).is_ok());
    machine->cpu().regs[3] = 0;
    machine->run(2'000);
    EXPECT_EQ(machine->last_fault().type, FaultType::kMpuData);
    EXPECT_EQ(machine->last_fault().eip, kCodeBase + symbols.at("loop"));
    EXPECT_EQ(machine->cpu().regs[3], 0u);
    EXPECT_EQ(machine->cpu().regs[0], passes);
  }
}

TEST(Dispatch, DataWordSharingCodeLineKeepsGeneration) {
  // Loads and stores to a data word placed directly after the last code
  // word — same 32-byte line, different 4-byte granule — touch no cached
  // block, so no block may die and no cursor may be invalidated.
  Lockstep ls(R"(
      li   r2, data
      movi r0, 0
  loop:
      ldw  r3, [r2]
      addi r3, 1
      stw  r3, [r2]
      stb  r3, [r2+3]
      addi r0, 1
      cmpi r0, 100
      jnz  loop
      hlt
  data:
      .word 0
  )");
  const std::uint32_t data = ls.addr("data");
  ASSERT_NE(data % 32, 0u) << "the data word must share a line with code";
  const std::uint64_t generation = ls.cached->decode_cache().generation();
  ls.run(20'000);
  EXPECT_TRUE(ls.cached->halted());
  EXPECT_EQ(ls.cached->memory().read32(data), ls.interp->memory().read32(data));
  EXPECT_EQ(ls.cached->decode_cache().generation(), generation);
  EXPECT_EQ(ls.cached->decode_cache().stats().code_writes, 0u);
}

TEST(Dispatch, ByteStoreIntoLastBlockWordErasesIt) {
  // `sub`'s block ends with the jmp at `last`.  Each pass stores one byte
  // into that word's immediate, retargeting the jmp from ret_a to ret_b, so
  // every pass must erase and rebuild the block.
  const std::uint32_t to_a = isa::encode({isa::Opcode::kJmp, 0, 0, 0});
  const std::uint32_t to_b = isa::encode({isa::Opcode::kJmp, 0, 0, 4});
  ASSERT_EQ(to_a ^ to_b, 4u) << "the retarget must be a one-byte store";
  Lockstep ls(R"(
      li   r1, last
      movi r3, 4
      movi r0, 0
  loop:
      call sub
      stb  r3, [r1]
      addi r0, 1
      cmpi r0, 10
      jnz  loop
      hlt
  sub:
      addi r5, 1
  last:
      jmp  ret_a
  ret_a:
      ret
  ret_b:
      addi r6, 1
      ret
  )");
  ls.run(20'000);
  EXPECT_TRUE(ls.cached->halted());
  EXPECT_EQ(ls.cached->cpu().regs[6], 9u);
  EXPECT_EQ(ls.cached->decode_cache().stats().code_writes, 10u);
}

TEST(Dispatch, StoreIntoSharedTailErasesBothBlocks) {
  // Entering the loop at `loop` and at `mid` builds two blocks that share
  // the tail through `tail` (so does the entry block).  One store into the
  // shared tail must erase all of them; a survivor would replay the old
  // `movi r6, 1` on its path and diverge from the interpreter.
  Lockstep ls(R"(
      li   r1, tail
      li   r2, patched
      ldw  r3, [r2]       ; r3 = encoding of "movi r6, 7"
      movi r0, 0
      movi r4, 0
  loop:
      mov  r5, r0
      andi r5, 1
      cmpi r5, 1
      jz   mid            ; odd passes enter at mid
      addi r4, 1
  mid:
      addi r4, 2
  tail:
      movi r6, 1
      add  r4, r6
      addi r0, 1
      cmpi r0, 2
      jnz  skip
  patch:
      stw  r3, [r1]
  skip:
      cmpi r0, 6
      jlt  loop
      hlt
  patched:
      movi r6, 7
  )");
  ASSERT_TRUE(ls.run_to(ls.addr("patch"), 1'000));
  const std::size_t before = ls.cached->decode_cache().block_count();
  ASSERT_TRUE(ls.run(1));
  // The entry block, the `loop` block and the `mid` block all cover `tail`;
  // the `skip` block does not.
  EXPECT_EQ(before - ls.cached->decode_cache().block_count(), 3u);
  ls.run(20'000);
  EXPECT_TRUE(ls.cached->halted());
  EXPECT_EQ(ls.cached->cpu().regs[6], 7u);
}

TEST(Dispatch, SelfModifyingStoresFuzz) {
  // Seeded self-modifying-code differential.  A straight-line driver calls
  // a code region over and over; before each call it picks a random target
  // inside the region and a value that keeps the patched bytes decodable
  // (now and then plain garbage), stores it itself half the time, and the
  // region repeats the store from a random position in its own block.
  // Stores land on any byte alignment and straddle words.
  std::mt19937 rng(0x5EEDC0DE);
  constexpr std::uint32_t kRegion = kCodeBase + 0x800;
  const auto reg = [&](bool allow_r0) {
    const std::uint32_t r = rng() % (allow_r0 ? 5 : 4);
    return static_cast<std::uint8_t>(r == 4 ? 0 : 3 + r);
  };
  const auto random_op = [&]() {
    using isa::Opcode;
    static constexpr Opcode kOps[] = {Opcode::kAddi, Opcode::kMovi, Opcode::kXor,
                                      Opcode::kAdd,  Opcode::kShli, Opcode::kSubi,
                                      Opcode::kNop};
    const Opcode op = kOps[rng() % std::size(kOps)];
    const bool reg_form = op == Opcode::kXor || op == Opcode::kAdd;
    return isa::encode({op, reg(true), reg_form ? reg(true) : std::uint8_t{0},
                        static_cast<std::uint16_t>(reg_form ? 0 : rng() % 64)});
  };
  std::uint64_t code_writes = 0;
  for (int trial = 0; trial < 200; ++trial) {
    // The region: random harmless ops on r0/r3..r6, one store of r2 to [r1]
    // at a random position, then ret (never a target, so calls return).
    const bool byte_store = rng() % 2 == 0;
    const std::uint32_t region_ops = 4 + rng() % 40;
    const std::uint32_t store_at = rng() % (region_ops - 1);
    std::vector<std::uint32_t> region;
    for (std::uint32_t i = 0; i + 1 < region_ops; ++i) {
      region.push_back(i == store_at
                           ? isa::encode({byte_store ? isa::Opcode::kStb : isa::Opcode::kStw,
                                          2, 1, 0})
                           : random_op());
    }
    region.push_back(isa::encode({isa::Opcode::kRet, 0, 0, 0}));
    const std::uint32_t patchable = 4 * (region_ops - 1);

    std::vector<std::uint32_t> driver;
    const auto li = [&](std::uint8_t rd, std::uint32_t value) {
      driver.push_back(isa::encode({isa::Opcode::kMoviu, rd, 0,
                                    static_cast<std::uint16_t>(value & 0xFFFF)}));
      driver.push_back(
          isa::encode({isa::Opcode::kMovhi, rd, 0, static_cast<std::uint16_t>(value >> 16)}));
    };
    const std::uint32_t stores = 8 + rng() % 17;
    for (std::uint32_t i = 0; i < stores; ++i) {
      const std::uint32_t offset = rng() % (byte_store ? patchable : patchable - 3);
      const unsigned shift = 8 * (offset % 4);
      // Byte k of the stored value lands on byte (offset + k) % 4 of its
      // word: take those bytes from valid encodings.
      std::uint32_t value = random_op() >> shift;
      if (shift != 0) {
        value |= random_op() << (32 - shift);
      }
      if (rng() % 16 == 0) {
        value = rng();
      }
      li(1, kRegion + offset);
      li(2, value);
      if (rng() % 2 == 0) {
        driver.push_back(isa::encode(
            {rng() % 2 == 0 ? isa::Opcode::kStb : isa::Opcode::kStw, 2, 1, 0}));
      }
      const std::uint32_t next = kCodeBase + 4 * static_cast<std::uint32_t>(driver.size()) + 4;
      driver.push_back(
          isa::encode({isa::Opcode::kCall, 0, 0, static_cast<std::uint16_t>(kRegion - next)}));
    }
    driver.push_back(isa::encode({isa::Opcode::kHlt, 0, 0, 0}));
    ASSERT_LE(4 * driver.size(), kRegion - kCodeBase);

    auto interp_ptr = std::make_unique<Machine>();
    auto cached_ptr = std::make_unique<Machine>();
    interp_ptr->set_dispatch_mode(DispatchMode::kInterpreter);
    cached_ptr->set_dispatch_mode(DispatchMode::kCached);
    for (Machine* m : {interp_ptr.get(), cached_ptr.get()}) {
      for (std::size_t i = 0; i < driver.size(); ++i) {
        m->memory().write32(kCodeBase + 4 * static_cast<std::uint32_t>(i), driver[i]);
      }
      for (std::size_t i = 0; i < region.size(); ++i) {
        m->memory().write32(kRegion + 4 * static_cast<std::uint32_t>(i), region[i]);
      }
      m->cpu().eip = kCodeBase;
      m->cpu().set_sp(kStackTop);
    }
    for (std::uint64_t i = 0; i < 5'000; ++i) {
      if (!lockstep_once(*interp_ptr, *cached_ptr, i)) {
        break;
      }
    }
    ASSERT_FALSE(::testing::Test::HasFailure()) << "diverged in trial " << trial;
    const auto a = interp_ptr->memory().view(kRegion, 4 * region_ops);
    const auto b = cached_ptr->memory().view(kRegion, 4 * region_ops);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "trial " << trial;
    code_writes += cached_ptr->decode_cache().stats().code_writes;
  }
  // The corpus must actually exercise erasing stores.
  EXPECT_GT(code_writes, 2'000u);
}

TEST(Dispatch, FirmwareCollisionWithCachedBlock) {
  // Register a firmware entry point at an address already inside a cached
  // block: the registration must invalidate the cache so the fast path can
  // never step over the firmware hook.
  auto interp_ptr = std::make_unique<Machine>();
  auto cached_ptr = std::make_unique<Machine>();
  Machine& interp = *interp_ptr;
  Machine& cached = *cached_ptr;
  interp.set_dispatch_mode(DispatchMode::kInterpreter);
  cached.set_dispatch_mode(DispatchMode::kCached);
  const char* source = R"(
      movi r0, 0
  loop:
      addi r0, 1
  hook_site:
      nop
      nop
      cmpi r0, 10
      jnz  loop
      hlt
  )";
  const auto symbols = load_program(interp, source);
  load_program(cached, source);
  // Warm both machines through a few iterations (the cache builds blocks
  // spanning the nops), then drop a firmware hook onto the first nop.
  for (std::uint64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(lockstep_once(interp, cached, i));
  }
  const std::uint32_t hook = kCodeBase + symbols.at("hook_site");
  int interp_calls = 0;
  int cached_calls = 0;
  interp.register_firmware(hook, "hook", [&](Machine& m) {
    ++interp_calls;
    m.charge(3);
    m.cpu().eip = hook + isa::kInstrSize;
  });
  cached.register_firmware(hook, "hook", [&](Machine& m) {
    ++cached_calls;
    m.charge(3);
    m.cpu().eip = hook + isa::kInstrSize;
  });
  for (std::uint64_t i = 12; i < 2'000; ++i) {
    if (!lockstep_once(interp, cached, i)) {
      break;
    }
  }
  EXPECT_GT(cached_calls, 0);
  EXPECT_EQ(interp_calls, cached_calls);
}

TEST(Dispatch, FuzzedWordsFaultIdentically) {
  // Pseudo-random instruction words (fixed seed): most decode to garbage or
  // fault mid-execution.  Both modes must produce the identical fault
  // stream.  The machine is re-seeded every round so fault halts don't end
  // the corpus early.
  std::mt19937 rng(0xC0FFEE);
  for (int round = 0; round < 40; ++round) {
    auto interp_ptr = std::make_unique<Machine>();
    auto cached_ptr = std::make_unique<Machine>();
    Machine& interp = *interp_ptr;
    Machine& cached = *cached_ptr;
    interp.set_dispatch_mode(DispatchMode::kInterpreter);
    cached.set_dispatch_mode(DispatchMode::kCached);
    for (Machine* m : {&interp, &cached}) {
      m->cpu().eip = kCodeBase;
      m->cpu().set_sp(kStackTop);
      m->set_idt_entry(kVecFault, kCodeBase + 0x1000);
    }
    std::mt19937 words(rng());  // same stream into both machines
    for (std::uint32_t off = 0; off < 0x80; off += 4) {
      const std::uint32_t word = words();
      interp.memory().write32(kCodeBase + off, word);
      cached.memory().write32(kCodeBase + off, word);
      // A plausible handler body at the fault vector target: iret.
      interp.memory().write32(kCodeBase + 0x1000 + off, 0x41000000u);
      cached.memory().write32(kCodeBase + 0x1000 + off, 0x41000000u);
    }
    for (std::uint64_t i = 0; i < 500; ++i) {
      if (!lockstep_once(interp, cached, i)) {
        break;
      }
    }
    ASSERT_FALSE(::testing::Test::HasFailure()) << "diverged in round " << round;
  }
}

// ------------------------------------------------------------- Code index

/// Brute-force model of the decode cache's block set: a write erases every
/// block it intersects, and the generation bumps once per write that
/// erased something (and on every invalidate_all).
struct ReferenceCache {
  std::map<std::uint32_t, std::uint32_t> blocks;  ///< start -> end
  std::uint64_t generation = 0;

  void write(std::uint32_t addr, std::uint32_t len) {
    bool erased = false;
    for (auto it = blocks.begin(); it != blocks.end();) {
      if (addr < it->second && addr + len > it->first) {
        it = blocks.erase(it);
        erased = true;
      } else {
        ++it;
      }
    }
    generation += erased ? 1 : 0;
  }
};

DecodeCache::Block make_block(std::uint32_t start, std::uint32_t ops) {
  DecodeCache::Block block;
  block.start = start;
  block.end = start + 4 * ops;
  block.ops.resize(ops);
  for (std::uint32_t i = 0; i < ops; ++i) {
    block.ops[i].pc = start + 4 * i;
  }
  return block;
}

void expect_same_blocks(DecodeCache& cache, const ReferenceCache& ref,
                        const std::string& after) {
  ASSERT_EQ(cache.generation(), ref.generation) << "after " << after;
  ASSERT_EQ(cache.block_count(), ref.blocks.size()) << "after " << after;
  for (const auto& [start, end] : ref.blocks) {
    const DecodeCache::Block* block = cache.find(start);
    ASSERT_NE(block, nullptr) << "block " << start << " lost after " << after;
    ASSERT_EQ(block->end, end) << "after " << after;
  }
}

TEST(DecodeCacheIndex, WritesEraseExactlyTheIntersectedBlocks) {
  // The code index may only make the scan cheaper: after every write the
  // surviving blocks and the generation must equal the brute-force model.
  constexpr std::uint32_t kSize = 0x4000;
  PhysicalMemory memory(kSize);
  DecodeCache cache;
  cache.attach(&memory);
  ReferenceCache ref;
  ref.generation = cache.generation();
  std::mt19937 rng(0xB10C);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> erased;  // for rebuilds

  const auto insert = [&](std::uint32_t start, std::uint32_t ops) {
    if (ops == 0 || ref.blocks.contains(start)) {
      return;
    }
    cache.insert(make_block(start, ops));
    ref.blocks[start] = start + 4 * ops;
  };
  // kind: 0 write8, 1 write32, 2 write_block, 3 fill; len must match.
  const auto write = [&](int kind, std::uint32_t addr, std::uint32_t len) {
    const auto before = ref.blocks;
    std::string what;
    switch (kind) {
      case 0:
        memory.write8(addr, static_cast<std::uint8_t>(rng()));
        what = "write8";
        break;
      case 1:
        memory.write32(addr, rng());
        what = "write32";
        break;
      case 2: {
        std::vector<std::uint8_t> bytes(len, static_cast<std::uint8_t>(rng()));
        memory.write_block(addr, bytes);
        what = "write_block";
        break;
      }
      default:
        memory.fill(addr, len, static_cast<std::uint8_t>(rng()));
        what = "fill";
        break;
    }
    ref.write(addr, len);
    for (const auto& [start, end] : before) {
      if (!ref.blocks.contains(start)) {
        erased.emplace_back(start, end);
      }
    }
    expect_same_blocks(cache, ref,
                       what + " at " + std::to_string(addr) + "+" + std::to_string(len));
  };

  // Scripted edges.  A and B share a tail; C starts mid-granule right
  // after it.  A byte in C's first granule but before C erases nothing;
  // a word straddling A's end erases A, B and C.
  insert(0x100, 8);  // A [0x100, 0x120)
  insert(0x110, 4);  // B [0x110, 0x120)
  insert(0x121, 2);  // C [0x121, 0x129)
  ASSERT_NO_FATAL_FAILURE(write(0, 0x120, 1));
  ASSERT_NO_FATAL_FAILURE(write(1, 0x11E, 4));
  // Stale bits: A's other granules stay marked after the erase.  A write
  // there finds nothing; after a rebuild the same write must erase A.
  ASSERT_NO_FATAL_FAILURE(write(0, 0x104, 1));
  insert(0x100, 8);
  ASSERT_NO_FATAL_FAILURE(write(0, 0x104, 1));
  insert(0x100, 8);
  ASSERT_NO_FATAL_FAILURE(write(1, 0xFD, 4));  // straddles A's start

  for (int round = 0; round < 6'000; ++round) {
    const std::uint32_t action = rng() % 100;
    if (action < 35 && ref.blocks.size() < 96) {
      const std::uint32_t pick = rng() % 4;
      if (pick == 0 && !ref.blocks.empty()) {
        // Overlapping head: enter an existing block mid-way, share its tail.
        auto it = ref.blocks.begin();
        std::advance(it, rng() % ref.blocks.size());
        const std::uint32_t ops = (it->second - it->first) / 4;
        if (ops > 1) {
          const std::uint32_t skip = 1 + rng() % (ops - 1);
          insert(it->first + 4 * skip, ops - skip);
        }
      } else if (pick == 1 && !erased.empty()) {
        // Rebuild an erased block over its stale bits.
        const auto [start, end] = erased[rng() % erased.size()];
        insert(start, (end - start) / 4);
      } else {
        const std::uint32_t start = rng() % (kSize - 4);
        const std::uint32_t room = (kSize - start) / 4;
        const std::uint32_t ops =
            1 + rng() % static_cast<std::uint32_t>(DecodeCache::kMaxBlockOps);
        insert(start, std::min(ops, room));
      }
      ASSERT_NO_FATAL_FAILURE(expect_same_blocks(cache, ref, "insert"));
    } else if (action < 97) {
      const int kind = static_cast<int>(rng() % 4);
      const std::uint32_t len =
          kind == 0 ? 1 : kind == 1 ? 4 : 1 + rng() % (rng() % 8 == 0 ? 700 : 24);
      std::uint32_t addr = rng() % kSize;
      if (rng() % 2 == 0 && !ref.blocks.empty()) {
        // Aim at a block edge: a few bytes either side of its start or end.
        auto it = ref.blocks.begin();
        std::advance(it, rng() % ref.blocks.size());
        const std::uint32_t edge = rng() % 2 == 0 ? it->first : it->second;
        const std::uint32_t delta = rng() % 13;
        addr = edge >= 6 ? edge - 6 + delta : delta;
      }
      addr = std::min(addr, kSize - len);
      ASSERT_NO_FATAL_FAILURE(write(kind, addr, len));
    } else {
      cache.invalidate_all();
      ref.blocks.clear();
      ++ref.generation;
      ASSERT_NO_FATAL_FAILURE(expect_same_blocks(cache, ref, "invalidate_all"));
    }
  }
  EXPECT_GT(erased.size(), 1'000u);
}

TEST(Dispatch, CacheStatsAndInvalidation) {
  // Direct decode-cache behavior: hits accumulate on re-execution, and
  // invalidate_decode_cache() drops every block.
  auto machine_ptr = std::make_unique<Machine>();
  Machine& machine = *machine_ptr;
  machine.set_dispatch_mode(DispatchMode::kCached);
  load_program(machine, R"(
      movi r0, 0
  loop:
      addi r0, 1
      cmpi r0, 50
      jnz  loop
      hlt
  )");
  machine.run(10'000);
  const DecodeCache::Stats& stats = machine.decode_cache().stats();
  EXPECT_GT(stats.builds, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(machine.decode_cache().block_count(), 0u);
  machine.invalidate_decode_cache();
  EXPECT_EQ(machine.decode_cache().block_count(), 0u);
}

}  // namespace
}  // namespace tytan::sim
