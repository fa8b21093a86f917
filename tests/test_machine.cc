// CPU interpreter, exception engine, MMIO, and cycle accounting — exercised
// on a bare machine (no EA-MPU policy).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <vector>

#include "core/key_register.h"
#include "isa/assembler.h"
#include "random_eampu.h"
#include "sim/devices.h"
#include "sim/machine.h"

namespace tytan::sim {
namespace {

constexpr std::uint32_t kCodeBase = 0x40000;
constexpr std::uint32_t kStackTop = 0x48000;

/// Assemble and run `source` at kCodeBase until HLT (or cycle limit).
std::unique_ptr<Machine> run_program(std::string_view source,
                                     std::uint64_t limit = 200'000) {
  auto object = isa::assemble(source);
  EXPECT_TRUE(object.is_ok()) << object.status().to_string();
  // Machine is non-movable (the obs clock is wired to it once, in the
  // constructor), so the helper hands back a unique_ptr.
  auto machine_ptr = std::make_unique<Machine>();
  Machine& machine = *machine_ptr;
  ByteVec image = object->image;
  for (const isa::Relocation& reloc : object->relocs) {
    // Minimal loader for bare tests.
    const std::uint32_t value = reloc.addend + kCodeBase;
    std::uint8_t* site = image.data() + reloc.offset;
    switch (reloc.kind) {
      case isa::RelocKind::kAbs32: store_le32(site, value); break;
      case isa::RelocKind::kLo16:
        store_le32(site, (load_le32(site) & 0xFFFF0000u) | (value & 0xFFFF));
        break;
      case isa::RelocKind::kHi16:
        store_le32(site, (load_le32(site) & 0xFFFF0000u) | (value >> 16));
        break;
    }
  }
  machine.memory().write_block(kCodeBase, image);
  machine.cpu().eip = kCodeBase + object->entry;
  machine.cpu().set_sp(kStackTop);
  machine.run(limit);
  return machine_ptr;
}

TEST(Machine, ArithmeticAndFlags) {
  auto m_ptr = run_program(R"(
      movi r0, 10
      addi r0, 5
      movi r1, 3
      sub  r0, r1      ; r0 = 12
      movi r2, 4
      mul  r2, r0      ; r2 = 48
      hlt
  )");
  Machine& m = *m_ptr;
  EXPECT_EQ(m.halt_reason(), HaltReason::kHltInstruction);
  EXPECT_EQ(m.cpu().regs[0], 12u);
  EXPECT_EQ(m.cpu().regs[2], 48u);
}

TEST(Machine, Immediate32BitMaterialization) {
  auto m_ptr = run_program(R"(
      li r3, 0xdeadbeef
      hlt
  )");
  Machine& m = *m_ptr;
  EXPECT_EQ(m.cpu().regs[3], 0xdeadbeefu);
}

TEST(Machine, LoopWithConditionalBranch) {
  auto m_ptr = run_program(R"(
      movi r0, 0
      movi r1, 10
  loop:
      addi r0, 1
      cmp  r0, r1
      jnz  loop
      hlt
  )");
  Machine& m = *m_ptr;
  EXPECT_EQ(m.cpu().regs[0], 10u);
}

TEST(Machine, SignedComparisons) {
  auto m_ptr = run_program(R"(
      movi r0, -3
      cmpi r0, 2
      jlt  is_less
      movi r5, 0
      hlt
  is_less:
      movi r5, 1
      hlt
  )");
  Machine& m = *m_ptr;
  EXPECT_EQ(m.cpu().regs[5], 1u);
}

TEST(Machine, UnsignedComparisonViaCarry) {
  auto m_ptr = run_program(R"(
      movi r0, 1
      cmpi r0, 2        ; 1 - 2 borrows -> carry set
      jc   below
      movi r5, 0
      hlt
  below:
      movi r5, 1
      hlt
  )");
  Machine& m = *m_ptr;
  EXPECT_EQ(m.cpu().regs[5], 1u);
}

TEST(Machine, MemoryLoadsAndStores) {
  auto m_ptr = run_program(R"(
      li   r1, buffer
      movi r2, 0x55
      stw  r2, [r1]
      ldw  r3, [r1]
      stb  r2, [r1+4]
      ldb  r4, [r1+4]
      hlt
  buffer:
      .word 0, 0
  )");
  Machine& m = *m_ptr;
  EXPECT_EQ(m.cpu().regs[3], 0x55u);
  EXPECT_EQ(m.cpu().regs[4], 0x55u);
}

TEST(Machine, CallRetAndStack) {
  auto m_ptr = run_program(R"(
      movi r0, 5
      call double
      call double
      hlt
  double:
      add r0, r0
      ret
  )");
  Machine& m = *m_ptr;
  EXPECT_EQ(m.cpu().regs[0], 20u);
  EXPECT_EQ(m.cpu().sp(), kStackTop);  // balanced
}

TEST(Machine, PushPop) {
  auto m_ptr = run_program(R"(
      movi r0, 7
      push r0
      movi r0, 0
      pop  r1
      hlt
  )");
  Machine& m = *m_ptr;
  EXPECT_EQ(m.cpu().regs[1], 7u);
}

TEST(Machine, SoftwareInterruptAndIret) {
  // Handler increments r5 and returns; IDT set up by the test.
  auto object = isa::assemble(R"(
      sti
      movi r5, 0
      int  0x21
      int  0x21
      hlt
  handler:
      addi r5, 1
      iret
  )");
  ASSERT_TRUE(object.is_ok());
  Machine machine;
  machine.memory().write_block(kCodeBase, object->image);
  machine.set_idt_entry(kVecSyscall, kCodeBase + object->symbols.at("handler"));
  machine.cpu().eip = kCodeBase;
  machine.cpu().set_sp(kStackTop);
  machine.run(100'000);
  EXPECT_EQ(machine.halt_reason(), HaltReason::kHltInstruction);
  EXPECT_EQ(machine.cpu().regs[5], 2u);
  EXPECT_EQ(machine.interrupts_dispatched(), 2u);
  EXPECT_EQ(machine.cpu().sp(), kStackTop);
}

TEST(Machine, InterruptLatchesOriginAndVector) {
  auto object = isa::assemble(R"(
      int 0x22
      hlt
  handler:
      iret
  )");
  ASSERT_TRUE(object.is_ok());
  Machine machine;
  machine.memory().write_block(kCodeBase, object->image);
  machine.set_idt_entry(kVecIpc, kCodeBase + object->symbols.at("handler"));
  machine.cpu().eip = kCodeBase;
  machine.cpu().set_sp(kStackTop);
  machine.run(10'000);
  EXPECT_EQ(machine.int_vector(), kVecIpc);
  EXPECT_EQ(machine.int_origin_eip(), kCodeBase);  // the INT instruction
}

TEST(Machine, BadOpcodeFaultsAndHaltsWithoutHandler) {
  Machine machine;
  machine.memory().write32(kCodeBase, 0xEE000000u);
  machine.cpu().eip = kCodeBase;
  machine.run(1'000);
  EXPECT_EQ(machine.halt_reason(), HaltReason::kDoubleFault);
  EXPECT_EQ(machine.last_fault().type, FaultType::kBadOpcode);
}

TEST(Machine, FaultVectorsToHandler) {
  auto object = isa::assemble(R"(
      .word 0xEE000000      ; invalid opcode at entry
  handler:
      movi r6, 99
      hlt
  )");
  ASSERT_TRUE(object.is_ok());
  Machine machine;
  machine.memory().write_block(kCodeBase, object->image);
  machine.set_idt_entry(kVecFault, kCodeBase + object->symbols.at("handler"));
  machine.cpu().eip = kCodeBase;
  machine.cpu().set_sp(kStackTop);
  machine.run(1'000);
  EXPECT_EQ(machine.cpu().regs[6], 99u);
  EXPECT_EQ(machine.fault_count(), 1u);
}

TEST(Machine, BusErrorOnOutOfBounds) {
  auto m_ptr = run_program(R"(
      li  r1, 0x200000      ; beyond physical memory
      ldw r2, [r1]
      hlt
  )", 1'000);
  Machine& m = *m_ptr;
  EXPECT_EQ(m.last_fault().type, FaultType::kBusError);
}

TEST(Machine, SerialMmioWrite) {
  Machine machine;
  auto serial = std::make_shared<SerialConsole>();
  machine.bus().attach(serial);
  auto object = isa::assemble(R"(
      li   r1, 0x100100   ; serial DATA
      movi r2, 72         ; 'H'
      stw  r2, [r1]
      movi r2, 105        ; 'i'
      stw  r2, [r1]
      hlt
  )");
  ASSERT_TRUE(object.is_ok());
  machine.memory().write_block(kCodeBase, object->image);
  machine.cpu().eip = kCodeBase;
  machine.cpu().set_sp(kStackTop);
  machine.run(10'000);
  EXPECT_EQ(serial->output(), "Hi");
}

TEST(Machine, TimerRaisesPeriodicIrq) {
  Machine machine;
  auto timer = std::make_shared<TimerDevice>();
  timer->set_irq_sink([&machine](std::uint8_t v) { machine.raise_irq(v); });
  machine.bus().attach(timer);

  auto object = isa::assemble(R"(
      sti
  spin:
      jmp spin
  handler:
      addi r5, 1
      cmpi r5, 3
      jz   done
      iret
  done:
      hlt
  )");
  ASSERT_TRUE(object.is_ok());
  Machine* m = &machine;
  (void)m;
  machine.memory().write_block(kCodeBase, object->image);
  machine.set_idt_entry(kVecTimer, kCodeBase + object->symbols.at("handler"));
  machine.cpu().eip = kCodeBase;
  machine.cpu().set_sp(kStackTop);
  timer->write32(TimerDevice::kPeriod, 500);
  timer->write32(TimerDevice::kCtrl, 1);
  machine.run(50'000);
  EXPECT_EQ(machine.halt_reason(), HaltReason::kHltInstruction);
  EXPECT_EQ(machine.cpu().regs[5], 3u);
  EXPECT_GE(timer->ticks_fired(), 3u);
}

TEST(Machine, CliMasksInterrupts) {
  Machine machine;
  auto timer = std::make_shared<TimerDevice>();
  timer->set_irq_sink([&machine](std::uint8_t v) { machine.raise_irq(v); });
  machine.bus().attach(timer);
  auto object = isa::assemble(R"(
      cli
      movi r0, 0
  loop:
      addi r0, 1
      cmpi r0, 2000
      jnz  loop
      hlt
  handler:
      movi r5, 1
      iret
  )");
  ASSERT_TRUE(object.is_ok());
  machine.memory().write_block(kCodeBase, object->image);
  machine.set_idt_entry(kVecTimer, kCodeBase + object->symbols.at("handler"));
  machine.cpu().eip = kCodeBase;
  machine.cpu().set_sp(kStackTop);
  timer->write32(TimerDevice::kPeriod, 100);
  timer->write32(TimerDevice::kCtrl, 1);
  machine.run(100'000);
  EXPECT_EQ(machine.cpu().regs[5], 0u);  // handler never ran
  EXPECT_TRUE(machine.irq_pending());    // but the line is pending
}

TEST(Machine, RdcycReadsClock) {
  auto m_ptr = run_program(R"(
      rdcyc r0
      nop
      nop
      rdcyc r1
      hlt
  )");
  Machine& m = *m_ptr;
  EXPECT_GT(m.cpu().regs[1], m.cpu().regs[0]);
}

TEST(Machine, CycleAccounting) {
  auto m_ptr = run_program(R"(
      movi r0, 1
      hlt
  )");
  Machine& m = *m_ptr;
  // movi (1) + hlt (1) = 2 cycles exactly on the bare machine.
  EXPECT_EQ(m.cycles(), 2u);
  EXPECT_EQ(m.instructions_executed(), 2u);
}

// ---------------------------------------------------------------------------
// Interrupt/fault edge paths — each test pins a bug fixed in the decode-cache
// PR and fails against the pre-fix machine.
// ---------------------------------------------------------------------------

TEST(MachineInterrupt, FailedDispatchPreservesPreviousLatches) {
  // A dispatch that stack-faults mid-frame must leave the identity latches
  // of the last SUCCESSFUL dispatch intact — the IPC proxy authenticates
  // senders from them, so a task with a corrupted SP must not be able to
  // overwrite them with its own origin before the frame push fails.
  auto object = isa::assemble(R"(
      int  0x22           ; successful dispatch: latches = (here, 0x22)
      movi r7, 2          ; wreck SP: the next frame push lands out of bounds
      int  0x21           ; dispatch aborts on the stack fault
      hlt
  handler:
      iret
  )");
  ASSERT_TRUE(object.is_ok());
  Machine machine;
  machine.memory().write_block(kCodeBase, object->image);
  machine.set_idt_entry(kVecIpc, kCodeBase + object->symbols.at("handler"));
  machine.set_idt_entry(kVecSyscall, kCodeBase + object->symbols.at("handler"));
  // No kVecFault entry: the stack fault double-faults and halts, leaving the
  // latches exactly as the failed dispatch left them.
  machine.cpu().eip = kCodeBase;
  machine.cpu().set_sp(kStackTop);
  machine.run(10'000);
  EXPECT_EQ(machine.halt_reason(), HaltReason::kDoubleFault);
  EXPECT_EQ(machine.last_fault().type, FaultType::kStackFault);
  EXPECT_EQ(machine.int_vector(), kVecIpc);           // NOT 0x21
  EXPECT_EQ(machine.int_origin_eip(), kCodeBase);     // the first INT
}

TEST(MachineInterrupt, StackFaultKeepsIrqPending) {
  // dispatch_pending clears the vector's bit before dispatching.  If the
  // dispatch stack-faults, the line must stay asserted: the IRQ is a level
  // signal the device never knew was lost, and the fault handler may repair
  // SP and expect the interrupt to be delivered afterwards.
  auto object = isa::assemble(R"(
  spin:
      jmp spin
  fault_handler:
      hlt
  )");
  ASSERT_TRUE(object.is_ok());
  Machine machine;
  machine.memory().write_block(kCodeBase, object->image);
  machine.set_idt_entry(9, kCodeBase);  // any non-null handler
  machine.set_idt_entry(kVecFault,
                        kCodeBase + object->symbols.at("fault_handler"));
  machine.cpu().eip = kCodeBase;
  machine.cpu().set_sp(2);  // frame push will fault
  machine.raise_irq(9);
  machine.run(10'000);
  EXPECT_EQ(machine.halt_reason(), HaltReason::kHltInstruction);
  EXPECT_EQ(machine.last_fault().type, FaultType::kStackFault);
  EXPECT_TRUE(machine.irq_pending());  // vector 9 re-asserted, not lost
}

TEST(MachineInterrupt, UnhandledVectorDropsPendingIrq) {
  // Pinned semantics (referenced from Machine::dispatch_pending): a raised
  // vector with a null IDT entry is a configuration error — the request is
  // dropped after the kNoHandler fault, NOT retried, since re-asserting a
  // vector that can never dispatch would livelock interrupt delivery.
  auto object = isa::assemble(R"(
  spin:
      jmp spin
  fault_handler:
      hlt
  )");
  ASSERT_TRUE(object.is_ok());
  Machine machine;
  machine.memory().write_block(kCodeBase, object->image);
  // No IDT entry for vector 9.
  machine.set_idt_entry(kVecFault,
                        kCodeBase + object->symbols.at("fault_handler"));
  machine.cpu().eip = kCodeBase;
  machine.cpu().set_sp(kStackTop);
  machine.raise_irq(9);
  machine.run(10'000);
  EXPECT_EQ(machine.halt_reason(), HaltReason::kHltInstruction);
  EXPECT_EQ(machine.last_fault().type, FaultType::kNoHandler);
  EXPECT_FALSE(machine.irq_pending());  // dropped, not re-asserted
}

TEST(MachineFault, HandlerAtNextInstructionIsNotRewritten) {
  // The old recovery heuristic rewrote EIP back to the faulting instruction
  // whenever EIP still equalled `pc + 4` after a failed load — which also
  // matched a fault handler that happened to live at exactly `pc + 4`,
  // bouncing execution back into the faulting instruction forever.  The
  // explicit redirected-EIP flag keeps the handler dispatch intact.
  auto object = isa::assemble(R"(
      li   r1, 0x200000   ; beyond physical memory
      ldw  r2, [r1]       ; bus error; the handler is the NEXT instruction
  handler:
      movi r6, 99
      hlt
  )");
  ASSERT_TRUE(object.is_ok());
  Machine machine;
  machine.memory().write_block(kCodeBase, object->image);
  machine.set_idt_entry(kVecFault, kCodeBase + object->symbols.at("handler"));
  machine.cpu().eip = kCodeBase;
  machine.cpu().set_sp(kStackTop);
  machine.run(10'000);
  EXPECT_EQ(machine.halt_reason(), HaltReason::kHltInstruction);
  EXPECT_EQ(machine.cpu().regs[6], 99u);  // the handler ran exactly once
  EXPECT_EQ(machine.fault_count(), 1u);
}

TEST(Machine, MmioByteWriteHitsAddressedLane) {
  // A byte store to an MMIO register must read-modify-write the addressed
  // lane of the 32-bit register, not clobber the whole word with the byte
  // zero-extended into lane 0.
  Machine machine;
  auto timer = std::make_shared<TimerDevice>();
  machine.bus().attach(timer);
  auto object = isa::assemble(R"(
      li   r1, 0x100004   ; timer PERIOD register
      li   r2, 0x11223344
      stw  r2, [r1]
      movi r3, 0xAA
      stb  r3, [r1+1]     ; lane 1 only
      ldw  r4, [r1]
      hlt
  )");
  ASSERT_TRUE(object.is_ok());
  machine.memory().write_block(kCodeBase, object->image);
  machine.cpu().eip = kCodeBase;
  machine.cpu().set_sp(kStackTop);
  machine.run(10'000);
  EXPECT_EQ(machine.halt_reason(), HaltReason::kHltInstruction);
  EXPECT_EQ(machine.cpu().regs[4], 0x1122AA44u);
  EXPECT_EQ(timer->read32(TimerDevice::kPeriod), 0x1122AA44u);
}

TEST(Machine, FirmwareDispatch) {
  Machine machine;
  int calls = 0;
  machine.register_firmware(kFwOsKernel, "probe", [&](Machine& m) {
    ++calls;
    m.charge(10);
    m.cpu().eip = kCodeBase;  // hand control to guest
  });
  auto object = isa::assemble("hlt\n");
  ASSERT_TRUE(object.is_ok());
  machine.memory().write_block(kCodeBase, object->image);
  machine.cpu().eip = kFwOsKernel;
  machine.run(1'000);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(machine.halt_reason(), HaltReason::kHltInstruction);
  EXPECT_EQ(machine.firmware_invocations(), 1u);
}

// The scalar reference the block accessors stand for: one fw_read8/fw_read32
// or fw_write8/fw_write32 per element of `width` bytes, in address order,
// stopping at the first failure.
Status scalar_loop(Machine& m, std::uint32_t ip, std::uint32_t addr, bool write,
                   std::uint32_t width, std::span<std::uint8_t> bytes, std::uint32_t* done) {
  for (*done = 0; *done < bytes.size() / width; ++*done) {
    const std::uint32_t at = addr + *done * width;
    std::uint8_t* p = bytes.data() + std::size_t{*done} * width;
    Status s;
    if (write) {
      s = width == 4 ? m.fw_write32(ip, at, load_le32(p)) : m.fw_write8(ip, at, *p);
    } else if (width == 4) {
      auto word = m.fw_read32(ip, at);
      s = word.status();
      if (word.is_ok()) {
        store_le32(p, *word);
      }
    } else {
      auto byte = m.fw_read8(ip, at);
      s = byte.status();
      if (byte.is_ok()) {
        *p = *byte;
      }
    }
    if (!s.is_ok()) {
      return s;
    }
  }
  return Status::ok();
}

// The firmware block accessors against the scalar loops they stand for, for
// both widths in both directions, on random EA-MPU tables (random_eampu.h):
// ranges cross region and slot-data boundaries, start or end in MMIO (the
// key register among them), or leave memory.  A decoded block is planted
// inside the range first, so the write watch is compared too: status,
// elements done, data, memory, heat check counters, cycles and the decode
// cache must come out the same.
TEST(Machine, FirmwareBlockAccessMatchesPerElementLoop) {
  std::mt19937 rng(0xB10C);
  RandomEaMpu tables(rng);
  auto program = isa::assemble("movi r0, 1\nmovi r1, 2\nhlt\n");
  ASSERT_TRUE(program.is_ok());
  crypto::Key128 kp{};
  std::iota(kp.begin(), kp.end(), std::uint8_t{0x40});
  const auto mpu_counters = [](Machine& m) {
    return m.obs().metrics().heat_profile("machine").mpu;
  };
  // Part-way denials per (write, width == 4) combination.
  std::uint64_t partly_denied[2][2] = {};
  std::uint64_t key_register_elements = 0;
  std::uint64_t blocks_killed = 0;
  for (int table = 0; table < 60; ++table) {
    EaMpu mpu;
    ASSERT_NO_FATAL_FAILURE(tables.fill(mpu));
    Machine block_m;
    Machine loop_m;
    std::vector<std::uint8_t> noise(0x5000);
    std::generate(noise.begin(), noise.end(), [&] { return static_cast<std::uint8_t>(rng()); });
    for (Machine* m : {&block_m, &loop_m}) {
      m->bus().attach(std::make_shared<SensorDevice>("pedal", kMmioPedal));
      m->bus().attach(std::make_shared<core::KeyRegister>(kp));
      m->memory().write_block(0x1000, std::span(noise).first(0x1000));
      m->memory().write_block(kFwOsKernel, noise);
      m->memory().write_block(kMmioBase - 0x400, std::span(noise).first(0x400));
      m->set_policy(&mpu);
      m->enable_heat(/*time_dispatch=*/false);
    }
    for (int query = 0; query < 60; ++query) {
      const std::uint32_t ip = tables.address();
      std::uint32_t addr = 0;
      switch (rng() % 6) {
        case 0: addr = kMmioBase - rng() % 0x80; break;           // runs into MMIO
        case 1: addr = kMmioPedal - 0x40 + rng() % 0x180; break;  // inside MMIO
        case 2: addr = kMmioKeyReg - 8 + rng() % 0x30; break;     // the key register
        default: addr = tables.address(); break;                  // may leave memory
      }
      const bool write = rng() % 2 == 0;
      const std::uint32_t width = rng() % 2 == 0 ? 1 : 4;
      const std::uint32_t len = width * (rng() % (width == 4 ? 48 : 200));
      // Plant a cached block somewhere inside the range when its head is
      // plain, fetchable RAM under this table.
      const std::uint32_t pc = (addr + (len == 0 ? 0 : rng() % len)) & ~3u;
      if (pc >= addr && std::uint64_t{pc} + 12 <= kMmioBase &&
          mpu.classify(pc, pc, Access::kExecute) != kCheckDenied) {
        for (Machine* m : {&block_m, &loop_m}) {
          m->memory().write_block(pc, program->image);
          m->cpu().eip = pc;
          m->clear_halt();
          m->step();
        }
      }
      const std::size_t blocks_before = block_m.decode_cache().block_count();
      std::vector<std::uint8_t> block_data(len);
      std::generate(block_data.begin(), block_data.end(),
                    [&] { return static_cast<std::uint8_t>(rng()); });
      std::vector<std::uint8_t> loop_data = block_data;
      std::uint32_t block_done = 0xFFFF;
      std::uint32_t loop_done = 0;
      const Status block_status =
          write ? block_m.fw_write_block(ip, addr, block_data, width, &block_done)
                : block_m.fw_read_block(ip, addr, block_data, width, &block_done);
      const Status loop_status = scalar_loop(loop_m, ip, addr, write, width, loop_data, &loop_done);
      SCOPED_TRACE(::testing::Message() << "table " << table << " query " << query
                                        << (write ? " write" : " read") << " width " << width
                                        << " ip " << ip << " addr " << addr << " len " << len);
      ASSERT_EQ(block_status.code(), loop_status.code());
      ASSERT_EQ(block_status.message(), loop_status.message());
      ASSERT_EQ(block_done, loop_done);
      ASSERT_EQ(block_data, loop_data);
      const std::uint32_t lo = addr < 0x40 ? 0 : addr - 0x40;
      const std::uint32_t hi = std::min<std::uint64_t>(std::uint64_t{addr} + len + 0x40,
                                                       block_m.memory().size());
      if (lo < hi) {
        const auto block_bytes = block_m.memory().view(lo, hi - lo);
        const auto loop_bytes = loop_m.memory().view(lo, hi - lo);
        ASSERT_TRUE(std::equal(block_bytes.begin(), block_bytes.end(), loop_bytes.begin()));
      }
      ASSERT_EQ(block_m.memory().dirty_lo(), loop_m.memory().dirty_lo());
      ASSERT_EQ(block_m.memory().dirty_hi(), loop_m.memory().dirty_hi());
      ASSERT_EQ(mpu_counters(block_m), mpu_counters(loop_m));
      ASSERT_EQ(block_m.cycles(), loop_m.cycles());
      ASSERT_EQ(block_m.decode_cache().block_count(), loop_m.decode_cache().block_count());
      partly_denied[write][width == 4] +=
          loop_done > 0 && loop_status.code() == Err::kPermissionDenied ? 1 : 0;
      for (std::uint32_t i = 0; i < loop_done; ++i) {
        const std::uint32_t at = addr + i * width;
        key_register_elements += at >= kMmioKeyReg && at < kMmioKeyReg + 0x20 ? 1 : 0;
      }
      blocks_killed += blocks_before - block_m.decode_cache().block_count();
    }
  }
  // The sample reaches the interesting cases: denials part-way through a
  // range for every width and direction, elements moved through the key
  // register's per-element loop, and writes that kill a cached block.
  for (const auto& by_width : partly_denied) {
    for (const std::uint64_t n : by_width) {
      EXPECT_GT(n, 10u);
    }
  }
  EXPECT_GT(key_register_elements, 100u);
  EXPECT_GT(blocks_killed, 200u);
}

// A constant-cost firmware spin, as the kernel's idle task is: run() repeats
// it in closed form up to the run horizon; step(), the interpreter, and a
// cleared IF never skip.  Every way lands on the same cycle and count.
TEST(Machine, FastForwardSpinLandsOnRunHorizon) {
  struct Outcome {
    int calls = 0;
    std::uint64_t skipped = 0;
    std::uint64_t cycles = 0;
    std::uint64_t invocations = 0;
  };
  auto spin = [](DispatchMode mode, bool interrupts_on) {
    Machine machine;
    Outcome out;
    machine.register_firmware(kFwOsKernel, "spin", [&](Machine& m) {
      ++out.calls;
      m.charge(20);
      out.skipped += m.fast_forward_spin(20);
    });
    machine.set_dispatch_mode(mode);
    machine.cpu().eip = kFwOsKernel;
    machine.cpu().set_flag(isa::kFlagIF, interrupts_on);
    machine.step();  // no run horizon: one pass
    EXPECT_EQ(machine.cycles(), 20u);
    EXPECT_EQ(machine.fast_forward_spin(20), 0u);  // outside run()
    // Pass tops at 20, 40, ...: the first at or after 1010 is 1020.
    EXPECT_EQ(machine.run(1'010), HaltReason::kCycleLimit);
    out.cycles = machine.cycles();
    out.invocations = machine.firmware_invocations();
    return out;
  };
  const Outcome fast = spin(DispatchMode::kCached, true);
  EXPECT_EQ(fast.calls, 2);
  EXPECT_EQ(fast.skipped, 49u);
  for (const Outcome& o : {fast, spin(DispatchMode::kInterpreter, true),
                           spin(DispatchMode::kCached, false)}) {
    EXPECT_EQ(o.cycles, 1'020u);
    EXPECT_EQ(o.invocations, 51u);
    EXPECT_EQ(o.calls + static_cast<int>(o.skipped), 51);
  }
  EXPECT_EQ(spin(DispatchMode::kInterpreter, true).skipped, 0u);
  EXPECT_EQ(spin(DispatchMode::kCached, false).skipped, 0u);
}

// A pass that itself moved the next event — raised an IRQ, or changed a
// device schedule (bus timing epoch) — must not be fast-forwarded past it;
// nor may any pass while the tracer records every firmware invocation.
TEST(Machine, FastForwardSpinRefusesWhenThePassMovedTheNextEvent) {
  enum Case { kNothing, kRaiseIrq, kRescheduleTimer, kTracer };
  for (const Case c : {kNothing, kRaiseIrq, kRescheduleTimer, kTracer}) {
    Machine machine;
    auto timer = std::make_shared<TimerDevice>();
    machine.bus().attach(timer);
    if (c == kTracer) {
      machine.enable_trace(64);
    }
    std::uint64_t skipped = 0;
    machine.register_firmware(kFwOsKernel, "spin", [&](Machine& m) {
      if (c == kRaiseIrq) {
        m.raise_irq(kVecTimer);
      } else if (c == kRescheduleTimer) {
        timer->write32(TimerDevice::kPeriod, 500);
      }
      m.charge(20);
      skipped = m.fast_forward_spin(20);
      m.cpu().eip = kCodeBase;  // one pass, then halt
    });
    auto object = isa::assemble("hlt\n");
    ASSERT_TRUE(object.is_ok());
    machine.memory().write_block(kCodeBase, object->image);
    machine.cpu().eip = kFwOsKernel;
    machine.cpu().set_flag(isa::kFlagIF, true);
    machine.run(10'000);
    EXPECT_EQ(skipped != 0, c == kNothing) << "case " << c;
  }
}

}  // namespace
}  // namespace tytan::sim
