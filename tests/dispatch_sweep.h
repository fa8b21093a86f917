// Shared harness of the dispatch-mode differential tests: load a bare
// program, compare every piece of simulated state two machines expose, and
// sweep run() over every cycle limit in both dispatch modes.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "isa/assembler.h"
#include "sim/decode_cache.h"
#include "sim/devices.h"
#include "sim/machine.h"

namespace tytan::sim {

inline constexpr std::uint32_t kCodeBase = 0x40000;
inline constexpr std::uint32_t kStackTop = 0x48000;

/// Assemble `source`, apply the minimal bare-test relocations, load it into
/// `machine` at kCodeBase, and return the symbol table (label -> offset).
inline std::map<std::string, std::uint32_t> load_program(Machine& machine,
                                                         std::string_view source) {
  auto object = isa::assemble(source);
  EXPECT_TRUE(object.is_ok()) << object.status().to_string();
  if (!object.is_ok()) {
    return {};
  }
  ByteVec image = object->image;
  for (const isa::Relocation& reloc : object->relocs) {
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
  return object->symbols;
}

/// Compare every piece of simulated state two machines expose.
inline void expect_same_state(const Machine& a, const Machine& b, const std::string& where) {
  EXPECT_EQ(a.cpu().eip, b.cpu().eip) << "EIP diverged at " << where;
  EXPECT_EQ(a.cpu().eflags, b.cpu().eflags) << "EFLAGS diverged at " << where;
  for (std::size_t r = 0; r < isa::kNumGprs; ++r) {
    EXPECT_EQ(a.cpu().regs[r], b.cpu().regs[r]) << "r" << r << " diverged at " << where;
  }
  EXPECT_EQ(a.cycles(), b.cycles()) << "cycles diverged at " << where;
  EXPECT_EQ(a.instructions_executed(), b.instructions_executed())
      << "instructions diverged at " << where;
  EXPECT_EQ(a.interrupts_dispatched(), b.interrupts_dispatched())
      << "interrupts diverged at " << where;
  EXPECT_EQ(a.fault_count(), b.fault_count()) << "fault count diverged at " << where;
  EXPECT_EQ(a.last_fault().type, b.last_fault().type) << "fault type diverged at " << where;
  EXPECT_EQ(a.last_fault().eip, b.last_fault().eip) << "fault EIP diverged at " << where;
  EXPECT_EQ(a.last_fault().addr, b.last_fault().addr) << "fault addr diverged at " << where;
  EXPECT_EQ(a.halted(), b.halted()) << "halt diverged at " << where;
}

/// Per-machine setup before the program loads (observers, for instance).
using MachineSetup = std::function<void(Machine&)>;

/// A machine in `mode` running `source`, with a timer of `period` cycles
/// whose IRQ vectors to the label `tick`.
inline std::unique_ptr<Machine> timed_machine(DispatchMode mode, std::string_view source,
                                              std::uint32_t period,
                                              const MachineSetup& setup = {}) {
  auto machine = std::make_unique<Machine>();
  machine->set_dispatch_mode(mode);
  if (setup) {
    setup(*machine);
  }
  auto timer = std::make_shared<TimerDevice>();
  timer->set_irq_sink([m = machine.get()](std::uint8_t v) { m->raise_irq(v); });
  machine->bus().attach(timer);
  const auto symbols = load_program(*machine, source);
  machine->set_idt_entry(kVecTimer, kCodeBase + symbols.at("tick"));
  timer->write32(TimerDevice::kPeriod, period);
  timer->write32(TimerDevice::kCtrl, 1);
  return machine;
}

/// The run() machines of sweep_run_limits, one per dispatch mode.
struct Sweep {
  std::unique_ptr<Machine> cached;
  std::unique_ptr<Machine> interp;
};

/// Called on each machine of a sweep before it runs to `limit`.
using LimitHook = std::function<void(Machine&, std::uint64_t limit)>;

/// Run `source` (timer of `period` cycles) to its halt through run() at
/// every cycle limit up to `dense`, then at random strides.  At each limit a
/// cached run(), an interpreter run() and a cached machine stepped to the
/// limit must agree.  `setup` runs on each machine first, `between` before
/// each limit.
inline Sweep sweep_run_limits(std::string_view source, std::uint32_t period,
                              std::uint64_t dense, const MachineSetup& setup = {},
                              const LimitHook& between = {}) {
  auto cached = timed_machine(DispatchMode::kCached, source, period, setup);
  auto interp = timed_machine(DispatchMode::kInterpreter, source, period, setup);
  const auto stepped = timed_machine(DispatchMode::kCached, source, period, setup);
  std::mt19937 rng(0xC4A1);
  std::uint64_t limit = 0;
  while (!cached->halted() && !::testing::Test::HasFailure()) {
    limit += limit < dense ? 1 : 1 + rng() % 400;
    if (between) {
      for (Machine* machine : {cached.get(), interp.get(), stepped.get()}) {
        between(*machine, limit);
      }
    }
    cached->run(limit);
    interp->run(limit);
    while (!stepped->halted() && stepped->cycles() < limit) {
      stepped->step();
    }
    const std::string where = "limit " + std::to_string(limit);
    expect_same_state(*cached, *interp, where + " (interpreter)");
    expect_same_state(*cached, *stepped, where + " (cached step())");
  }
  return {std::move(cached), std::move(interp)};
}

/// 140 quiet ops in a row inside a 40-pass loop, under a timer: the first
/// block is capped at kMaxBlockOps, all of them quiet, so its head carries
/// the longest quiet run a block can hold.  rdcyc sits in it at both ends
/// and in the middle; a timer of odd period lands ticks, and a run-limit
/// sweep lands limits, at every offset.  Ends halted with r0 = 40.
inline std::string quiet_run_program() {
  static_assert(140 > DecodeCache::kMaxBlockOps);
  std::string body;
  for (int i = 0; i < 140; ++i) {
    if (i == 0 || i == 63 || i == 127) {
      body += "      rdcyc r1\n      xor  r6, r1\n";
      i += 1;
    } else {
      body += i % 3 == 0 ? "      mul  r4, r5\n" : "      addi r5, 3\n";
    }
  }
  return R"(
      movi r5, 1
      movi r4, 1
      sti
  loop:
)" + body + R"(
      addi r0, 1
      cmpi r0, 40
      jnz  loop
      hlt
  tick:
      addi r2, 1
      iret
  )";
}

}  // namespace tytan::sim
