// Kernel syscall surface: results, edge cases, and misuse handling.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/platform.h"
#include "fleet/verifier_workload.h"
#include "narrow_rule.h"

namespace tytan {
namespace {

using core::Platform;

/// Builds a one-shot task that performs a syscall with the given registers,
/// then prints 'Y' if saved r0 == expected, 'N' otherwise, then exits.
std::string syscall_probe(unsigned number, std::uint32_t r1, std::uint32_t r2,
                          std::uint32_t r3, std::int64_t expect_r0, bool secure = true) {
  std::string s;
  if (secure) {
    s += "    .secure\n";
  }
  s += "    .stack 256\n    .entry main\nmain:\n";
  s += "    movi r0, " + std::to_string(number) + "\n";
  s += "    li r1, " + std::to_string(r1) + "\n";
  s += "    li r2, " + std::to_string(r2) + "\n";
  s += "    li r3, " + std::to_string(r3) + "\n";
  s += "    int  0x21\n";
  s += "    cmpi r0, " + std::to_string(expect_r0) + "\n";
  s += R"(    jz  yes
    movi r1, 78        ; 'N'
    jmp  report
yes:
    movi r1, 89        ; 'Y'
report:
    movi r0, 4
    int  0x21
    movi r0, 3
    int  0x21
)";
  return s;
}

std::string run_probe(const std::string& source) {
  Platform platform;
  EXPECT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(source, {.name = "probe", .priority = 3});
  EXPECT_TRUE(task.is_ok()) << task.status().to_string();
  platform.run_until([&] { return !platform.serial().output().empty(); }, 20'000'000);
  return platform.serial().output();
}

TEST(Syscall, UnknownNumberReturnsError) {
  EXPECT_EQ(run_probe(syscall_probe(99, 0, 0, 0, -1)), "Y");
}

TEST(Syscall, GetTickReturnsCounter) {
  // Right after start the tick count is small but the call must succeed
  // (result != kSysErr); compare against -1 and expect 'N'.
  EXPECT_EQ(run_probe(syscall_probe(core::kSysGetTick, 0, 0, 0, -1)), "N");
}

/// Load a GetTick probe that prints 'Y' when it resumes with r0 still
/// holding the syscall number, step `platform` to the kernel's syscall
/// entry (the Int Mux has saved the caller's frame), and take the Int Mux's
/// write access to RAM (`readable`) or all its access to the frame and
/// above for that one handler step.  The caller must then be contained:
/// killed with a stack fault, never resumed.
void expect_frame_fault_contains_caller(bool readable) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(syscall_probe(core::kSysGetTick, 0, 0, 0, 5),
                                        {.name = "probe", .priority = 3});
  ASSERT_TRUE(task.is_ok()) << task.status().to_string();
  sim::Machine& m = platform.machine();
  constexpr std::uint32_t kSyscallEntry = core::Kernel::kIdent + core::Kernel::kSyscallHandlerOff;
  for (int i = 0; i < 1'000'000 && m.cpu().eip != kSyscallEntry; ++i) {
    m.step();
  }
  ASSERT_EQ(m.cpu().eip, kSyscallEntry);
  auto frame = platform.int_mux().shadow_sp(*task);
  ASSERT_TRUE(frame.is_ok());
  ReplacedRule original;
  ASSERT_NO_FATAL_FAILURE(narrow_static_rule(
      platform, sim::kFwIntMux, /*background=*/true, sim::kRamBase,
      readable ? sim::kRamEnd - sim::kRamBase : *frame - sim::kRamBase,
      readable ? sim::kPermRead : sim::kPermRead | sim::kPermWrite, &original));
  m.step();  // the handler, the only step that meets the narrowed rule
  ASSERT_NE(m.cpu().eip, kSyscallEntry);
  ASSERT_NO_FATAL_FAILURE(replace_rule(platform, original.slot, original.rule));
  platform.run_for(2'000'000);
  EXPECT_EQ(platform.serial().output(), "") << "the caller resumed";
  EXPECT_EQ(platform.scheduler().get(*task), nullptr);
  EXPECT_EQ(platform.kernel().fault_kills(), 1u);
  EXPECT_EQ(m.last_fault().type, sim::FaultType::kStackFault);
}

TEST(Syscall, UnreadableSavedFrameContainsCaller) {
  // At the parent the arguments read as zero (an unknown syscall) and the
  // caller resumed with its stale r0.
  expect_frame_fault_contains_caller(/*readable=*/false);
}

TEST(Syscall, UnwritableSavedFrameContainsCaller) {
  // The arguments read fine, but r0 cannot take the result: the caller
  // must not resume with the syscall number still in r0.
  expect_frame_fault_contains_caller(/*readable=*/true);
}

TEST(Syscall, WaitMsgRejectedForNormalTask) {
  EXPECT_EQ(run_probe(syscall_probe(core::kSysWaitMsg, 0, 0, 0, -1, /*secure=*/false)),
            "Y");
}

TEST(Syscall, MsgDoneWithoutMessageIsError) {
  EXPECT_EQ(run_probe(syscall_probe(core::kSysMsgDone, 0, 0, 0, -1)), "Y");
}

TEST(Syscall, QueueOpsRejectedForSecureTask) {
  EXPECT_EQ(run_probe(syscall_probe(core::kSysQueueSend, 0, 0, 0, -1)), "Y");
}

TEST(Syscall, SealLoadOnEmptySlotIsError) {
  // r1 points at the task's own stack area (readable); slot 9 is empty.
  EXPECT_EQ(run_probe(syscall_probe(core::kSysSealLoad, 0, 16, 9, -1)), "Y");
}

TEST(Syscall, SealStoreWithForeignPointerFails) {
  // Pointing the store buffer at another task's memory must fail: the
  // storage service reads under its own identity, but the *caller* gains
  // nothing — and a pointer into protected foreign memory is rejected by
  // size/era checks or returns garbage it already... the contract here: the
  // call must not crash the platform and must not return success for an
  // unreadable range (beyond physical memory).
  EXPECT_EQ(run_probe(syscall_probe(core::kSysSealStore, 0x1F0000, 16, 3, -1)), "Y");
}

TEST(Syscall, GetIdWritesOwnIdentity) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  constexpr std::string_view kSource = R"(
      .secure
      .stack 256
      .entry main
  main:
      movi r0, 14         ; kSysGetId
      li   r1, idbuf
      int  0x21
      cmpi r0, 0
      jnz  fail
      li   r2, idbuf      ; print first identity byte
      ldb  r1, [r2]
      movi r0, 4
      int  0x21
      jmp  done
  fail:
      movi r1, 33         ; '!'
      movi r0, 4
      int  0x21
  done:
      movi r0, 3
      int  0x21
  idbuf:
      .space 8
  )";
  auto task = platform.load_task_source(kSource, {.name = "who", .priority = 3});
  ASSERT_TRUE(task.is_ok());
  const rtos::TaskIdentity id = platform.scheduler().get(*task)->identity;
  platform.run_until([&] { return !platform.serial().output().empty(); }, 20'000'000);
  ASSERT_EQ(platform.serial().output().size(), 1u);
  EXPECT_EQ(static_cast<std::uint8_t>(platform.serial().output()[0]), id[0]);
}

TEST(Syscall, LocalAttestFindsLoadedPeer) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto peer = platform.load_task_source(R"(
      .secure
      .stack 128
      .entry main
  main:
      movi r0, 1
      int  0x21
      jmp  main
  )", {.name = "peer", .priority = 2});
  ASSERT_TRUE(peer.is_ok());
  const rtos::TaskIdentity peer_id = platform.scheduler().get(*peer)->identity;

  constexpr std::string_view kVerifier = R"(
      .secure
      .stack 256
      .entry main
  main:
      movi r0, 15         ; kSysLocalAttest
      li   r1, peer_id
      int  0x21
      cmpi r0, 0
      jz   present
      movi r1, 45         ; '-'
      jmp  report
  present:
      movi r1, 43         ; '+'
  report:
      movi r0, 4
      int  0x21
      movi r0, 3
      int  0x21
  peer_id:
      .space 8
  )";
  auto verifier = platform.load_task_source(kVerifier, {.name = "verifier", .priority = 3,
                                                        .auto_start = false});
  ASSERT_TRUE(verifier.is_ok());
  // Provision the peer identity (task-developer step).
  auto probe = isa::assemble(kVerifier);
  const std::uint32_t addr =
      platform.scheduler().get(*verifier)->region_base + probe->symbols.at("peer_id");
  for (unsigned i = 0; i < 8; ++i) {
    platform.machine().memory().write8(addr + i, peer_id[i]);
  }
  ASSERT_TRUE(platform.resume_task(*verifier).is_ok());
  platform.run_until([&] { return !platform.serial().output().empty(); }, 20'000'000);
  EXPECT_EQ(platform.serial().output(), "+");

  // After unloading the peer, the same query fails.
  ASSERT_TRUE(platform.unload_task(*peer).is_ok());
  platform.serial().clear();
  auto verifier2 = platform.load_task_source(kVerifier, {.name = "verifier2", .priority = 3,
                                                         .auto_start = false});
  ASSERT_TRUE(verifier2.is_ok());
  const std::uint32_t addr2 =
      platform.scheduler().get(*verifier2)->region_base + probe->symbols.at("peer_id");
  for (unsigned i = 0; i < 8; ++i) {
    platform.machine().memory().write8(addr2 + i, peer_id[i]);
  }
  ASSERT_TRUE(platform.resume_task(*verifier2).is_ok());
  platform.run_until([&] { return !platform.serial().output().empty(); }, 20'000'000);
  EXPECT_EQ(platform.serial().output(), "-");
}

TEST(Syscall, ExitUnloadsAndFreesSlotUnderLoad) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  const std::size_t slots_before = platform.mpu().slots_in_use();
  for (int round = 0; round < 5; ++round) {
    auto task = platform.load_task_source(R"(
        .secure
        .stack 128
        .entry main
    main:
        movi r0, 3
        int  0x21
    )", {.name = "ephemeral" + std::to_string(round), .priority = 3});
    ASSERT_TRUE(task.is_ok());
    platform.run_until([&] { return platform.scheduler().get(*task) == nullptr; },
                       5'000'000);
    EXPECT_EQ(platform.scheduler().get(*task), nullptr);
  }
  EXPECT_EQ(platform.mpu().slots_in_use(), slots_before);
}

/// A secure task that exits (`fault` false) or is fault-killed reading
/// 0x10, after the RTM's rule has shrunk to the first four bytes of
/// registry slot 0: its unload cannot clear its registry entry, so the task
/// stays current.  The kernel must fail-stop rather than dispatch over it.
void expect_failed_unload_halts(bool fault) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  const std::string action = fault ? "    li   r1, 0x10\n    ldw  r2, [r1]\n"
                                   : "    movi r0, 3\n    int  0x21\n";
  auto task = platform.load_task_source(
      "    .secure\n    .stack 128\n    .entry main\nmain:\n" + action + "    jmp  main\n",
      {.name = "dying", .priority = 3});
  ASSERT_TRUE(task.is_ok()) << task.status().to_string();
  ASSERT_NO_FATAL_FAILURE(narrow_static_rule(platform, sim::kFwRtm, /*background=*/false,
                                             core::kRtmRegistryBase, 4));
  EXPECT_EQ(platform.run_for(5'000'000), sim::HaltReason::kDoubleFault);
  EXPECT_NE(platform.scheduler().get(*task), nullptr);
  EXPECT_EQ(platform.kernel().fault_kills(), fault ? 1u : 0u);
}

TEST(Kernel, FailedUnloadOfFaultedTaskHalts) {
  // At the parent the kernel rescheduled over the still-current task and
  // aborted the simulator in the next dispatch.
  expect_failed_unload_halts(/*fault=*/true);
}

TEST(Kernel, FailedUnloadOfExitingTaskHalts) {
  expect_failed_unload_halts(/*fault=*/false);
}

TEST(Syscall, DelayActuallyDelays) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  // Prints one char, sleeps 10 ticks, prints another.
  auto task = platform.load_task_source(R"(
      .secure
      .stack 128
      .entry main
  main:
      movi r0, 4
      movi r1, 97
      int  0x21
      movi r0, 2
      movi r1, 10
      int  0x21
      movi r0, 4
      movi r1, 98
      int  0x21
      movi r0, 3
      int  0x21
  )", {.name = "sleepy", .priority = 3});
  ASSERT_TRUE(task.is_ok());
  platform.run_until([&] { return platform.serial().output() == "a"; }, 5'000'000);
  const std::uint64_t t_a = platform.machine().cycles();
  platform.run_until([&] { return platform.serial().output() == "ab"; }, 50'000'000);
  const std::uint64_t t_b = platform.machine().cycles();
  EXPECT_GE(t_b - t_a, 9ull * platform.config().tick_period);
}

TEST(Queues, NormalTasksExchangeDataThroughOsQueues) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto queue = platform.kernel().queues().create(4);
  ASSERT_TRUE(queue.is_ok());
  const std::string producer =
      "    .stack 128\n    .entry main\nmain:\n"
      "    li   r2, buf\n    movi r3, 77\n    stw  r3, [r2]\n"
      "    movi r0, 12\n    movi r1, " + std::to_string(*queue) + "\n"
      "    mov  r2, r2\n    li r2, buf\n    int  0x21\n"
      "park:\n    movi r0, 1\n    int 0x21\n    jmp park\n"
      "buf:\n    .space 16\n";
  const std::string consumer =
      "    .stack 128\n    .entry main\nmain:\n"
      "retry:\n"
      "    movi r0, 13\n    movi r1, " + std::to_string(*queue) + "\n"
      "    li   r2, buf\n    int  0x21\n"
      "    cmpi r0, 0\n    jnz  retry_delay\n"
      "    li   r2, buf\n    ldw  r1, [r2]\n    movi r0, 4\n    int 0x21\n"
      "park:\n    movi r0, 1\n    int 0x21\n    jmp park\n"
      "retry_delay:\n    movi r0, 2\n    movi r1, 1\n    int 0x21\n    jmp retry\n"
      "buf:\n    .space 16\n";
  auto p = platform.load_task_source(producer, {.name = "producer", .priority = 3});
  auto c = platform.load_task_source(consumer, {.name = "consumer", .priority = 3});
  ASSERT_TRUE(p.is_ok()) << p.status().to_string();
  ASSERT_TRUE(c.is_ok()) << c.status().to_string();
  ASSERT_TRUE(
      platform.run_until([&] { return !platform.serial().output().empty(); }, 30'000'000));
  EXPECT_EQ(platform.serial().output()[0], 77);
}

// ------------------------------------------- idle fast-forward vs stepping

// Inside Machine::run the kernel's idle task skips, in closed form, every
// pass stepping would make before the next event.  Each case below drives
// one scenario three ways — cached run_for (fast-forwards), interpreter
// run_for (never does), and cached step() one at a time (never does) — and
// requires byte-identical snapshots: cycles, firmware invocations, the idle
// TCB's cpu_cycles, and the timer state all travel in them.
enum class Drive { kRunCached, kRunInterpreter, kStepCached };
constexpr Drive kDrives[] = {Drive::kRunCached, Drive::kRunInterpreter, Drive::kStepCached};

// A short burst, then sleep one tick: the device idles between bursts.
constexpr const char* kDutyCycledTask = R"(
    .secure
    .stack 256
    .entry main
main:
    movi r2, 40
burst:
    addi r6, 1
    subi r2, 1
    cmpi r2, 0
    jnz  burst
    movi r0, 2          ; kSysDelay
    movi r1, 1
    int  0x21
    jmp  main
)";

std::unique_ptr<Platform> duty_cycled_platform(Drive drive) {
  Platform::Config config;
  config.dispatch = drive == Drive::kRunInterpreter ? sim::DispatchMode::kInterpreter
                                                    : sim::DispatchMode::kCached;
  auto platform = std::make_unique<Platform>(config);
  EXPECT_TRUE(platform->boot().is_ok());
  EXPECT_TRUE(
      platform->load_task_source(kDutyCycledTask, {.name = "duty", .priority = 2}).is_ok());
  EXPECT_TRUE(
      platform->load_task_source(fleet::default_task_source(), {.name = "heartbeat"})
          .is_ok());
  return platform;
}

void advance(Platform& platform, Drive drive, std::uint64_t cycles) {
  if (drive != Drive::kStepCached) {
    platform.run_for(cycles);
    return;
  }
  sim::Machine& machine = platform.machine();
  const std::uint64_t target = machine.cycles() + cycles;
  while (!machine.halted() && machine.cycles() < target) {
    machine.step();
  }
}

ByteVec state_bytes(const Platform& platform) {
  auto snapshot = platform.save();
  EXPECT_TRUE(snapshot.is_ok()) << snapshot.status().to_string();
  return snapshot.is_ok() ? snapshot->serialize() : ByteVec{};
}

/// Run `scenario` under every drive and expect identical snapshots.
template <typename Scenario>
void expect_drives_agree(const std::string& label, Scenario scenario) {
  std::vector<ByteVec> states;
  for (const Drive drive : kDrives) {
    auto platform = duty_cycled_platform(drive);
    scenario(*platform, drive);
    states.push_back(state_bytes(*platform));
  }
  ASSERT_FALSE(states[0].empty()) << label;
  EXPECT_EQ(states[0], states[1]) << label << ": cached run vs interpreter run";
  EXPECT_EQ(states[0], states[2]) << label << ": cached run vs cached stepping";
}

TEST(Kernel, IdleFastForwardIsBitIdenticalToStepping) {
  const std::uint64_t p = Platform::Config{}.tick_period;
  for (const std::uint64_t limit :
       {std::uint64_t{1}, std::uint64_t{19}, std::uint64_t{20}, std::uint64_t{21}, p - 1, p,
        p + 1, 3 * p + 7, std::uint64_t{1'000'003}}) {
    expect_drives_agree("limit " + std::to_string(limit),
                        [&](Platform& platform, Drive drive) {
                          advance(platform, drive, limit);
                        });
  }

  // A host timer-period rewrite bumps the bus timing epoch between two
  // runs: the next horizon must come from the new schedule.
  expect_drives_agree("timer rewrite", [&](Platform& platform, Drive drive) {
    advance(platform, drive, 2 * p + 333);
    platform.timer().write32(sim::TimerDevice::kPeriod, static_cast<std::uint32_t>(p / 3));
    advance(platform, drive, 4 * p + 11);
  });

  // A CAN frame injected mid-idle interrupts the idle task at the next
  // step top, as in the interpreter.
  expect_drives_agree("CAN inject", [&](Platform& platform, Drive drive) {
    advance(platform, drive, p + p / 2);
    EXPECT_EQ(platform.scheduler().current_handle(), platform.kernel().idle_task());
    const std::uint64_t irqs = platform.machine().interrupts_dispatched();
    ASSERT_TRUE(platform.can_bus().inject({.id = 0x123, .dlc = 2, .data = {7, 9}}));
    advance(platform, drive, 1);
    EXPECT_EQ(platform.machine().interrupts_dispatched(), irqs + 1);
    advance(platform, drive, 2 * p + 5);
  });

  // step() has no run horizon: from the idle entry it makes one pass.
  auto platform = duty_cycled_platform(Drive::kRunCached);
  platform->run_for(p + 1'000);
  sim::Machine& machine = platform->machine();
  const rtos::TaskHandle idle = platform->kernel().idle_task();
  const std::uint32_t idle_entry = platform->scheduler().get(idle)->entry;
  auto at_quiet_idle_pass = [&] {
    return platform->scheduler().current_handle() == idle &&
           machine.cpu().eip == idle_entry && !machine.irq_pending() &&
           machine.cycles() < machine.bus().next_tick_due();
  };
  for (int i = 0; i < 10'000 && !at_quiet_idle_pass(); ++i) {
    machine.step();
  }
  ASSERT_TRUE(at_quiet_idle_pass());
  const std::uint64_t cycles = machine.cycles();
  const std::uint64_t invocations = machine.firmware_invocations();
  machine.step();
  EXPECT_EQ(machine.cycles(), cycles + core::Kernel::kIdlePassCycles);
  EXPECT_EQ(machine.firmware_invocations(), invocations + 1);
}

}  // namespace
}  // namespace tytan
