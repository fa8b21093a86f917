// Adversarial tests: malicious or faulty tasks attack the isolation
// boundaries; TyTAN must contain every attempt (paper §5).
#include <gtest/gtest.h>

#include <iterator>
#include <memory>

#include "core/platform.h"
#include "isa/isa.h"
#include "sim/eampu.h"
#include "sim/machine.h"

namespace tytan {
namespace {

using core::Platform;

constexpr std::string_view kVictim = R"(
    .secure
    .stack 256
    .entry main
main:
    li   r2, secret
    ldw  r3, [r2]
loop:
    movi r0, 1
    int  0x21
    jmp  loop
secret:
    .word 0xdeadbeef
)";

/// Runs `attacker_source` alongside the victim; returns the number of tasks
/// killed by EA-MPU faults and the last fault type.
struct AttackResult {
  std::uint64_t kills;
  sim::FaultType fault;
  bool attacker_alive;
  std::string serial;
};

AttackResult run_attack(const std::string& attacker_source,
                        std::uint32_t* victim_secret_addr = nullptr) {
  Platform platform;
  EXPECT_TRUE(platform.boot().is_ok());
  auto victim = platform.load_task_source(kVictim, {.name = "victim", .priority = 2});
  EXPECT_TRUE(victim.is_ok());
  const rtos::Tcb* vt = platform.scheduler().get(*victim);
  auto probe = isa::assemble(kVictim);
  const std::uint32_t secret = vt->region_base + probe->symbols.at("secret");
  if (victim_secret_addr != nullptr) {
    *victim_secret_addr = secret;
  }
  std::string source = attacker_source;
  // Template substitution for the victim's addresses.
  auto replace_all = [&source](std::string_view what, const std::string& with) {
    std::size_t pos = 0;
    while ((pos = source.find(what, pos)) != std::string::npos) {
      source.replace(pos, what.size(), with);
      pos += with.size();
    }
  };
  replace_all("%SECRET%", std::to_string(secret));
  replace_all("%VICTIM_MID%", std::to_string(vt->entry + 12));
  replace_all("%VICTIM_STACK%", std::to_string(vt->stack_top - 64));

  auto attacker = platform.load_task_source(source, {.name = "attacker", .priority = 3});
  EXPECT_TRUE(attacker.is_ok()) << attacker.status().to_string();
  platform.run_for(5'000'000);
  return {platform.kernel().fault_kills(), platform.machine().last_fault().type,
          platform.scheduler().get(*attacker) != nullptr, platform.serial().output()};
}

TEST(Attack, ReadOtherTaskMemoryKillsAttacker) {
  const AttackResult result = run_attack(R"(
      .secure
      .stack 128
      .entry main
  main:
      li   r2, %SECRET%
      ldw  r3, [r2]          ; EA-MPU violation
      movi r0, 4             ; never reached: would print the secret
      mov  r1, r3
      int  0x21
  h:  jmp h
  )");
  EXPECT_GE(result.kills, 1u);
  EXPECT_EQ(result.fault, sim::FaultType::kMpuData);
  EXPECT_FALSE(result.attacker_alive);
  EXPECT_TRUE(result.serial.empty()) << "secret leaked: " << result.serial;
}

TEST(Attack, WriteOtherTaskStackKillsAttacker) {
  const AttackResult result = run_attack(R"(
      .secure
      .stack 128
      .entry main
  main:
      li   r2, %VICTIM_STACK%
      movi r3, 0
      stw  r3, [r2]          ; corrupting the victim's stack
  h:  jmp h
  )");
  EXPECT_GE(result.kills, 1u);
  EXPECT_EQ(result.fault, sim::FaultType::kMpuData);
  EXPECT_FALSE(result.attacker_alive);
}

TEST(Attack, JumpIntoVictimMidCodeBlocked) {
  const AttackResult result = run_attack(R"(
      .secure
      .stack 128
      .entry main
  main:
      li   r2, %VICTIM_MID%
      jmpr r2                ; code-reuse attempt: bypass the entry point
  h:  jmp h
  )");
  EXPECT_GE(result.kills, 1u);
  EXPECT_EQ(result.fault, sim::FaultType::kMpuTransfer);
}

TEST(Attack, CallIntoTrustedFirmwareBlocked) {
  const AttackResult result = run_attack(R"(
      .secure
      .stack 128
      .entry main
  main:
      li   r2, 0x14000       ; Int Mux window
      callr r2
  h:  jmp h
  )");
  EXPECT_GE(result.kills, 1u);
  EXPECT_EQ(result.fault, sim::FaultType::kMpuTransfer);
}

TEST(Attack, ReadPlatformKeyBlocked) {
  const AttackResult result = run_attack(R"(
      .secure
      .stack 128
      .entry main
  main:
      li   r2, 0x100600      ; platform-key register
      ldw  r3, [r2]
  h:  jmp h
  )");
  EXPECT_GE(result.kills, 1u);
  EXPECT_EQ(result.fault, sim::FaultType::kMpuData);
}

TEST(Attack, WriteRtmRegistryBlocked) {
  const AttackResult result = run_attack(R"(
      .secure
      .stack 128
      .entry main
  main:
      li   r2, 0x20000       ; RTM registry (forge an identity)
      movi r3, 0
      stw  r3, [r2]
  h:  jmp h
  )");
  EXPECT_GE(result.kills, 1u);
  EXPECT_EQ(result.fault, sim::FaultType::kMpuData);
}

TEST(Attack, RewriteIdtBlocked) {
  const AttackResult result = run_attack(R"(
      .secure
      .stack 128
      .entry main
  main:
      movi r2, 0x84          ; IDT entry for the syscall vector
      li   r3, 0x40000
      stw  r3, [r2]          ; install a malicious handler
  h:  jmp h
  )");
  EXPECT_GE(result.kills, 1u);
  EXPECT_EQ(result.fault, sim::FaultType::kMpuData);
}

TEST(Attack, StackPivotIntoVictimFaultsAtDispatch) {
  // Point SP into the victim's region then raise a syscall: the hardware
  // frame push runs under the *attacker's* identity and faults.
  const AttackResult result = run_attack(R"(
      .secure
      .stack 128
      .entry main
  main:
      li   r7, %VICTIM_STACK%
      movi r0, 1
      int  0x21
  h:  jmp h
  )");
  EXPECT_GE(result.kills, 1u);
  EXPECT_EQ(result.fault, sim::FaultType::kStackFault);
}

TEST(Attack, StackOverflowIntoNeighbourContained) {
  // A runaway recursion pushes past the task's own region; the first push
  // outside faults instead of silently corrupting a neighbour.
  const AttackResult result = run_attack(R"(
      .secure
      .stack 64
      .entry main
  main:
  recurse:
      push r0
      jmp  recurse
  )");
  EXPECT_GE(result.kills, 1u);
  // Either the PUSH itself faults (MPU data) or a tick's hardware frame push
  // finds SP outside the region first (stack fault) — both contain the task.
  EXPECT_TRUE(result.fault == sim::FaultType::kMpuData ||
              result.fault == sim::FaultType::kStackFault)
      << fault_name(result.fault);
}

TEST(Attack, VictimSurvivesAllAttacks) {
  // After an attacker is killed, the victim keeps running undisturbed.
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto victim = platform.load_task_source(kVictim, {.name = "victim", .priority = 2});
  ASSERT_TRUE(victim.is_ok());
  auto attacker = platform.load_task_source(R"(
      .secure
      .stack 128
      .entry main
  main:
      li   r2, 0x100600
      ldw  r3, [r2]
  h:  jmp h
  )", {.name = "attacker", .priority = 3});
  ASSERT_TRUE(attacker.is_ok());
  platform.run_for(3'000'000);
  EXPECT_EQ(platform.scheduler().get(*attacker), nullptr);
  const rtos::Tcb* vt = platform.scheduler().get(*victim);
  ASSERT_NE(vt, nullptr);
  const std::uint64_t activations = vt->activations;
  platform.run_for(1'000'000);
  EXPECT_GT(platform.scheduler().get(*victim)->activations, activations);
}

TEST(Attack, NormalTaskCannotReadSecureTask) {
  std::uint32_t secret = 0;
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto victim = platform.load_task_source(kVictim, {.name = "victim", .priority = 2});
  ASSERT_TRUE(victim.is_ok());
  auto probe = isa::assemble(kVictim);
  secret = platform.scheduler().get(*victim)->region_base + probe->symbols.at("secret");
  const std::string attacker = "    .stack 128\n    .entry main\nmain:\n    li r2, " +
                               std::to_string(secret) +
                               "\n    ldw r3, [r2]\nh:  jmp h\n";
  auto normal = platform.load_task_source(attacker, {.name = "normal", .priority = 3});
  ASSERT_TRUE(normal.is_ok());
  platform.run_for(3'000'000);
  EXPECT_EQ(platform.scheduler().get(*normal), nullptr);  // killed
  EXPECT_EQ(platform.machine().last_fault().type, sim::FaultType::kMpuData);
}

TEST(Attack, SecureTaskCanNotReconfigureEaMpu) {
  // There is no MMIO port for the EA-MPU (it is driver-mediated), but the
  // port-guard also rejects host-level writes while locked.
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  EXPECT_EQ(platform.mpu()
                .write_slot(17, {.code_start = 0x40000,
                                 .code_size = 0x1000,
                                 .data_start = 0,
                                 .data_size = 0x1000,
                                 .perms = sim::kPermRead | sim::kPermWrite})
                .code(),
            Err::kPermissionDenied);
}

TEST(Attack, FaultStormDoesNotStarveTheSystem) {
  // Loading a stream of crashing tasks must never wedge the platform.
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto victim = platform.load_task_source(kVictim, {.name = "victim", .priority = 2});
  ASSERT_TRUE(victim.is_ok());
  for (int i = 0; i < 8; ++i) {
    auto crasher = platform.load_task_source(R"(
        .secure
        .stack 128
        .entry main
    main:
        movi r2, 0
        ldw  r3, [r2]      ; IDT region -> fault
    h:  jmp h
    )", {.name = "crash" + std::to_string(i), .priority = 3});
    ASSERT_TRUE(crasher.is_ok());
    platform.run_for(500'000);
  }
  EXPECT_GE(platform.kernel().fault_kills(), 8u);
  EXPECT_FALSE(platform.machine().halted());
  EXPECT_NE(platform.scheduler().get(*victim), nullptr);
}

// ---------------------------------------------------------------------------
// The identity of a data access is the accessing instruction's own PC
// ---------------------------------------------------------------------------

constexpr std::uint32_t kCode = 0x40000;
constexpr std::uint32_t kLdw = kCode + 8;
constexpr std::uint32_t kValue = 0xDEADBEEF;

/// Store kValue at `addr`, load `ldw r3, [addr]` so that the ldw sits at
/// kLdw with a self-jump after it, and run it under `mpu` in `mode` —
/// through step(), or through run(), which chains cached ops.
std::unique_ptr<sim::Machine> run_load(const sim::EaMpu& mpu, std::uint32_t addr,
                                       sim::DispatchMode mode, bool stepped) {
  auto machine = std::make_unique<sim::Machine>();
  machine->set_dispatch_mode(mode);
  const std::uint32_t words[] = {
      isa::encode({isa::Opcode::kMoviu, 2, 0, static_cast<std::uint16_t>(addr & 0xFFFF)}),
      isa::encode({isa::Opcode::kMovhi, 2, 0, static_cast<std::uint16_t>(addr >> 16)}),
      isa::encode({isa::Opcode::kLdw, 3, 2, 0}),
      isa::encode({isa::Opcode::kJmp, 0, 0, static_cast<std::uint16_t>(-4)}),
  };
  for (std::uint32_t i = 0; i < std::size(words); ++i) {
    machine->memory().write32(kCode + 4 * i, words[i]);
  }
  machine->memory().write32(addr, kValue);
  machine->cpu().eip = kCode;
  machine->cpu().set_sp(0x48000);
  machine->set_policy(&mpu);
  if (stepped) {
    for (int i = 0; i < 20 && !machine->halted(); ++i) {
      machine->step();
    }
  } else {
    machine->run(200);
  }
  return machine;
}

TEST(Security, DataAccessIsCheckedUnderTheAccessingPc) {
  for (const auto mode : {sim::DispatchMode::kInterpreter, sim::DispatchMode::kCached}) {
    for (const bool stepped : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << (mode == sim::DispatchMode::kCached ? "cached" : "interpreter")
                   << (stepped ? " step()" : " run()"));
      {
        // The ldw is the last word of the rule's code range: it may read the
        // rule's data.  Checked under the next word's address it was denied,
        // and the fault named that next word.
        constexpr std::uint32_t kData = 0x60000;
        sim::EaMpu mpu;
        ASSERT_TRUE(mpu.write_slot(0, {.code_start = kCode,
                                       .code_size = kLdw + 4 - kCode,
                                       .data_start = kData,
                                       .data_size = 0x100,
                                       .perms = sim::kPermRead})
                        .is_ok());
        const auto machine = run_load(mpu, kData, mode, stepped);
        EXPECT_EQ(machine->fault_count(), 0u) << machine->last_fault().to_string();
        EXPECT_EQ(machine->cpu().regs[3], kValue);
      }
      {
        // The ldw is the last word of a region that ends where a secure
        // task's region begins.  Checked under the next word — the victim's
        // entry — it read the victim's memory as the victim itself.
        constexpr std::uint32_t kVictim = kLdw + 4;
        constexpr std::uint32_t kSecret = kVictim + 0x80;
        sim::EaMpu mpu;
        ASSERT_TRUE(
            mpu.add_exec_region({kCode, kVictim - kCode, sim::ExecRegion::kEntryAnywhere})
                .is_ok());
        ASSERT_TRUE(mpu.add_exec_region({kVictim, 0x100, kVictim}).is_ok());
        const auto machine = run_load(mpu, kSecret, mode, stepped);
        EXPECT_NE(machine->cpu().regs[3], kValue) << "secret leaked";
        EXPECT_EQ(machine->last_fault().type, sim::FaultType::kMpuData);
        EXPECT_EQ(machine->last_fault().eip, kLdw);
        EXPECT_EQ(machine->last_fault().addr, kSecret);
      }
    }
  }
}

}  // namespace
}  // namespace tytan
