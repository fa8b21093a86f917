// Platform-level tests: secure boot, static protections, and end-to-end
// guest execution under the booted policy.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/platform.h"

namespace tytan {
namespace {

using core::Platform;

// First in the file, so a `SecureBoot.*` run builds the shared manifest and
// its image records under eight concurrent boots (the TSan job runs it so).
TEST(SecureBoot, ParallelBootsShareImages) {
  constexpr std::size_t kBoots = 8;
  std::array<std::uint64_t, kBoots> digests{};
  std::array<bool, kBoots> booted{};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kBoots; ++i) {
    threads.emplace_back([i, &digests, &booted] {
      Platform platform;
      const auto report = platform.boot();
      booted[i] = report.is_ok() && report->ok;
      const auto snapshot = platform.save();
      digests[i] = snapshot.is_ok() ? snap::fnv1a64(snapshot->serialize()) : 0;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t i = 0; i < kBoots; ++i) {
    EXPECT_TRUE(booted[i]) << "boot " << i;
    EXPECT_NE(digests[i], 0u) << "boot " << i;
    EXPECT_EQ(digests[i], digests[0]) << "boot " << i;
  }
}

TEST(SecureBoot, BootSucceedsAndReportsComponents) {
  Platform platform;
  auto report = platform.boot();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(report->ok);
  EXPECT_EQ(report->components.size(), 7u);
  for (const auto& component : report->components) {
    EXPECT_TRUE(component.verified) << component.name;
  }
  // Sum of TyTAN component footprints = the paper's Table 8 overhead.
  EXPECT_EQ(report->trusted_bytes, 249'943u - 215'617u);
}

TEST(SecureBoot, DoubleBootRejected) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto second = platform.boot();
  EXPECT_FALSE(second.is_ok());
}

TEST(SecureBoot, TamperedFirmwareFailsVerification) {
  Platform platform;
  // Corrupt one byte of the RTM image between load and verify by driving the
  // boot ROM manually on a fresh platform.
  auto& machine = platform.machine();
  core::SecureBootRom rom(machine, platform.mpu());
  auto manifest = core::default_manifest();
  rom.load_images(manifest);
  machine.memory().write8(sim::kFwRtm + 100, machine.memory().read8(sim::kFwRtm + 100) ^ 1);
  auto report = rom.verify_and_lock(manifest);
  ASSERT_TRUE(report.is_ok());
  EXPECT_FALSE(report->ok);
  EXPECT_TRUE(machine.halted());
}

TEST(SecureBoot, EditedExpectedDigestFailsOnPristineWindow) {
  // A window that matches its image record byte for byte takes the record's
  // digest, never the manifest's `expected`: a manifest whose expectation
  // differs from the loaded image must still refuse it.
  Platform platform;
  auto& machine = platform.machine();
  core::SecureBootRom rom(machine, platform.mpu());
  auto manifest = core::default_manifest();
  rom.load_images(manifest);
  manifest[2].expected[7] ^= 0x10;
  auto report = rom.verify_and_lock(manifest);
  ASSERT_TRUE(report.is_ok());
  EXPECT_FALSE(report->ok);
  EXPECT_FALSE(report->components[2].verified);
  EXPECT_TRUE(report->components[1].verified);
  EXPECT_TRUE(machine.halted());
}

TEST(SecureBoot, TamperedLastFootprintByteFailsVerification) {
  // The byte compare covers the whole footprint, up to its last byte.
  Platform platform;
  auto& machine = platform.machine();
  core::SecureBootRom rom(machine, platform.mpu());
  const auto& manifest = core::default_manifest();
  rom.load_images(manifest);
  const core::BootComponent& rtm = manifest[4];
  ASSERT_EQ(rtm.window, sim::kFwRtm);
  const std::uint32_t last = rtm.window + rtm.footprint - 1;
  machine.memory().write8(last, machine.memory().read8(last) ^ 0x80);
  auto report = rom.verify_and_lock(manifest);
  ASSERT_TRUE(report.is_ok());
  EXPECT_FALSE(report->ok);
  EXPECT_FALSE(report->components[4].verified);
  EXPECT_TRUE(machine.halted());
}

TEST(SecureBoot, DefaultManifestMatchesFreshDigests) {
  // The manifest is built once per process; every digest must still be the
  // SHA-1 of the image the boot ROM writes, and repeated calls share it.
  // Each image record's digest is the SHA-1 of its bytes and of the window
  // those bytes fill on a booted platform.
  const std::vector<core::BootComponent>& manifest = core::default_manifest();
  EXPECT_EQ(&manifest, &core::default_manifest());
  ASSERT_EQ(manifest.size(), 7u);
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  for (const core::BootComponent& component : manifest) {
    const ByteVec fresh = core::SecureBootRom::image_bytes(component, sim::kFwWindowSize);
    EXPECT_EQ(component.expected, crypto::Sha1::hash(fresh)) << component.name;
    ASSERT_NE(component.image, nullptr) << component.name;
    EXPECT_EQ(component.image->bytes, fresh) << component.name;
    EXPECT_EQ(component.image->digest, crypto::Sha1::hash(component.image->bytes))
        << component.name;
    const auto window = platform.machine().memory().view(
        component.window, std::min(component.footprint, sim::kFwWindowSize));
    EXPECT_EQ(component.image->digest, crypto::Sha1::hash(window)) << component.name;
  }
}

TEST(StaticProtection, OsCannotWriteRtmRegistry) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto& machine = platform.machine();
  const Status s = machine.fw_write32(sim::kFwOsKernel, core::kRtmRegistryBase, 0xdead);
  EXPECT_EQ(s.code(), Err::kPermissionDenied);
  // The RTM itself may write.
  EXPECT_TRUE(machine.fw_write32(sim::kFwRtm, core::kRtmRegistryBase, 0).is_ok());
}

TEST(StaticProtection, OsCannotReadShadowTcbsOrPlatformKey) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto& machine = platform.machine();
  EXPECT_EQ(machine.fw_read32(sim::kFwOsKernel, core::kShadowTcbBase).status().code(),
            Err::kPermissionDenied);
  EXPECT_EQ(machine.fw_read32(sim::kFwOsKernel, sim::kMmioKeyReg).status().code(),
            Err::kPermissionDenied);
  // Only Remote Attest and Secure Storage may read Kp.
  EXPECT_TRUE(machine.fw_read32(sim::kFwRemoteAttest, sim::kMmioKeyReg).is_ok());
  EXPECT_TRUE(machine.fw_read32(sim::kFwSecureStorage, sim::kMmioKeyReg).is_ok());
  EXPECT_EQ(machine.fw_read32(sim::kFwIpcProxy, sim::kMmioKeyReg).status().code(),
            Err::kPermissionDenied);
}

TEST(StaticProtection, IdtIsLockedAfterBoot) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto& machine = platform.machine();
  // Nobody — not even trusted components — may rewrite interrupt vectors.
  EXPECT_EQ(machine.fw_write32(sim::kFwOsKernel, sim::kIdtBase, 0xbad).code(),
            Err::kPermissionDenied);
  EXPECT_EQ(machine.fw_write32(sim::kFwIntMux, sim::kIdtBase, 0xbad).code(),
            Err::kPermissionDenied);
}

TEST(Platform, IdleRunsWhenNoTasksLoaded) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  const auto reason = platform.run_for(500'000);
  EXPECT_EQ(reason, sim::HaltReason::kCycleLimit);
  // Ticks arrived at roughly cycles / tick_period.
  EXPECT_GE(platform.kernel().tick_count(), 8u);
}


TEST(Platform, InstancesAreFullyIndependent) {
  // No hidden global state: two platforms boot, run, and diverge without
  // affecting each other (required for fleet simulations and parallel tests).
  Platform a;
  Platform b;
  ASSERT_TRUE(a.boot().is_ok());
  ASSERT_TRUE(b.boot().is_ok());
  auto task = a.load_task_source(R"(
      .secure
      .stack 128
      .entry main
  main:
      movi r0, 4
      movi r1, 120
      int  0x21
      movi r0, 3
      int  0x21
  )", {.name = "only-on-a"});
  ASSERT_TRUE(task.is_ok());
  a.run_for(2'000'000);
  b.run_for(500'000);
  EXPECT_EQ(a.serial().output(), "x");
  EXPECT_TRUE(b.serial().output().empty());
  EXPECT_EQ(b.rtm().entries().size(), 0u);
  EXPECT_NE(a.machine().cycles(), b.machine().cycles());
}

TEST(Platform, DeterministicAcrossRuns) {
  // Identical inputs produce identical cycle-level behaviour — the property
  // EXPERIMENTS.md's "deterministic" claim rests on.
  auto run_once = [] {
    Platform platform;
    EXPECT_TRUE(platform.boot().is_ok());
    auto task = platform.load_task_source(R"(
        .secure
        .stack 128
        .entry main
    main:
        addi r5, 1
        movi r0, 1
        int  0x21
        jmp  main
    )", {.name = "det"});
    EXPECT_TRUE(task.is_ok());
    platform.run_for(3'000'000);
    return std::tuple{platform.machine().cycles(),
                      platform.machine().instructions_executed(),
                      platform.scheduler().get(*task)->activations,
                      platform.scheduler().get(*task)->cpu_cycles};
  };
  EXPECT_EQ(run_once(), run_once());
}

// End-to-end: a secure guest task runs under the booted policy, reads the
// pedal sensor over MMIO, and prints through the serial syscall.
TEST(Platform, SecureTaskRunsAndUsesSyscalls) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  platform.pedal().set_value(42);

  constexpr std::string_view kSource = R"(
      .secure
      .stack 256
      .entry main
  main:
      li   r2, 0x100200       ; pedal sensor MMIO
      ldw  r3, [r2]           ; read pedal position (42)
      movi r0, 4              ; kSysPutchar
      mov  r1, r3
      addi r1, 33             ; 42 + 33 = 'K'
      int  0x21
      movi r0, 3              ; kSysExit
      int  0x21
  hang:
      jmp  hang
  )";
  auto task = platform.load_task_source(kSource, {.name = "sensor"});
  ASSERT_TRUE(task.is_ok()) << task.status().to_string();

  platform.run_until([&] { return !platform.serial().output().empty(); }, 2'000'000);
  EXPECT_EQ(platform.serial().output(), "K");
  // The task exited and unloaded itself.
  platform.run_for(10'000);
  EXPECT_EQ(platform.scheduler().get(*task), nullptr);
}

TEST(Platform, NormalTaskRunsUnderOsControl) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());

  constexpr std::string_view kSource = R"(
      .stack 128
      .entry main
  main:
      movi r0, 4
      movi r1, 'n'            ; unsupported char literal -> use number below
      int  0x21
      movi r0, 3
      int  0x21
  )";
  // Replace the char literal with a number (the assembler takes numbers only).
  std::string source(kSource);
  const auto pos = source.find("'n'");
  source.replace(pos, 3, "110");
  auto task = platform.load_task_source(source, {.name = "normal"});
  ASSERT_TRUE(task.is_ok()) << task.status().to_string();
  platform.run_until([&] { return !platform.serial().output().empty(); }, 2'000'000);
  EXPECT_EQ(platform.serial().output(), "n");
}

// -- Physical memory: zero-fill on demand ------------------------------------

/// Pages the kernel holds resident (mincore) among those `memory`'s image
/// overlaps.
std::size_t resident_pages(const sim::PhysicalMemory& memory) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(memory.view(0, memory.size()).data());
  const std::uintptr_t lo = begin / page * page;
  const std::uintptr_t hi = (begin + memory.size() + page - 1) / page * page;
  std::vector<unsigned char> pages((hi - lo) / page);
  EXPECT_EQ(::mincore(reinterpret_cast<void*>(lo), hi - lo, pages.data()), 0);
  return static_cast<std::size_t>(
      std::count_if(pages.begin(), pages.end(), [](unsigned char p) { return (p & 1) != 0; }));
}

TEST(PhysicalMemory, FreshMemoryIsZeroAndNotResident) {
  sim::PhysicalMemory memory;
  EXPECT_EQ(resident_pages(memory), 0u);
  memory.write8(0x12345, 0x5A);
  EXPECT_EQ(resident_pages(memory), 1u);
  const std::span<const std::uint8_t> bytes = memory.view(0, memory.size());
  EXPECT_EQ(std::count(bytes.begin(), bytes.end(), 0), memory.size() - 1);
  EXPECT_EQ(memory.read8(0x12345), 0x5A);
  EXPECT_THROW((void)memory.read8(memory.size()), std::logic_error);
  EXPECT_THROW(memory.write8(memory.size(), 1), std::logic_error);
}

TEST(PhysicalMemory, OverrunPastTheImageFaults) {
  // An access that escapes the bounds checks lands on a guard page.
  sim::PhysicalMemory memory;
  const volatile std::uint8_t* end = memory.view(0, memory.size()).data() + memory.size();
  EXPECT_DEATH((void)*end, "");
}

// A booted device with one task running has 15 of its 257 image pages
// resident (4 KB pages).  The bound leaves 9 pages of headroom for firmware
// and loader layout changes.
constexpr std::size_t kBootedResidentPages = 24;

TEST(PhysicalMemory, BootedDeviceTouchesFewPages) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(R"(
      .secure
      .stack 128
      .entry main
  main:
      addi r5, 1
      movi r0, 1
      int  0x21
      jmp  main
  )", {.name = "resident"});
  ASSERT_TRUE(task.is_ok()) << task.status().to_string();
  platform.run_for(300'000);
  EXPECT_LT(resident_pages(platform.machine().memory()), kBootedResidentPages);
}

// Restoring a booted platform's snapshot into a fresh platform writes only
// the pages that the image or the fresh platform's construction made
// non-zero: 12 of the 257 image pages (4 KB pages), where writing the whole
// image makes all 257 resident.  The bound leaves 8 pages of headroom for
// firmware and loader layout changes.
constexpr std::size_t kRestoredResidentPages = 20;

TEST(PhysicalMemory, RestoreIntoFreshPlatformTouchesFewPages) {
  Platform booted;
  ASSERT_TRUE(booted.boot().is_ok());
  const auto snapshot = booted.save();
  ASSERT_TRUE(snapshot.is_ok()) << snapshot.status().to_string();
  Platform fresh;
  ASSERT_TRUE(fresh.restore(*snapshot).is_ok());
  EXPECT_LE(resident_pages(fresh.machine().memory()), kRestoredResidentPages);
  const auto restored = fresh.save();
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored->serialize(), snapshot->serialize());
}

TEST(PhysicalMemory, NewPlatformSeesNoBytesOfADestroyedOne) {
  // Whatever recycles device memory, a platform's image is its own boot over
  // zeros: compare against a boot over memory explicitly zeroed first.
  {
    Platform old;
    ASSERT_TRUE(old.boot().is_ok());
    sim::PhysicalMemory& memory = old.machine().memory();
    memory.fill(0, memory.size(), 0xA5);
  }
  Platform fresh;
  ASSERT_TRUE(fresh.boot().is_ok());
  Platform reference;
  reference.machine().memory().fill(0, reference.machine().memory().size(), 0);
  ASSERT_TRUE(reference.boot().is_ok());
  const sim::PhysicalMemory& got = fresh.machine().memory();
  const sim::PhysicalMemory& want = reference.machine().memory();
  ASSERT_EQ(got.size(), want.size());
  const auto a = got.view(0, got.size());
  const auto b = want.view(0, want.size());
  const auto [mismatch, _] = std::mismatch(a.begin(), a.end(), b.begin());
  EXPECT_EQ(mismatch, a.end()) << "first difference at " << (mismatch - a.begin());
}

}  // namespace
}  // namespace tytan
