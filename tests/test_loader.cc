// Dynamic task loading/unloading and the RTM measurement (paper §4).
#include <gtest/gtest.h>

#include "core/platform.h"
#include "narrow_rule.h"
#include "tbf/tbf.h"

namespace tytan {
namespace {

using core::LoadParams;
using core::Platform;

constexpr std::string_view kSecureTask = R"(
    .secure
    .stack 256
    .entry main
main:
    li   r2, counter
    ldw  r3, [r2]
    addi r3, 1
    stw  r3, [r2]
    movi r0, 1          ; kSysYield
    int  0x21
    jmp  main
counter:
    .word 0
)";

TEST(Loader, LoadsSecureTaskAndMeasuresIt) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(kSecureTask, {.name = "counter"});
  ASSERT_TRUE(task.is_ok()) << task.status().to_string();

  const rtos::Tcb* tcb = platform.scheduler().get(*task);
  ASSERT_NE(tcb, nullptr);
  EXPECT_TRUE(tcb->secure);
  EXPECT_TRUE(tcb->measured);
  EXPECT_NE(tcb->identity, rtos::TaskIdentity{});
  EXPECT_NE(platform.rtm().find_by_handle(*task), nullptr);

  // The task actually runs: its counter increments.
  const std::uint32_t counter_addr =
      tcb->region_base + 0 /* placeholder, resolved below */;
  (void)counter_addr;
  platform.run_for(2'000'000);
  // Read the counter through a trusted identity (the RTM may read task memory).
  auto object = isa::assemble(kSecureTask);
  const std::uint32_t off = object->symbols.at("counter");
  auto value = platform.machine().fw_read32(core::Rtm::kIdent, tcb->region_base + off);
  ASSERT_TRUE(value.is_ok());
  EXPECT_GT(*value, 0u);
}

TEST(Loader, MeasurementIsPositionIndependent) {
  // Load the same binary twice; the two instances land at different bases
  // but must measure to the same identity (paper §4, RTM de-relocation).
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto a = platform.load_task_source(kSecureTask, {.name = "a", .auto_start = false});
  auto b = platform.load_task_source(kSecureTask, {.name = "b", .auto_start = false});
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  const rtos::Tcb* ta = platform.scheduler().get(*a);
  const rtos::Tcb* tb = platform.scheduler().get(*b);
  ASSERT_NE(ta->region_base, tb->region_base);
  EXPECT_EQ(ta->identity, tb->identity);
  // And the relocated images in memory differ (bases differ)...
  const core::RegistryEntry* ea = platform.rtm().find_by_handle(*a);
  const core::RegistryEntry* eb = platform.rtm().find_by_handle(*b);
  ASSERT_NE(ea, nullptr);
  ASSERT_NE(eb, nullptr);
  EXPECT_EQ(ea->digest, eb->digest);
}

TEST(Loader, DifferentBinariesMeasureDifferently) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto a = platform.load_task_source(kSecureTask, {.name = "a", .auto_start = false});
  std::string modified(kSecureTask);
  modified.replace(modified.find("addi r3, 1"), 10, "addi r3, 2");
  auto b = platform.load_task_source(modified, {.name = "b", .auto_start = false});
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_NE(platform.scheduler().get(*a)->identity, platform.scheduler().get(*b)->identity);
}

TEST(Loader, UnloadReclaimsEverything) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  const std::uint32_t free_before = platform.loader().arena().free_bytes();
  const std::size_t slots_before = platform.mpu().slots_in_use();
  auto task = platform.load_task_source(kSecureTask, {.name = "t"});
  ASSERT_TRUE(task.is_ok());
  EXPECT_LT(platform.loader().arena().free_bytes(), free_before);
  EXPECT_GT(platform.mpu().slots_in_use(), slots_before);

  ASSERT_TRUE(platform.unload_task(*task).is_ok());
  EXPECT_EQ(platform.loader().arena().free_bytes(), free_before);
  EXPECT_EQ(platform.mpu().slots_in_use(), slots_before);
  EXPECT_EQ(platform.scheduler().get(*task), nullptr);
  EXPECT_EQ(platform.rtm().find_by_handle(*task), nullptr);
}

TEST(Loader, UnloadWipesMemory) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(kSecureTask, {.name = "t", .auto_start = false});
  ASSERT_TRUE(task.is_ok());
  const rtos::Tcb* tcb = platform.scheduler().get(*task);
  const std::uint32_t base = tcb->region_base;
  const std::uint32_t size = tcb->region_size;
  ASSERT_TRUE(platform.unload_task(*task).is_ok());
  for (std::uint32_t i = 0; i < size; i += 256) {
    EXPECT_EQ(platform.machine().memory().read8(base + i), 0) << "offset " << i;
  }
}

TEST(Loader, SuspendedLoadDoesNotRun) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(kSecureTask, {.name = "t", .auto_start = false});
  ASSERT_TRUE(task.is_ok());
  platform.run_for(500'000);
  EXPECT_EQ(platform.scheduler().get(*task)->activations, 0u);
  ASSERT_TRUE(platform.resume_task(*task).is_ok());
  platform.run_for(500'000);
  EXPECT_GT(platform.scheduler().get(*task)->activations, 0u);
}

TEST(Loader, RejectsGarbage) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  isa::ObjectFile empty;
  EXPECT_FALSE(platform.load_task(empty, {.name = "x"}).is_ok());

  isa::ObjectFile bad_entry;
  bad_entry.image.resize(8, 0);
  bad_entry.entry = 100;
  EXPECT_FALSE(platform.load_task(bad_entry, {.name = "y"}).is_ok());
}

TEST(Loader, TbfRoundTripLoads) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto object = isa::assemble(kSecureTask);
  ASSERT_TRUE(object.is_ok());
  const ByteVec raw = tbf::write(*object);
  auto parsed = tbf::read(raw);
  ASSERT_TRUE(parsed.is_ok());
  auto task = platform.load_task(parsed.take(), {.name = "from-tbf"});
  EXPECT_TRUE(task.is_ok()) << task.status().to_string();
}

TEST(Loader, AsyncLoadCompletesWhileMachineRuns) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto object = isa::assemble(kSecureTask);
  ASSERT_TRUE(object.is_ok());
  auto task = platform.load_task_async(object.take(), {.name = "async"});
  ASSERT_TRUE(task.is_ok());
  EXPECT_TRUE(platform.load_in_progress());
  ASSERT_TRUE(platform.run_until([&] { return !platform.load_in_progress(); }, 20'000'000));
  const rtos::Tcb* tcb = platform.scheduler().get(*task);
  ASSERT_NE(tcb, nullptr);
  EXPECT_TRUE(tcb->measured);
}


TEST(Loader, AsyncLoadFromSourceString) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source_async(kSecureTask, {.name = "src-async"});
  ASSERT_TRUE(task.is_ok()) << task.status().to_string();
  ASSERT_TRUE(platform.run_until([&] { return !platform.load_in_progress(); }, 20'000'000));
  EXPECT_TRUE(platform.scheduler().get(*task)->measured);
  // Malformed source fails up front, before any job is queued.
  EXPECT_FALSE(platform.load_task_source_async("bogus instr\n", {.name = "bad"}).is_ok());
  EXPECT_FALSE(platform.load_in_progress());
}

TEST(Loader, RegistryWireFormatStaysConsistentAcrossUnloads) {
  // The authoritative registry bytes in trusted memory must always mirror
  // the RTM's host-side index, including after mid-list unloads compact it.
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  std::vector<rtos::TaskHandle> tasks;
  for (int i = 0; i < 4; ++i) {
    std::string source(kSecureTask);
    source += "    .word " + std::to_string(i) + "\n";
    auto task = platform.load_task_source(source, {.name = "t" + std::to_string(i),
                                                   .auto_start = false});
    ASSERT_TRUE(task.is_ok());
    tasks.push_back(*task);
  }
  // Unload the second entry; the tail compacts.
  ASSERT_TRUE(platform.unload_task(tasks[1]).is_ok());

  auto& machine = platform.machine();
  const auto& entries = platform.rtm().entries();
  ASSERT_EQ(entries.size(), 3u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const core::RegistryEntry& entry = entries[i];
    EXPECT_EQ(entry.entry_addr,
              core::kRtmRegistryBase +
                  static_cast<std::uint32_t>(i) * core::kRegistryEntrySize);
    // Identity bytes in trusted memory match the host view.
    for (unsigned b = 0; b < 8; ++b) {
      auto byte = machine.fw_read8(core::Rtm::kIdent, entry.entry_addr + b);
      ASSERT_TRUE(byte.is_ok());
      EXPECT_EQ(*byte, entry.identity[b]) << "entry " << i << " byte " << b;
    }
    auto base = machine.fw_read32(core::Rtm::kIdent, entry.entry_addr + 28);
    auto flags = machine.fw_read32(core::Rtm::kIdent, entry.entry_addr + 44);
    ASSERT_TRUE(base.is_ok());
    EXPECT_EQ(*base, entry.base);
    EXPECT_EQ(*flags & core::kRegistryFlagValid, core::kRegistryFlagValid);
  }
  // The vacated tail slot is invalidated.
  auto stale_flags = machine.fw_read32(
      core::Rtm::kIdent,
      core::kRtmRegistryBase + 3 * core::kRegistryEntrySize + 44);
  ASSERT_TRUE(stale_flags.is_ok());
  EXPECT_EQ(*stale_flags & core::kRegistryFlagValid, 0u);
}

// A registry write denied part-way through the compaction of an unload
// leaves the task registered, and the wire registry still mirrors the host
// index slot for slot.
TEST(Loader, DeniedCompactionWriteKeepsBothRegistryViews) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  const std::size_t first = platform.rtm().entries().size();
  std::vector<rtos::TaskHandle> tasks;
  for (int i = 0; i < 4; ++i) {
    std::string source(kSecureTask);
    source += "    .word " + std::to_string(i) + "\n";
    auto task = platform.load_task_source(source, {.name = "t" + std::to_string(i),
                                                   .auto_start = false});
    ASSERT_TRUE(task.is_ok());
    tasks.push_back(*task);
  }
  // Unloading the second task shifts the third and fourth down one slot;
  // the RTM may write the slot of the third but not the one after it.
  const auto slot_addr = [](std::size_t slot) {
    return core::kRtmRegistryBase + static_cast<std::uint32_t>(slot) * core::kRegistryEntrySize;
  };
  ReplacedRule rtm_rule;
  ASSERT_NO_FATAL_FAILURE(narrow_static_rule(platform, sim::kFwRtm, /*background=*/false,
                                             core::kRtmRegistryBase,
                                             slot_addr(first + 2) - core::kRtmRegistryBase,
                                             sim::kPermRead | sim::kPermWrite, &rtm_rule));
  const Status unload = platform.unload_task(tasks[1]);
  EXPECT_EQ(unload.code(), Err::kPermissionDenied);
  ASSERT_NO_FATAL_FAILURE(replace_rule(platform, rtm_rule.slot, rtm_rule.rule));

  EXPECT_NE(platform.rtm().find_by_handle(tasks[1]), nullptr);
  EXPECT_NE(platform.scheduler().get(tasks[1]), nullptr);
  const auto& entries = platform.rtm().entries();
  ASSERT_EQ(entries.size(), first + 4);
  auto& machine = platform.machine();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const core::RegistryEntry& entry = entries[i];
    ASSERT_EQ(entry.entry_addr, slot_addr(i));
    for (unsigned b = 0; b < 8; ++b) {
      auto byte = machine.fw_read8(core::Rtm::kIdent, entry.entry_addr + b);
      ASSERT_TRUE(byte.is_ok());
      EXPECT_EQ(*byte, entry.identity[b]) << "slot " << i << " byte " << b;
    }
    auto base = machine.fw_read32(core::Rtm::kIdent, entry.entry_addr + 28);
    auto flags = machine.fw_read32(core::Rtm::kIdent, entry.entry_addr + 44);
    ASSERT_TRUE(base.is_ok() && flags.is_ok());
    EXPECT_EQ(*base, entry.base) << "slot " << i;
    EXPECT_EQ(*flags & core::kRegistryFlagValid, core::kRegistryFlagValid) << "slot " << i;
  }
}

// The base the arena hands the next load of `object`: first fit returns
// the block a load-and-unload just freed.
std::uint32_t next_load_base(Platform& platform, const isa::ObjectFile& object) {
  auto probe = platform.load_task(object, {.name = "probe", .auto_start = false});
  EXPECT_TRUE(probe.is_ok()) << probe.status().to_string();
  const std::uint32_t base = platform.scheduler().get(*probe)->region_base;
  EXPECT_TRUE(platform.unload_task(*probe).is_ok());
  return base;
}

TEST(Loader, DeniedImageTailByteFailsTheLoad) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto object = isa::assemble(kSecureTask);
  ASSERT_TRUE(object.is_ok());
  object->image.push_back(0xAB);  // a tail shorter than a word: copied byte by byte
  object->image.push_back(0xCD);
  const auto image_size = static_cast<std::uint32_t>(object->image.size());
  const std::uint32_t base = next_load_base(platform, *object);
  // Another trusted component's rule over the last byte: the loader (OS
  // kernel identity) may no longer write it.
  auto slot = platform.eampu_driver().configure({.code_start = sim::kFwRemoteAttest,
                                                 .code_size = sim::kFwWindowSize,
                                                 .data_start = base + image_size - 1,
                                                 .data_size = 1,
                                                 .perms = sim::kPermRead | sim::kPermWrite});
  ASSERT_TRUE(slot.is_ok()) << slot.status().to_string();
  const std::size_t tasks_before = platform.scheduler().task_count();
  auto task = platform.load_task(*object, {.name = "tail"});
  ASSERT_FALSE(task.is_ok()) << "the image's last byte was never written";
  EXPECT_EQ(task.status().code(), Err::kPermissionDenied);
  EXPECT_EQ(platform.scheduler().task_count(), tasks_before);
}

TEST(Loader, DeniedRelocationWriteBackFailsTheLoad) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto object = isa::assemble(kSecureTask);
  ASSERT_TRUE(object.is_ok());
  ASSERT_FALSE(object->relocs.empty());
  const std::uint32_t site = next_load_base(platform, *object) + object->relocs[0].offset;
  core::TaskLoader& loader = platform.loader();
  auto task = loader.begin_load(*object, {.name = "reloc", .auto_start = false});
  ASSERT_TRUE(task.is_ok());
  for (int quantum = 0; quantum < 3; ++quantum) {  // verify, alloc, copy
    ASSERT_TRUE(loader.load_quantum());
  }
  // From here the OS kernel may read the relocation site but not write it.
  auto slot = platform.eampu_driver().configure({.code_start = sim::kFwOsKernel,
                                                 .code_size = sim::kFwWindowSize,
                                                 .data_start = site,
                                                 .data_size = 4,
                                                 .perms = sim::kPermRead});
  ASSERT_TRUE(slot.is_ok()) << slot.status().to_string();
  while (loader.load_quantum()) {
  }
  EXPECT_EQ(platform.scheduler().get(*task), nullptr)
      << "the load completed with an unrelocated word";
}

TEST(Loader, DeniedRegistryWriteFailsTheLoad) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  const std::size_t entries_before = platform.rtm().entries().size();
  // The RTM keeps the first four bytes of the next registry entry; the rest
  // of the registry stays protected by the other components' rules.
  const std::uint32_t entry_addr =
      core::kRtmRegistryBase +
      static_cast<std::uint32_t>(entries_before) * core::kRegistryEntrySize;
  ASSERT_NO_FATAL_FAILURE(narrow_static_rule(platform, sim::kFwRtm, /*background=*/false,
                                             core::kRtmRegistryBase,
                                             entry_addr + 4 - core::kRtmRegistryBase));
  auto task = platform.load_task_source(kSecureTask, {.name = "registry"});
  ASSERT_FALSE(task.is_ok()) << "the registry entry was left partly written";
  EXPECT_EQ(task.status().code(), Err::kPermissionDenied);
  EXPECT_EQ(platform.rtm().entries().size(), entries_before);
}

TEST(Arena, AllocFreeCoalesce) {
  core::RamArena arena(0x1000, 0x1000);
  auto a = arena.alloc(0x100);
  auto b = arena.alloc(0x100);
  auto c = arena.alloc(0x100);
  ASSERT_TRUE(a.is_ok() && b.is_ok() && c.is_ok());
  EXPECT_TRUE(arena.free(*b).is_ok());
  EXPECT_TRUE(arena.free(*a).is_ok());
  EXPECT_TRUE(arena.free(*c).is_ok());
  EXPECT_EQ(arena.free_bytes(), 0x1000u);
  EXPECT_EQ(arena.block_count(), 1u);  // fully coalesced
  // Whole arena allocatable again.
  EXPECT_TRUE(arena.alloc(0x1000).is_ok());
}

TEST(Arena, ExhaustionAndErrors) {
  core::RamArena arena(0x1000, 0x200);
  EXPECT_FALSE(arena.alloc(0x400).is_ok());
  EXPECT_FALSE(arena.alloc(0).is_ok());
  EXPECT_FALSE(arena.free(0x1234).is_ok());
}

}  // namespace
}  // namespace tytan
