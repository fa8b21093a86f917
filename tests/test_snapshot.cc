// Versioned machine snapshots: the restore(save(m)) == m contract.
//
// The tentpole guarantees under test:
//   * restore(save(m)) is bit-identical — saving again yields byte-identical
//     snapshot content;
//   * a restored platform re-executes identically (same cycle counts, same
//     serial output, same faults), including under an active fault plan and
//     from a mid-measurement save point;
//   * two clones of one platform run bit-identically (no hidden mutable
//     statics feed guest-visible state);
//   * truncated / corrupt / wrong-version files parse to a typed one-line
//     error, never to a half-restored machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/platform.h"
#include "obs/heat.h"
#include "snap/snapshot.h"

namespace tytan {
namespace {

constexpr std::string_view kCounterTask = R"(
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

/// Serialized wire image of a platform's full state (the bit-identity probe).
ByteVec state_bytes(const core::Platform& platform) {
  auto snapshot = platform.save();
  EXPECT_TRUE(snapshot.is_ok()) << snapshot.status().to_string();
  return snapshot->serialize();
}

void boot_with_counter(core::Platform& platform) {
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(kCounterTask, {.name = "counter"});
  ASSERT_TRUE(task.is_ok()) << task.status().to_string();
}

TEST(Snapshot, SchemaGoldenTagList) {
  core::Platform platform;
  snap::ListVisitor visitor;
  ASSERT_TRUE(platform.visit_state(visitor).is_ok());
  // This list IS the wire schema.  If this test fails you changed the
  // section catalogue: bump snap::kSchemaVersion and update docs/SNAPSHOT.md.
  const std::vector<std::string> expected = {
      "CONF", "PLAT", "MACH", "MEMR", "DEVS", "TRCE", "EMPU", "DRVS", "SCHD",
      "KRNL", "IMUX", "LOAD", "RTMS", "STOR", "IPCP", "UPDT", "FALT"};
  EXPECT_EQ(visitor.tags(), expected);
  EXPECT_EQ(snap::kSchemaVersion, 1u);
}

// Restoring the same snapshot repeatedly takes the dirty-range rewind fast
// path (PhysicalMemory dirty tracking); it must land on exactly the state a
// from-scratch full restore produces — the fork-fuzzing loop depends on it.
TEST(Snapshot, RewindFastPathMatchesFullRestore) {
  core::Platform platform;
  boot_with_counter(platform);
  platform.run_for(200'000);

  auto pristine = platform.save();
  ASSERT_TRUE(pristine.is_ok()) << pristine.status().to_string();

  // First restore records the digest; the runs in between dirty memory; the
  // later restores rewind only the dirty range.
  ASSERT_TRUE(platform.restore(*pristine).is_ok());
  for (int i = 0; i < 3; ++i) {
    platform.run_for(50'000 * (i + 1));
    ASSERT_TRUE(platform.restore(*pristine).is_ok());
    EXPECT_EQ(state_bytes(platform), pristine->serialize()) << "rewind " << i;
  }

  // A fresh platform restoring the same snapshot (full path, no digest
  // match) re-executes in lockstep with the rewound one.
  core::Platform full{platform.config()};
  ASSERT_TRUE(full.restore(*pristine).is_ok());
  platform.run_for(100'000);
  full.run_for(100'000);
  EXPECT_EQ(state_bytes(platform), state_bytes(full));
}

/// `base` with `memr`'s memory image and the payload of section `broken`
/// cut short by one byte, so restoring it fails at that section.
snap::Snapshot forge(const snap::Snapshot& base, const snap::Snapshot& memr,
                     std::string_view broken) {
  snap::Snapshot forged;
  for (const snap::Section& section : base.sections()) {
    ByteVec bytes = section.tag == "MEMR" ? *memr.find("MEMR") : section.bytes;
    if (section.tag == broken) {
      bytes.pop_back();
    }
    forged.add(section.tag, std::move(bytes));
  }
  return forged;
}

// Memory rewinds by snapshot identity: a copy and a reparse of A are A's
// bytes, B is not, and a restore that fails before or after MEMR leaves
// memory's record true.  Every successful restore, whichever pages it
// writes, must land on its snapshot's exact bytes.
TEST(Snapshot, RewindKeysOnSnapshotIdentity) {
  core::Platform source;
  boot_with_counter(source);
  source.run_for(200'000);
  auto a = source.save();
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  source.run_for(300'000);
  auto b = source.save();
  ASSERT_TRUE(b.is_ok()) << b.status().to_string();
  ASSERT_NE(*a->find("MEMR"), *b->find("MEMR"));

  const snap::Snapshot copy = *a;
  auto reparsed = snap::Snapshot::parse(a->serialize());
  ASSERT_TRUE(reparsed.is_ok()) << reparsed.status().to_string();
  EXPECT_EQ(copy.id(), a->id());
  EXPECT_NE(reparsed->id(), a->id());
  EXPECT_NE(b->id(), a->id());
  // MACH precedes MEMR in the walk, KRNL follows it.
  const snap::Snapshot fails_before = forge(*a, *b, "MACH");
  const snap::Snapshot fails_after = forge(*a, *b, "KRNL");

  // Before its first restore the target boots and writes a page that A
  // holds as zeros.
  constexpr std::uint32_t kZeroPage = sim::kRamEnd - 0x1000;
  const ByteVec& a_memory = *a->find("MEMR");
  ASSERT_TRUE(std::all_of(a_memory.end() - (sim::kMemSize - kZeroPage),
                          a_memory.end() - (sim::kMemSize - sim::kRamEnd),
                          [](std::uint8_t byte) { return byte == 0; }));
  core::Platform target{source.config()};
  boot_with_counter(target);
  target.machine().memory().fill(kZeroPage, 0x1000, 0xA5);
  const auto restores = [&target](const snap::Snapshot& snapshot, const char* name) {
    const Status restored = target.restore(snapshot);
    ASSERT_TRUE(restored.is_ok()) << name << ": " << restored.to_string();
    EXPECT_EQ(state_bytes(target), snapshot.serialize()) << name;
  };
  const auto run = [&target] { target.run_for(50'000); };
  restores(*a, "A");
  run();
  restores(*a, "A again");
  run();
  restores(copy, "copy of A");
  run();
  restores(*reparsed, "reparsed A");
  // No run in between: the pages where A and B differ are not dirty.
  restores(*b, "B right after A");
  restores(*a, "A right after B");
  run();
  EXPECT_FALSE(target.restore(fails_after).is_ok());
  restores(*a, "A after a failure past MEMR");
  run();
  EXPECT_FALSE(target.restore(fails_before).is_ok());
  restores(*a, "A after a failure before MEMR");
  EXPECT_FALSE(target.restore(fails_after).is_ok());
  restores(*b, "B after a failure past MEMR");
  restores(copy, "copy of A right after B");
}

TEST(Snapshot, RoundTripIsBitIdentical) {
  core::Platform platform;
  boot_with_counter(platform);
  platform.run_for(500'000);

  auto first = platform.save();
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  ASSERT_TRUE(platform.restore(*first).is_ok());
  auto second = platform.save();
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_EQ(first->serialize(), second->serialize());

  // The container round-trips through its own wire format ...
  auto reparsed = snap::Snapshot::parse(first->serialize());
  ASSERT_TRUE(reparsed.is_ok()) << reparsed.status().to_string();
  EXPECT_EQ(reparsed->serialize(), first->serialize());
  // ... and the recorded cycle is the machine's clock at save time.
  auto cycle = core::Platform::snapshot_cycle(*first);
  ASSERT_TRUE(cycle.is_ok());
  EXPECT_EQ(*cycle, platform.machine().cycles());
}

// The wire image of four deterministic states, pinned as FNV-1a digests.
// Any change to a section's payload layout, field order, or encoding moves a
// digest; a refactor of the state walk must leave all four untouched.  If a
// digest moves on purpose, that is a wire-format change: bump
// snap::kSchemaVersion and update docs/SNAPSHOT.md.
TEST(Snapshot, WireImageDigestIsPinned) {
  auto digest = [](const core::Platform& platform) {
    return snap::fnv1a64(state_bytes(platform));
  };

  core::Platform booted;
  ASSERT_TRUE(booted.boot().is_ok());
  EXPECT_EQ(digest(booted), 0x82ba'4c42'3f77'68bbull) << "booted";

  core::Platform counter;
  boot_with_counter(counter);
  counter.run_for(500'000);
  EXPECT_EQ(digest(counter), 0x8096'c2f5'7c93'b3e1ull) << "counter";

  core::Platform measuring;
  ASSERT_TRUE(measuring.boot().is_ok());
  auto object = isa::assemble(kCounterTask);
  ASSERT_TRUE(object.is_ok());
  for (int i = 0; i < 4'000; ++i) {
    append_le32(object->image, 0);
  }
  ASSERT_TRUE(measuring.load_task_async(*object, {.name = "counter"}).is_ok());
  measuring.run_for(3 * measuring.config().tick_period);
  ASSERT_TRUE(measuring.load_in_progress());
  EXPECT_EQ(digest(measuring), 0x6154'f4aa'ab10'd5fcull) << "mid-measurement";

  auto plan = fault::FaultPlan::parse("tbf-bitflip@load:victim");
  ASSERT_TRUE(plan.is_ok());
  core::Platform::Config config;
  config.fault_plan = *plan;
  core::Platform faulted(config);
  ASSERT_TRUE(faulted.boot().is_ok());
  (void)faulted.load_task_source(kCounterTask, {.name = "victim"});
  faulted.run_for(500'000);
  EXPECT_EQ(digest(faulted), 0xcd01'1897'e779'df71ull) << "fault plan";
}

TEST(Snapshot, RestoredPlatformReexecutesIdentically) {
  core::Platform original;
  boot_with_counter(original);
  original.run_for(200'000);
  auto snapshot = original.save();
  ASSERT_TRUE(snapshot.is_ok()) << snapshot.status().to_string();

  core::Platform restored;
  ASSERT_TRUE(restored.restore(*snapshot).is_ok());
  EXPECT_EQ(state_bytes(original), state_bytes(restored));

  original.run_for(1'000'000);
  restored.run_for(1'000'000);
  EXPECT_EQ(original.machine().cycles(), restored.machine().cycles());
  EXPECT_EQ(original.machine().instructions_executed(),
            restored.machine().instructions_executed());
  EXPECT_EQ(original.serial().output(), restored.serial().output());
  EXPECT_EQ(state_bytes(original), state_bytes(restored));
}

TEST(Snapshot, CorpusProgramsReexecuteIdentically) {
  const std::filesystem::path dir(TYTAN_ASM_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t programs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".s") {
      continue;
    }
    std::ifstream in(entry.path());
    std::stringstream source;
    source << in.rdbuf();

    core::Platform original;
    ASSERT_TRUE(original.boot().is_ok());
    auto task = original.load_task_source(source.str(),
                                          {.name = entry.path().stem().string()});
    if (!task.is_ok()) {
      continue;  // corpus files that need a harness are out of scope here
    }
    original.run_for(100'000);
    auto snapshot = original.save();
    ASSERT_TRUE(snapshot.is_ok()) << entry.path() << ": " << snapshot.status().to_string();

    core::Platform restored;
    ASSERT_TRUE(restored.restore(*snapshot).is_ok()) << entry.path();
    original.run_for(400'000);
    restored.run_for(400'000);
    EXPECT_EQ(state_bytes(original), state_bytes(restored)) << entry.path();
    ++programs;
  }
  EXPECT_GE(programs, 3u) << "corpus should exercise several programs";
}

TEST(Snapshot, FaultedRunReexecutesIdentically) {
  auto plan = fault::FaultPlan::parse("tbf-bitflip@load:victim");
  ASSERT_TRUE(plan.is_ok());
  core::Platform::Config config;
  config.fault_plan = *plan;

  core::Platform original(config);
  ASSERT_TRUE(original.boot().is_ok());
  auto snapshot = original.save();
  ASSERT_TRUE(snapshot.is_ok()) << snapshot.status().to_string();

  core::Platform restored(config);
  ASSERT_TRUE(restored.restore(*snapshot).is_ok());

  // Both platforms now take the same bit flip at the same load and must end
  // in identical states — the engine's RNG cursor travelled with the
  // snapshot.
  for (core::Platform* platform : {&original, &restored}) {
    auto task = platform->load_task_source(kCounterTask, {.name = "victim"});
    (void)task;  // the flip may or may not break the load; both must agree
    platform->run_for(500'000);
  }
  ASSERT_NE(original.fault_engine(), nullptr);
  EXPECT_EQ(original.fault_engine()->injected_total(),
            restored.fault_engine()->injected_total());
  EXPECT_EQ(state_bytes(original), state_bytes(restored));
}

TEST(Snapshot, MidMeasurementSaveReexecutesIdentically) {
  core::Platform original;
  ASSERT_TRUE(original.boot().is_ok());
  auto object = isa::assemble(kCounterTask);
  ASSERT_TRUE(object.is_ok());
  // Pad the image so copying and measuring it spans many loader quanta —
  // the save below must land mid-measurement, with the RTM's incremental
  // SHA-1 state in flight.
  for (int i = 0; i < 4'000; ++i) {
    append_le32(object->image, 0);
  }
  auto task = original.load_task_async(*object, {.name = "counter"});
  ASSERT_TRUE(task.is_ok()) << task.status().to_string();
  // Advance until the loader/RTM job is genuinely mid-flight, then save.
  original.run_for(3 * original.config().tick_period);
  ASSERT_TRUE(original.load_in_progress());
  auto snapshot = original.save();
  ASSERT_TRUE(snapshot.is_ok()) << snapshot.status().to_string();

  core::Platform restored;
  ASSERT_TRUE(restored.restore(*snapshot).is_ok());
  EXPECT_TRUE(restored.load_in_progress());

  ASSERT_TRUE(original.run_until([&] { return !original.load_in_progress(); },
                                 20'000'000));
  ASSERT_TRUE(restored.run_until([&] { return !restored.load_in_progress(); },
                                 20'000'000));
  EXPECT_EQ(original.rtm().entries().size(), 1u);
  EXPECT_EQ(state_bytes(original), state_bytes(restored));
}

TEST(Snapshot, TwoClonesRunBitIdentically) {
  core::Platform original;
  boot_with_counter(original);
  original.run_for(250'000);

  auto first = original.clone();
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  auto second = original.clone();
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();

  // Hidden mutable statics or lazily-initialized caches would make the two
  // clones drift; bit-identical state after a long run proves there are none
  // feeding guest-visible state.
  (*first)->run_for(2'000'000);
  (*second)->run_for(2'000'000);
  EXPECT_EQ(state_bytes(**first), state_bytes(**second));
  EXPECT_EQ((*first)->serial().output(), (*second)->serial().output());
  EXPECT_EQ((*first)->machine().cycles(), (*second)->machine().cycles());
}

TEST(Snapshot, SaveRefusesStateThatCannotTravel) {
  core::Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());

  // Active software timers hold host closures.
  ASSERT_TRUE(platform.kernel()
                  .timers()
                  .create_oneshot(platform.kernel().tick_count() + 100,
                                  [](rtos::TimerHandle) {})
                  .is_ok());
  auto refused = platform.save();
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.status().code(), Err::kUnavailable);

  // An async load carrying an on_loaded callback (hitless updates).
  core::Platform other;
  ASSERT_TRUE(other.boot().is_ok());
  auto object = isa::assemble(kCounterTask);
  ASSERT_TRUE(object.is_ok());
  bool done = false;
  auto task = other.load_task_async(
      *object, {.name = "counter", .on_loaded = [&](rtos::TaskHandle) { done = true; }});
  ASSERT_TRUE(task.is_ok());
  auto also_refused = other.save();
  ASSERT_FALSE(also_refused.is_ok());
  EXPECT_EQ(also_refused.status().code(), Err::kUnavailable);
  // Once the callback has fired the platform is snapshottable again.
  ASSERT_TRUE(other.run_until([&] { return done; }, 20'000'000));
  EXPECT_TRUE(other.save().is_ok());
}

TEST(Snapshot, RestoreRejectsIncompatiblePlatform) {
  core::Platform original;
  ASSERT_TRUE(original.boot().is_ok());
  auto snapshot = original.save();
  ASSERT_TRUE(snapshot.is_ok());

  core::Platform::Config config;
  config.rng_seed = 0xdead'beef;
  core::Platform different(config);
  Status s = different.restore(*snapshot);
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("incompatible"), std::string::npos) << s.to_string();
}

// The kernel runs exactly two firmware tasks, idle and loader.  A task table
// naming any other firmware task is corrupt, whether the snapshot is restored
// into a fresh platform or in place.
TEST(Snapshot, RestoreRejectsUnknownFirmwareTask) {
  core::Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(kCounterTask, {.name = "counter"});
  ASSERT_TRUE(task.is_ok()) << task.status().to_string();
  auto saved = platform.save();
  ASSERT_TRUE(saved.is_ok()) << saved.status().to_string();

  // The TCB walk's field order: handle, name, priority (u32), state (u8), kind.
  snap::Writer head;
  head.i32(*task);
  head.str("counter");
  const ByteVec& needle = head.buffer();
  snap::Snapshot forged;
  for (const snap::Section& section : saved->sections()) {
    ByteVec bytes = section.bytes;
    if (section.tag == "SCHD") {
      const auto at = std::search(bytes.begin(), bytes.end(), needle.begin(), needle.end());
      ASSERT_NE(at, bytes.end());
      const std::size_t kind =
          static_cast<std::size_t>(at - bytes.begin()) + needle.size() + 4 + 1;
      ASSERT_LT(kind, bytes.size());
      ASSERT_EQ(bytes[kind], static_cast<std::uint8_t>(rtos::TaskKind::kGuest));
      bytes[kind] = static_cast<std::uint8_t>(rtos::TaskKind::kFirmware);
    }
    forged.add(section.tag, std::move(bytes));
  }

  core::Platform fresh;
  const Status into_fresh = fresh.restore(forged);
  EXPECT_EQ(into_fresh.code(), Err::kCorrupt) << into_fresh.to_string();
  EXPECT_NE(into_fresh.message().find("'counter'"), std::string::npos)
      << into_fresh.to_string();
  const Status in_place = platform.restore(forged);
  EXPECT_EQ(in_place.code(), Err::kCorrupt) << in_place.to_string();
  EXPECT_NE(in_place.message().find("'counter'"), std::string::npos)
      << in_place.to_string();
}

// CONF's lint-mode byte is 1 (warn) or 2 (strict); any other byte is a
// corrupt snapshot, on the replay-tooling path and on restore alike.
TEST(Snapshot, ForgedLintModeByteIsCorrupt) {
  core::Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto saved = platform.save();
  ASSERT_TRUE(saved.is_ok()) << saved.status().to_string();
  // CONF field order: memory size (u32), tick period (u32), Kp (16 bytes),
  // RNG seed (u64), then the lint mode.
  constexpr std::size_t kLintModeAt = 4 + 4 + 16 + 8;
  const auto with_lint_byte = [&](std::uint8_t value) {
    snap::Snapshot forged;
    for (const snap::Section& section : saved->sections()) {
      ByteVec bytes = section.bytes;
      if (section.tag == "CONF") {
        EXPECT_EQ(bytes.at(kLintModeAt), 1u);  // kWarn, the default
        bytes.at(kLintModeAt) = value;
      }
      forged.add(section.tag, std::move(bytes));
    }
    return forged;
  };
  for (const std::uint8_t value : {0x00, 0x03, 0xFF}) {
    const snap::Snapshot forged = with_lint_byte(value);
    const auto config = core::Platform::config_from_snapshot(forged);
    EXPECT_EQ(config.status().code(), Err::kCorrupt) << int{value};
    core::Platform fresh;
    const Status restored = fresh.restore(forged);
    EXPECT_EQ(restored.code(), Err::kCorrupt) << int{value} << ": " << restored.to_string();
  }
  const auto strict = core::Platform::config_from_snapshot(with_lint_byte(2));
  ASSERT_TRUE(strict.is_ok()) << strict.status().to_string();
  EXPECT_EQ(strict->lint_mode, core::LintMode::kStrict);
}

// TRCE holds the tracer's capacity (u64, after the enabled byte) and then
// its entries: a ring with no room, or with more entries than its capacity,
// is refused.
TEST(Snapshot, RestoreRejectsOverfullTraceRing) {
  core::Platform platform;
  platform.machine().enable_trace(4);
  boot_with_counter(platform);
  platform.run_for(10'000);
  auto saved = platform.save();
  ASSERT_TRUE(saved.is_ok()) << saved.status().to_string();
  ASSERT_EQ(platform.machine().tracer()->size(), 4u);
  const auto restore_with_capacity = [&](std::uint8_t capacity) {
    snap::Snapshot forged;
    for (const snap::Section& section : saved->sections()) {
      ByteVec bytes = section.bytes;
      if (section.tag == "TRCE") {
        EXPECT_EQ(bytes.at(1), 4u);
        bytes.at(1) = capacity;
      }
      forged.add(section.tag, std::move(bytes));
    }
    core::Platform fresh;
    return fresh.restore(forged);
  };
  EXPECT_TRUE(restore_with_capacity(4).is_ok());
  EXPECT_EQ(restore_with_capacity(3).code(), Err::kCorrupt);
  EXPECT_EQ(restore_with_capacity(0).code(), Err::kCorrupt);
}

// SCHD passes its layout checks but names a running task or a ready-queue
// entry that no TCB in the matching state backs: restore refuses it (the
// next dispatch would abort on "another task still running").  Each
// forgery goes through the wire format, so the trailer is recomputed.
TEST(Snapshot, RestoreRejectsInconsistentScheduler) {
  core::Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto saved = platform.save();
  ASSERT_TRUE(saved.is_ok()) << saved.status().to_string();
  const rtos::TaskHandle running = platform.scheduler().current_handle();
  ASSERT_NE(running, rtos::kNoTask);

  // SCHD ends with the eight ready queues (u32 count + i32 handles each),
  // the running task (i32), and the tick counter (u64).  Booted with no
  // guest task, every ready queue is empty.
  const auto schd = [&] {
    for (const snap::Section& section : saved->sections()) {
      if (section.tag == "SCHD") {
        return section.bytes;
      }
    }
    return ByteVec{};
  }();
  ASSERT_GE(schd.size(), 44u);
  const std::size_t queues = schd.size() - 44;
  snap::Writer empty_tail;
  for (unsigned p = 0; p < rtos::kNumPriorities; ++p) {
    empty_tail.u32(0);
  }
  empty_tail.i32(running);
  ASSERT_TRUE(std::equal(empty_tail.buffer().begin(), empty_tail.buffer().end(),
                         schd.begin() + static_cast<long>(queues)));
  const ByteVec tick(schd.end() - 8, schd.end());

  const auto forge = [&](rtos::TaskHandle current, unsigned queue_priority,
                         std::vector<rtos::TaskHandle> queue) {
    snap::Writer tail;
    for (unsigned p = 0; p < rtos::kNumPriorities; ++p) {
      tail.u32(p == queue_priority ? static_cast<std::uint32_t>(queue.size()) : 0);
      for (const rtos::TaskHandle handle :
           p == queue_priority ? queue : std::vector<rtos::TaskHandle>{}) {
        tail.i32(handle);
      }
    }
    tail.i32(current);
    snap::Snapshot forged;
    for (const snap::Section& section : saved->sections()) {
      ByteVec bytes = section.bytes;
      if (section.tag == "SCHD") {
        bytes.resize(queues);
        bytes.insert(bytes.end(), tail.buffer().begin(), tail.buffer().end());
        bytes.insert(bytes.end(), tick.begin(), tick.end());
      }
      forged.add(section.tag, std::move(bytes));
    }
    auto parsed = snap::Snapshot::parse(forged.serialize());
    EXPECT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    core::Platform fresh;
    return fresh.restore(*parsed);
  };

  // The unforged tail restores: the check is not over-strict.
  EXPECT_TRUE(forge(running, 0, {}).is_ok());
  const Status absent_running = forge(7, 0, {});
  EXPECT_EQ(absent_running.code(), Err::kCorrupt) << absent_running.to_string();
  EXPECT_NE(absent_running.message().find("running task 7"), std::string::npos)
      << absent_running.to_string();
  const Status absent_ready = forge(running, 1, {7});
  EXPECT_EQ(absent_ready.code(), Err::kCorrupt) << absent_ready.to_string();
  const Status running_ready = forge(running, 0, {running});
  EXPECT_EQ(running_ready.code(), Err::kCorrupt) << running_ready.to_string();
}

TEST(Snapshot, ParseRejectsDamagedFiles) {
  core::Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto snapshot = platform.save();
  ASSERT_TRUE(snapshot.is_ok());
  const ByteVec wire = snapshot->serialize();

  // Empty / header-less.
  auto empty = snap::Snapshot::parse({});
  ASSERT_FALSE(empty.is_ok());
  EXPECT_NE(empty.status().message().find("no header"), std::string::npos);

  // Wrong magic.
  ByteVec bad_magic = wire;
  bad_magic[0] ^= 0xff;
  auto not_tysn = snap::Snapshot::parse(bad_magic);
  ASSERT_FALSE(not_tysn.is_ok());
  EXPECT_NE(not_tysn.status().message().find("TYSN"), std::string::npos);

  // Unsupported schema version.
  ByteVec future = wire;
  future[4] = 99;
  auto wrong_version = snap::Snapshot::parse(future);
  ASSERT_FALSE(wrong_version.is_ok());
  EXPECT_EQ(wrong_version.status().code(), Err::kInvalidArgument);
  EXPECT_NE(wrong_version.status().message().find("version"), std::string::npos);

  // Truncation (mid-section).
  const ByteVec truncated(wire.begin(), wire.begin() + static_cast<long>(wire.size() / 2));
  EXPECT_FALSE(snap::Snapshot::parse(truncated).is_ok());

  // Payload corruption is caught by the checksum.
  ByteVec corrupt = wire;
  corrupt[wire.size() / 2] ^= 0x40;
  auto flipped = snap::Snapshot::parse(corrupt);
  ASSERT_FALSE(flipped.is_ok());
  EXPECT_NE(flipped.status().message().find("checksum"), std::string::npos);
}

TEST(Snapshot, FileRoundTripAndConfigRecovery) {
  core::Platform original;
  boot_with_counter(original);
  original.run_for(300'000);
  auto snapshot = original.save();
  ASSERT_TRUE(snapshot.is_ok());

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "tytan_test.tysn").string();
  ASSERT_TRUE(snapshot->write_file(path).is_ok());
  auto loaded = snap::Snapshot::read_file(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->serialize(), snapshot->serialize());

  // Replay tooling path: rebuild a compatible platform from the file alone.
  auto config = core::Platform::config_from_snapshot(*loaded);
  ASSERT_TRUE(config.is_ok()) << config.status().to_string();
  core::Platform replayed(*config);
  ASSERT_TRUE(replayed.restore(*loaded).is_ok());
  original.run_for(500'000);
  replayed.run_for(500'000);
  EXPECT_EQ(state_bytes(original), state_bytes(replayed));
  std::filesystem::remove(path);
}

// The observatory is host-side, deliberately not part of the snapshot: a
// restored platform with heat re-enabled must record the exact same profile
// a continued run does — blocks, opcodes, MPU buckets and indirect edges.
TEST(Snapshot, HeatProfileIdenticalAfterRestore) {
  // A jump-table dispatcher that never halts: the selector walks 0..3
  // forever, so indirect edges keep flowing after the snapshot point.
  constexpr std::string_view kDispatcher = R"(
      .secure
      .stack 128
      .entry main
  main:
      andi r1, 3
      shli r1, 2
      li   r2, table
      add  r2, r1
      ldw  r2, [r2]
      shri r1, 2
      jmpr r2
  case0:
      addi r1, 1
      jmp  main
  case1:
      addi r1, 1
      jmp  main
  case2:
      addi r1, 1
      jmp  main
  case3:
      movi r1, 0
      jmp  main
  table:
      .word case0, case1, case2, case3
  )";

  core::Platform original;
  ASSERT_TRUE(original.boot().is_ok());
  auto task =
      original.load_task_source(std::string(kDispatcher), {.name = "dispatcher"});
  ASSERT_TRUE(task.is_ok()) << task.status().to_string();
  original.run_for(50'000);
  auto snapshot = original.save();
  ASSERT_TRUE(snapshot.is_ok()) << snapshot.status().to_string();

  original.machine().enable_heat(/*time_dispatch=*/false);
  original.run_for(200'000);
  original.machine().heat()->flush();

  core::Platform restored;
  ASSERT_TRUE(restored.restore(*snapshot).is_ok());
  restored.machine().enable_heat(/*time_dispatch=*/false);
  restored.run_for(200'000);
  restored.machine().heat()->flush();

  const obs::HeatProfile& continued = original.machine().heat()->profile();
  EXPECT_FALSE(continued.edges.empty());
  EXPECT_EQ(continued.to_jsonl(false), restored.machine().heat()->profile().to_jsonl(false));
}

// The loader's heat leaders (the block starts of the verify phase's CFG)
// are host-only: a load job restored past its verify phase re-derives them,
// so its heat blocks are the original's.
TEST(Snapshot, RestoredLoadJobSeedsTheSameHeatLeaders) {
  auto object = isa::assemble(R"(
      .stack 128
      .entry main
  main:
      movi r1, 0
  loop:
      addi r1, 1
      jmp  loop
  )");
  ASSERT_TRUE(object.is_ok()) << object.status().to_string();
  // Unreachable padding, so the copy spans many loader quanta.
  for (int i = 0; i < 4'000; ++i) {
    append_le32(object->image, 0);
  }
  core::Platform original;
  ASSERT_TRUE(original.boot().is_ok());
  ASSERT_TRUE(original.load_task_async(*object, {.name = "spin"}).is_ok());
  original.run_for(3 * original.config().tick_period);
  ASSERT_TRUE(original.load_in_progress());
  auto snapshot = original.save();
  ASSERT_TRUE(snapshot.is_ok()) << snapshot.status().to_string();
  core::Platform restored;
  ASSERT_TRUE(restored.restore(*snapshot).is_ok());

  for (core::Platform* platform : {&original, &restored}) {
    platform->machine().enable_heat(/*time_dispatch=*/false);
    ASSERT_TRUE(platform->run_until([&] { return !platform->load_in_progress(); },
                                    20'000'000));
    platform->run_for(100'000);
    platform->machine().heat()->flush();
  }
  const obs::HeatProfile& profile = restored.machine().heat()->profile();
  EXPECT_EQ(original.machine().heat()->profile().to_jsonl(false), profile.to_jsonl(false));
  // `loop` is a static leader entered first by falling through from `main`:
  // only a seeded leader splits the two.
  std::uint32_t base = 0;
  for (const auto& region : profile.regions) {
    if (region.name == "spin") {
      base = region.base;
    }
  }
  ASSERT_NE(base, 0u);
  const auto main_block = profile.blocks.find(base);
  ASSERT_NE(main_block, profile.blocks.end());
  EXPECT_EQ(main_block->second.end, base + 4);
  EXPECT_TRUE(profile.blocks.contains(base + 4));
}

}  // namespace
}  // namespace tytan
