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

}  // namespace
}  // namespace tytan
