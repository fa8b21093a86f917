// Execution observatory (obs/heat.h) — the PR's acceptance properties:
//
//   * zero simulated-cycle cost: the same program on the same machine, heat
//     on vs off, produces bit-identical cycle counts, instruction counts,
//     and final register state;
//   * exact accounting: flushed block instruction counters sum to exactly
//     instructions_executed(), and so does the opcode histogram;
//   * static/dynamic block agreement: CFG leaders split runtime blocks at
//     analyzer boundaries;
//   * classify() mirrors allows() decision-for-decision on the EA-MPU;
//   * dynamic indirect-branch edge profiles are a subset of the statically
//     VSA-resolved target sets over the examples/asm corpus;
//   * fleet aggregation is byte-identical across thread counts;
//   * the JSONL export round-trips through the parser.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "core/platform.h"
#include "fleet/verifier_workload.h"
#include "hw/eampu.h"
#include "isa/assembler.h"
#include "obs/heat.h"
#include "sim/machine.h"
#include "tbf/tbf.h"

namespace tytan {
namespace {

// The obs layer mirrors the EA-MPU slot count by value (it cannot include
// src/hw); this is the one TU where both constants are visible.
static_assert(obs::HeatProfile::kMpuSlotBuckets == hw::EaMpu::kNumSlots,
              "heat MPU bucket table no longer matches the EA-MPU slot count");

isa::ObjectFile assemble(const std::string& source) {
  auto object = isa::assemble(source);
  EXPECT_TRUE(object.is_ok()) << object.status().to_string();
  return object.take();
}

/// Load `object` at kBase on a bare machine (no policy, no platform).
constexpr std::uint32_t kBase = 0x40000;

void load_bare(sim::Machine& machine, const isa::ObjectFile& object) {
  ByteVec image = object.image;
  for (const isa::Relocation& reloc : object.relocs) {
    tbf::apply_relocation(reloc, image, kBase);
  }
  for (std::size_t i = 0; i < image.size(); ++i) {
    machine.memory().write8(kBase + static_cast<std::uint32_t>(i), image[i]);
  }
  machine.cpu().eip = kBase + object.entry;
  machine.cpu().set_sp(0x60000);
}

constexpr const char kLoopTask[] = R"(
    .entry main
main:
    movi r1, 0
loop:
    addi r1, 1
    cmpi r1, 50
    jnz  loop
    hlt
)";

// ------------------------------------------------------------ bucket mapping

TEST(HeatProfile, BucketMappingCoversSlotsAndCodes) {
  EXPECT_EQ(obs::HeatProfile::bucket_for(0), 0u);
  EXPECT_EQ(obs::HeatProfile::bucket_for(17), 17u);
  EXPECT_EQ(obs::HeatProfile::bucket_for(sim::kCheckDenied), 18u);
  EXPECT_EQ(obs::HeatProfile::bucket_for(sim::kCheckUnprotected), 19u);
  EXPECT_EQ(obs::HeatProfile::bucket_for(sim::kCheckImplicitSelf), 20u);
  EXPECT_EQ(obs::HeatProfile::bucket_for(sim::kCheckOsWindow), 21u);
  EXPECT_EQ(obs::HeatProfile::bucket_for(sim::kCheckUnclassified), 22u);
  EXPECT_EQ(obs::HeatProfile::bucket_for(sim::kCheckNoPolicy), 23u);
  // Foreign codes fold into "unclassified" instead of indexing out of bounds.
  EXPECT_EQ(obs::HeatProfile::bucket_for(18), 22u);
  EXPECT_EQ(obs::HeatProfile::bucket_for(-7), 22u);
  EXPECT_EQ(obs::HeatProfile::bucket_for(1000), 22u);
  EXPECT_EQ(obs::HeatProfile::bucket_name(0), "slot0");
  EXPECT_EQ(obs::HeatProfile::bucket_name(18), "denied");
  EXPECT_EQ(obs::HeatProfile::bucket_name(23), "no-policy");
}

// ------------------------------------------------------- exact accounting

TEST(HeatRecorder, BlockAndOpcodeCountsSumToInstructionsExecuted) {
  sim::Machine machine;
  machine.enable_heat();
  load_bare(machine, assemble(kLoopTask));
  EXPECT_EQ(machine.run(10'000), sim::HaltReason::kHltInstruction);
  machine.heat()->flush();
  const obs::HeatProfile& profile = machine.heat()->profile();

  std::uint64_t block_sum = 0;
  for (const auto& [start, block] : profile.blocks) {
    block_sum += block.instructions;
    EXPECT_GT(block.end, start);
    EXPECT_GT(block.entries, 0u);
  }
  EXPECT_EQ(block_sum, machine.instructions_executed());
  EXPECT_EQ(profile.total_instructions(), machine.instructions_executed());
  // The loop body dominates: the hottest block alone covers >= 90%.
  std::uint64_t hottest = 0;
  for (const auto& [start, block] : profile.blocks) {
    hottest = std::max(hottest, block.instructions);
  }
  EXPECT_GE(hottest * 10, block_sum * 9);
}

TEST(HeatRecorder, FlushIsIdempotent) {
  sim::Machine machine;
  machine.enable_heat();
  load_bare(machine, assemble(kLoopTask));
  EXPECT_EQ(machine.run(10'000), sim::HaltReason::kHltInstruction);
  machine.heat()->flush();
  const std::uint64_t once = machine.heat()->profile().total_instructions();
  machine.heat()->flush();
  std::uint64_t block_sum = 0;
  for (const auto& [start, block] : machine.heat()->profile().blocks) {
    block_sum += block.instructions;
  }
  EXPECT_EQ(machine.heat()->profile().total_instructions(), once);
  EXPECT_EQ(block_sum, once);
}

TEST(HeatRecorder, StaticLeadersSplitFallthroughBlocks) {
  // Straight-line code: without leaders it is one runtime block; a leader in
  // the middle must split it exactly there.
  const auto object = assemble(R"(
      .entry main
  main:
      addi r1, 1
      addi r1, 1
      addi r1, 1
      addi r1, 1
      hlt
  )");
  sim::Machine machine;
  machine.enable_heat();
  machine.heat()->add_leaders(kBase, {0, 8});  // main and main+8
  load_bare(machine, object);
  EXPECT_EQ(machine.run(1'000), sim::HaltReason::kHltInstruction);
  machine.heat()->flush();
  const auto& blocks = machine.heat()->profile().blocks;
  ASSERT_EQ(blocks.size(), 2u);
  ASSERT_TRUE(blocks.contains(kBase));
  ASSERT_TRUE(blocks.contains(kBase + 8));
  EXPECT_EQ(blocks.at(kBase).end, kBase + 8);
  EXPECT_EQ(blocks.at(kBase).instructions, 2u);
  EXPECT_EQ(blocks.at(kBase + 8).instructions, 3u);  // two addi + hlt
}

// --------------------------------------------------- zero simulated cost

TEST(HeatMachine, ObservatoryNeverChangesSimulatedState) {
  const auto object = assemble(kLoopTask);
  sim::Machine plain;
  sim::Machine observed;
  observed.enable_heat();
  load_bare(plain, object);
  load_bare(observed, object);
  EXPECT_EQ(plain.run(10'000), observed.run(10'000));
  EXPECT_EQ(plain.cycles(), observed.cycles());
  EXPECT_EQ(plain.instructions_executed(), observed.instructions_executed());
  EXPECT_EQ(plain.cpu().regs, observed.cpu().regs);
  EXPECT_EQ(plain.cpu().eip, observed.cpu().eip);
}

TEST(HeatMachine, PlatformRunIdenticalWithHeatEnabled) {
  auto run = [](bool heat) {
    core::Platform platform;
    if (heat) {
      platform.machine().enable_heat();
    }
    EXPECT_TRUE(platform.boot().is_ok());
    auto task = platform.load_task_source(kLoopTask, {.name = "loop"});
    EXPECT_TRUE(task.is_ok()) << task.status().to_string();
    platform.run_for(200'000);
    return std::pair<std::uint64_t, std::uint64_t>(
        platform.machine().cycles(), platform.machine().instructions_executed());
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------- one observed-dispatch body

// Both dispatch modes feed the observatory through the same dispatch body:
// the deterministic profile (blocks, opcodes, MPU buckets, edges, regions)
// must be byte-identical whichever mode executed the guest.
TEST(HeatMachine, ProfileIdenticalAcrossDispatchModes) {
  const std::filesystem::path dir(TYTAN_ASM_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t programs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".s") {
      continue;
    }
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::stringstream text;
    text << in.rdbuf();
    const auto object = assemble(text.str());
    for (std::uint32_t r1 = 0; r1 < 8; ++r1) {
      auto profile = [&](sim::DispatchMode mode) {
        sim::Machine machine;
        machine.set_dispatch_mode(mode);
        machine.enable_heat(/*time_dispatch=*/false);
        load_bare(machine, object);
        machine.cpu().regs[1] = r1;
        machine.run(50'000);
        machine.heat()->flush();
        return machine.heat()->profile().to_jsonl(false);
      };
      const std::string interpreted = profile(sim::DispatchMode::kInterpreter);
      EXPECT_NE(interpreted.find(R"("type":"block")"), std::string::npos);
      EXPECT_EQ(interpreted, profile(sim::DispatchMode::kCached))
          << entry.path().filename() << " r1=" << r1;
    }
    ++programs;
  }
  EXPECT_GE(programs, 5u);

  // A booted platform adds secure boot, firmware, the EA-MPU, interrupts and
  // a loaded task's region and static leaders.
  auto platform_profile = [](sim::DispatchMode mode) {
    core::Platform::Config config;
    config.dispatch = mode;
    core::Platform platform(config);
    platform.machine().enable_heat(/*time_dispatch=*/false);
    EXPECT_TRUE(platform.boot().is_ok());
    auto task =
        platform.load_task_source(fleet::default_task_source(), {.name = "heartbeat"});
    EXPECT_TRUE(task.is_ok()) << task.status().to_string();
    platform.run_for(500'000);
    platform.machine().heat()->flush();
    return platform.machine().heat()->profile().to_jsonl(false);
  };
  const std::string interpreted = platform_profile(sim::DispatchMode::kInterpreter);
  EXPECT_NE(interpreted.find(R"("type":"region")"), std::string::npos);
  EXPECT_EQ(interpreted, platform_profile(sim::DispatchMode::kCached));
}

// ------------------------------------------------- classify() vs allows()

TEST(HeatEaMpu, ClassifyAgreesWithAllowsEverywhere) {
  hw::EaMpu mpu;
  // Two exec regions, one protected data slot, one os-accessible slot, one
  // background rule — every classify() path is reachable.
  ASSERT_TRUE(mpu.add_exec_region({0x1000, 0x100, 0x1000}).is_ok());
  ASSERT_TRUE(mpu.add_exec_region({0x2000, 0x100, 0x2000}).is_ok());
  ASSERT_TRUE(mpu.write_slot(0, {.code_start = 0x1000,
                                 .code_size = 0x100,
                                 .data_start = 0x8000,
                                 .data_size = 0x100,
                                 .perms = hw::kPermRead | hw::kPermWrite})
                  .is_ok());
  ASSERT_TRUE(mpu.write_slot(3, {.code_start = 0x2000,
                                 .code_size = 0x100,
                                 .data_start = 0x8000,
                                 .data_size = 0x80,
                                 .perms = hw::kPermRead,
                                 .os_accessible = true})
                  .is_ok());
  ASSERT_TRUE(mpu.write_slot(7, {.code_start = 0x1000,
                                 .code_size = 0x100,
                                 .data_start = 0x0,
                                 .data_size = 0xFFFF'0000,
                                 .perms = hw::kPermRead,
                                 .background = true})
                  .is_ok());

  const std::uint32_t ips[] = {0x1000, 0x1040, 0x2000, 0x3000,
                               sim::kFwOsKernel, sim::kFwOsKernel + 4};
  const sim::Access kinds[] = {sim::Access::kRead, sim::Access::kWrite,
                               sim::Access::kExecute};
  std::size_t checked = 0;
  bool saw_slot = false;
  bool saw_os_window = false;
  bool saw_implicit_self = false;
  for (const std::uint32_t ip : ips) {
    for (std::uint32_t addr = 0x0; addr < 0x9000; addr += 0x20) {
      for (const sim::Access access : kinds) {
        const bool allowed = mpu.allows(ip, addr, access);
        const int code = mpu.classify(ip, addr, access);
        EXPECT_EQ(allowed, code != sim::kCheckDenied)
            << std::hex << "ip=" << ip << " addr=" << addr << " access="
            << sim::access_name(access) << " code=" << std::dec << code;
        saw_slot = saw_slot || code >= 0;
        saw_os_window = saw_os_window || code == sim::kCheckOsWindow;
        saw_implicit_self = saw_implicit_self || code == sim::kCheckImplicitSelf;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1000u);
  EXPECT_TRUE(saw_slot);           // the sweep reached a granting slot
  EXPECT_TRUE(saw_os_window);      // ... the OS-window grant
  EXPECT_TRUE(saw_implicit_self);  // ... and the self-region fast path
}

TEST(HeatMachine, MpuCheckCountersSplitByRule) {
  core::Platform platform;
  platform.machine().enable_heat();
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(kLoopTask, {.name = "loop"});
  ASSERT_TRUE(task.is_ok());
  platform.run_for(100'000);
  platform.machine().heat()->flush();
  const obs::HeatProfile& profile = platform.machine().heat()->profile();
  // Every fetch goes through the choke point: execute checks dominate.
  const auto kExec = static_cast<std::size_t>(sim::Access::kExecute);
  std::uint64_t exec_checks = 0;
  for (const std::uint64_t count : profile.mpu[kExec]) {
    exec_checks += count;
  }
  EXPECT_GE(exec_checks, platform.machine().instructions_executed());
  EXPECT_GT(profile.total_checks(), 0u);
  // A booted platform runs tasks inside their own exec regions: the
  // implicit-self bucket must be hot.
  const std::size_t self_bucket =
      obs::HeatProfile::bucket_for(sim::kCheckImplicitSelf);
  EXPECT_GT(profile.mpu[kExec][self_bucket], 0u);
}

// ------------------------------------- dynamic edges vs static resolution

TEST(HeatEdges, DynamicEdgesSubsetOfResolvedTargetsOverCorpus) {
  const std::filesystem::path dir(TYTAN_ASM_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t programs = 0;
  std::uint64_t edges_checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".s") {
      continue;
    }
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::stringstream text;
    text << in.rdbuf();
    const auto object = assemble(text.str());
    const analysis::Analysis full = analysis::analyze_full(object);
    for (std::uint32_t r1 = 0; r1 < 8; ++r1) {
      sim::Machine machine;
      machine.enable_heat();
      load_bare(machine, object);
      machine.cpu().regs[1] = r1;
      machine.run(50'000);
      machine.heat()->flush();
      for (const auto& [key, edge] : machine.heat()->profile().edges) {
        const auto site = static_cast<std::uint32_t>(key >> 32) - kBase;
        const auto target = static_cast<std::uint32_t>(key & 0xFFFF'FFFFu) - kBase;
        const auto it = full.dataflow.resolved.find(site);
        if (it == full.dataflow.resolved.end()) {
          continue;  // the analyzer made no claim about this site
        }
        EXPECT_NE(std::find(it->second.begin(), it->second.end(), target),
                  it->second.end())
            << entry.path().filename() << ": recorded edge " << std::hex << site
            << " -> " << target << " (r1=" << std::dec << r1
            << ") is outside the statically resolved set";
        ++edges_checked;
      }
    }
    ++programs;
  }
  EXPECT_GE(programs, 5u);
  EXPECT_GT(edges_checked, 0u);
}

// --------------------------------------------------------- registry + merge

TEST(HeatProfile, MergeAddsCountersAndConcatenatesRegions) {
  obs::HeatProfile a;
  obs::HeatProfile b;
  a.blocks[0x100] = {0x110, 2, 8};
  b.blocks[0x100] = {0x120, 1, 4};  // same start, longer end
  b.blocks[0x200] = {0x210, 5, 5};
  a.opcodes[0x37].count = 10;
  b.opcodes[0x37].count = 7;
  b.opcodes[0x37].ns_total = 140;
  b.opcodes[0x37].ns_samples = 2;
  a.mpu[0][18] = 3;
  b.mpu[0][18] = 4;
  a.edges[obs::HeatProfile::edge_key(0x10, 0x20)] = {2, false};
  b.edges[obs::HeatProfile::edge_key(0x10, 0x20)] = {3, false};
  b.edges[obs::HeatProfile::edge_key(0x30, 0x40)] = {1, true};
  a.regions.push_back({0, "alpha", 0x100, 0x100});
  b.regions.push_back({1, "beta", 0x200, 0x100});

  a.merge(b);
  EXPECT_EQ(a.blocks.at(0x100).end, 0x120u);
  EXPECT_EQ(a.blocks.at(0x100).entries, 3u);
  EXPECT_EQ(a.blocks.at(0x100).instructions, 12u);
  EXPECT_EQ(a.blocks.at(0x200).entries, 5u);
  EXPECT_EQ(a.opcodes[0x37].count, 17u);
  EXPECT_EQ(a.opcodes[0x37].ns_total, 140u);
  EXPECT_EQ(a.opcodes[0x37].ns_samples, 2u);
  EXPECT_EQ(a.mpu[0][18], 7u);
  EXPECT_EQ(a.edges.at(obs::HeatProfile::edge_key(0x10, 0x20)).count, 5u);
  EXPECT_TRUE(a.edges.at(obs::HeatProfile::edge_key(0x30, 0x40)).is_call);
  ASSERT_EQ(a.regions.size(), 2u);
  EXPECT_EQ(a.regions[1].name, "beta");
}

TEST(HeatProfile, RegistryMergeFoldsProfilesAbsentFromDestination) {
  obs::MetricsRegistry dst;
  obs::MetricsRegistry src;
  src.heat_profile("machine").opcodes[1].count = 42;
  src.heat_profile("other").blocks[0x50] = {0x60, 1, 4};
  dst.merge_from(src);
  ASSERT_NE(dst.find_heat_profile("machine"), nullptr);
  ASSERT_NE(dst.find_heat_profile("other"), nullptr);
  EXPECT_EQ(dst.find_heat_profile("machine")->opcodes[1].count, 42u);
  EXPECT_EQ(dst.find_heat_profile("other")->blocks.at(0x50).instructions, 4u);
  // Merging again doubles the counters (add semantics, not overwrite).
  dst.merge_from(src);
  EXPECT_EQ(dst.find_heat_profile("machine")->opcodes[1].count, 84u);
}

// ------------------------------------------------------------ fleet folding

TEST(HeatFleet, AggregationByteIdenticalAcrossThreadCounts) {
  auto run = [](std::size_t threads) {
    fleet::WorkloadConfig config;
    config.fleet.device_count = 4;
    config.fleet.threads = threads;
    config.fleet.heat = true;
    config.cycles = 150'000;
    fleet::Fleet fleet(config.fleet);
    const fleet::WorkloadResult result = run_verifier_workload(fleet, config);
    EXPECT_TRUE(result.all_verified());
    fleet.aggregate_metrics();
    const obs::HeatProfile* profile = fleet.metrics().find_heat_profile("machine");
    EXPECT_NE(profile, nullptr);
    // Deterministic export only — host-ns fields are excluded (and fleet
    // devices never time dispatches anyway).
    return profile == nullptr ? std::string()
                              : profile->to_jsonl(/*include_host_ns=*/false);
  };
  const std::string serial = run(1);
  const std::string threaded = run(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded);
}

// ------------------------------------------------------------ serialization

TEST(HeatJsonl, RoundTripsThroughParser) {
  obs::HeatProfile profile;
  profile.blocks[0x40000] = {0x40010, 3, 12};
  profile.blocks[0x40010] = {0x40020, 2, 8};
  profile.opcodes[0x05].count = 12;
  profile.opcodes[0x05].ns_total = 960;
  profile.opcodes[0x05].ns_samples = 3;
  profile.opcodes[0x37].count = 8;
  profile.mpu[0][0] = 5;
  profile.mpu[2][20] = 99;
  profile.edges[obs::HeatProfile::edge_key(0x40008, 0x40010)] = {8, false};
  profile.regions.push_back({2, "task \"quoted\"", 0x40000, 0x100});

  const obs::OpcodeNamer namer = [](std::uint8_t op) {
    return op == 0x05 ? std::string("addi") : std::string("jmpr");
  };
  const std::string jsonl = profile.to_jsonl(/*include_host_ns=*/true, namer);
  auto parsed = obs::parse_heat_jsonl(jsonl);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->schema, obs::HeatProfile::kSchemaVersion);
  const obs::HeatProfile& back = parsed->profile;
  EXPECT_EQ(back.blocks.size(), 2u);
  EXPECT_EQ(back.blocks.at(0x40000).instructions, 12u);
  EXPECT_EQ(back.opcodes[0x05].count, 12u);
  EXPECT_EQ(back.opcodes[0x05].ns_total, 960u);
  EXPECT_EQ(back.opcodes[0x05].ns_samples, 3u);
  EXPECT_EQ(back.opcodes[0x37].count, 8u);
  EXPECT_EQ(back.mpu[0][0], 5u);
  EXPECT_EQ(back.mpu[2][20], 99u);
  EXPECT_EQ(back.edges.at(obs::HeatProfile::edge_key(0x40008, 0x40010)).count, 8u);
  ASSERT_EQ(back.regions.size(), 1u);
  EXPECT_EQ(back.regions[0].name, "task \"quoted\"");
  EXPECT_EQ(parsed->opcode_name(0x05), "addi");
  EXPECT_EQ(parsed->opcode_name(0x37), "jmpr");
  // Re-serializing the parsed profile reproduces the bytes.
  const obs::OpcodeNamer reparse_namer = [log = *parsed](std::uint8_t op) {
    return log.opcode_name(op);
  };
  EXPECT_EQ(back.to_jsonl(true, reparse_namer), jsonl);
}

TEST(HeatJsonl, DeterministicExportExcludesHostNanoseconds) {
  obs::HeatProfile profile;
  profile.opcodes[0x05].count = 4;
  profile.opcodes[0x05].ns_total = 123456;
  profile.opcodes[0x05].ns_samples = 2;
  const std::string deterministic = profile.to_jsonl(/*include_host_ns=*/false);
  EXPECT_EQ(deterministic.find("ns_total"), std::string::npos);
  EXPECT_EQ(deterministic.find("ns_samples"), std::string::npos);
  EXPECT_NE(profile.to_jsonl(true).find("ns_total"), std::string::npos);
}

TEST(HeatJsonl, RejectsWrongSchemaAndGarbage) {
  EXPECT_FALSE(obs::parse_heat_jsonl(
                   R"({"type":"heat-header","schema":999,"instructions":0})")
                   .is_ok());
  EXPECT_FALSE(obs::parse_heat_jsonl(R"({"type":"mystery"})").is_ok());
  EXPECT_FALSE(
      obs::parse_heat_jsonl(R"({"type":"opcode","op":999,"count":1})").is_ok());
  EXPECT_FALSE(obs::parse_heat_jsonl(
                   R"({"type":"mpu","access":"levitate","rule":"slot0","count":1})")
                   .is_ok());
}

TEST(HeatJsonl, FoldedOutputSortsRegionPrefixedBlocks) {
  obs::HeatProfile profile;
  profile.regions.push_back({0, "taskA", 0x1000, 0x100});
  profile.blocks[0x1000] = {0x1010, 1, 6};
  profile.blocks[0x5000] = {0x5010, 1, 2};  // unattributed -> "?"
  const std::string folded = profile.folded();
  EXPECT_NE(folded.find("taskA;block_0x1000 6"), std::string::npos);
  EXPECT_NE(folded.find("?;block_0x5000 2"), std::string::npos);
}

// --------------------------------------------------- loader leader wiring

TEST(HeatLoader, LoadRegistersRegionAndStaticLeaders) {
  core::Platform platform;
  platform.machine().enable_heat();
  ASSERT_TRUE(platform.boot().is_ok());
  std::ifstream in(std::filesystem::path(TYTAN_ASM_DIR) / "jump_table.s");
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  auto task = platform.load_task_source(text.str(), {.name = "jump_table"});
  ASSERT_TRUE(task.is_ok()) << task.status().to_string();
  platform.run_for(100'000);
  platform.machine().heat()->flush();
  const obs::HeatProfile& profile = platform.machine().heat()->profile();
  bool named = false;
  for (const auto& region : profile.regions) {
    named = named || region.name == "jump_table";
  }
  EXPECT_TRUE(named);
  // The computed jump recorded dynamic edges.
  EXPECT_FALSE(profile.edges.empty());
  // And blocks land inside the named region.
  std::uint64_t in_region = 0;
  for (const auto& [start, block] : profile.blocks) {
    if (profile.region_name(start) == "jump_table") {
      in_region += block.instructions;
    }
  }
  EXPECT_GT(in_region, 0u);
}

}  // namespace
}  // namespace tytan
