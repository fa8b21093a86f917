// Static binary verifier (src/analysis): rule-by-rule unit coverage, clean
// passes over realistic task idioms, and the loader's lint gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/analyzer.h"
#include "core/platform.h"
#include "isa/assembler.h"
#include "isa/stdlib.h"
#include "sim/machine.h"
#include "sim/memory_map.h"
#include "tbf/tbf.h"

namespace tytan {
namespace {

using analysis::Config;
using analysis::Report;
using analysis::Rule;
using analysis::Severity;

isa::ObjectFile assemble(std::string_view source) {
  auto object = isa::assemble(source);
  EXPECT_TRUE(object.is_ok()) << object.status().to_string();
  return object.take();
}

/// Encode one raw instruction word the hard way.
std::uint32_t word(std::uint8_t opcode, std::uint8_t rd = 0, std::uint8_t ra = 0,
                   std::uint16_t imm = 0) {
  return (static_cast<std::uint32_t>(opcode) << 24) |
         (static_cast<std::uint32_t>(rd) << 20) |
         (static_cast<std::uint32_t>(ra) << 16) | imm;
}

isa::ObjectFile object_with_words(std::initializer_list<std::uint32_t> words) {
  isa::ObjectFile object;
  for (const std::uint32_t w : words) {
    append_le32(object.image, w);
  }
  return object;
}

// ---------------------------------------------------------------------------
// Rule catalogue plumbing
// ---------------------------------------------------------------------------

TEST(Findings, RuleIdsRoundTrip) {
  for (int i = 0; i <= static_cast<int>(analysis::kLastRule); ++i) {
    const auto rule = static_cast<Rule>(i);
    const auto parsed = analysis::rule_from_id(analysis::rule_id(rule));
    ASSERT_TRUE(parsed.has_value()) << analysis::rule_id(rule);
    EXPECT_EQ(*parsed, rule);
  }
  EXPECT_EQ(analysis::rule_from_id("cf002"), Rule::kCfTarget);  // case-insensitive
  EXPECT_FALSE(analysis::rule_from_id("XX999").has_value());
}

TEST(Findings, StableIdsForGoldenRules) {
  EXPECT_EQ(analysis::rule_id(Rule::kCfTarget), "CF002");
  EXPECT_EQ(analysis::rule_id(Rule::kRlPairing), "RL001");
  EXPECT_EQ(analysis::rule_id(Rule::kStDepth), "ST001");
  EXPECT_EQ(analysis::rule_id(Rule::kMmDevice), "MM001");
}

// ---------------------------------------------------------------------------
// Control-flow recovery (CF*)
// ---------------------------------------------------------------------------

TEST(Analyzer, CleanMinimalTask) {
  const auto object = assemble(R"(
      .entry start
  start:
      movi r0, 3
      int 0x21
  )");
  const Report report = analysis::analyze(object);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(Analyzer, EntryOutsideImage) {
  auto object = object_with_words({word(0x42)});  // hlt
  object.entry = 64;
  const Report report = analysis::analyze(object);
  ASSERT_TRUE(report.has(Rule::kCfEntry)) << report.to_string();
  EXPECT_EQ(report.find(Rule::kCfEntry)->severity, Severity::kError);
}

TEST(Analyzer, BranchTargetOutsideImage) {
  // jmp +0x60 from a 16-byte image.
  auto object = object_with_words(
      {word(0x30, 0, 0, 0x60), word(0x00), word(0x00), word(0x42)});
  const Report report = analysis::analyze(object);
  ASSERT_TRUE(report.has(Rule::kCfTarget)) << report.to_string();
  EXPECT_EQ(report.find(Rule::kCfTarget)->offset, 0u);
}

TEST(Analyzer, ReachableUndecodableWord) {
  auto object = object_with_words({word(0x00), 0xFF00'0000u});
  const Report report = analysis::analyze(object);
  ASSERT_TRUE(report.has(Rule::kCfUndecodable)) << report.to_string();
  EXPECT_EQ(report.find(Rule::kCfUndecodable)->offset, 4u);
}

TEST(Analyzer, ExecutionFallsOffImage) {
  const auto object = object_with_words({word(0x00), word(0x00)});  // nop nop
  const Report report = analysis::analyze(object);
  EXPECT_TRUE(report.has(Rule::kCfFallOff)) << report.to_string();
}

TEST(Analyzer, ExecutionReachesRelocatedData) {
  const auto object = assemble(R"(
      .entry start
  start:
      jmp table
  table:
      .word start
  )");
  const Report report = analysis::analyze(object);
  EXPECT_TRUE(report.has(Rule::kCfDataExec)) << report.to_string();
}

TEST(Analyzer, IndirectControlFlowIsAWarningNotAnError) {
  const auto object = assemble(R"(
      .entry start
  start:
      movi r1, 0
      jmpr r1
  )");
  // With the dataflow pass (the default), the blanket CF006 is replaced by
  // the precise DF002 verdict: an absolute-constant target in a relocatable
  // image cannot be certified.  Still a warning, never an error.
  const Report report = analysis::analyze(object);
  EXPECT_FALSE(report.has(Rule::kCfIndirect)) << report.to_string();
  ASSERT_TRUE(report.has(Rule::kDfUnresolved)) << report.to_string();
  EXPECT_EQ(report.find(Rule::kDfUnresolved)->severity, Severity::kWarning);
  EXPECT_EQ(report.errors(), 0u);

  // With dataflow disabled, the structural pass keeps its original claim.
  Config no_dataflow;
  no_dataflow.dataflow = false;
  const Report seed = analysis::analyze(object, no_dataflow);
  ASSERT_TRUE(seed.has(Rule::kCfIndirect)) << seed.to_string();
  EXPECT_EQ(seed.find(Rule::kCfIndirect)->severity, Severity::kWarning);
  EXPECT_FALSE(seed.has(Rule::kDfUnresolved));
  EXPECT_EQ(seed.errors(), 0u);
}

TEST(Analyzer, UnreachableGarbageIsNotFlagged) {
  // String tables and padding after a terminal exit are normal.
  const auto object = assemble(R"(
      .entry start
  start:
      movi r0, 3
      int 0x21
      .ascii "not code at all\0"
      .byte 0xFF, 0xFF, 0xFF, 0xFF
  )");
  const Report report = analysis::analyze(object);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

// ---------------------------------------------------------------------------
// Relocation lints (RL*)
// ---------------------------------------------------------------------------

TEST(Analyzer, MissingHi16Pairing) {
  auto object = assemble(R"(
      .entry start
  start:
      li r2, start
      movi r0, 3
      int 0x21
  )");
  // Drop the HI16 half of the li's relocation pair.
  std::erase_if(object.relocs, [](const isa::Relocation& r) {
    return r.kind == isa::RelocKind::kHi16;
  });
  const Report report = analysis::analyze(object);
  ASSERT_TRUE(report.has(Rule::kRlPairing)) << report.to_string();
  EXPECT_EQ(report.find(Rule::kRlPairing)->severity, Severity::kError);
}

TEST(Analyzer, RelocationOnWrongInstruction) {
  auto object = assemble(R"(
      .entry start
  start:
      li r2, start
      nop
      nop
      movi r0, 3
      int 0x21
  )");
  // Point both halves of the pair at the nops.
  for (isa::Relocation& reloc : object.relocs) {
    reloc.offset += 8;
  }
  const Report report = analysis::analyze(object);
  EXPECT_TRUE(report.has(Rule::kRlSite)) << report.to_string();
}

TEST(Analyzer, OverlappingRelocations) {
  auto object = assemble(R"(
      .entry start
  start:
      movi r0, 3
      int 0x21
  data:
      .word start
      .word start
  )");
  ASSERT_EQ(object.relocs.size(), 2u);
  isa::Relocation dup = object.relocs[0];
  dup.offset += 2;  // straddles the first record's patch bytes
  object.relocs.push_back(dup);
  const Report report = analysis::analyze(object);
  EXPECT_TRUE(report.has(Rule::kRlOverlap)) << report.to_string();
}

TEST(Analyzer, RelocationOutOfRange) {
  auto object = object_with_words({word(0x42)});
  object.relocs.push_back({.offset = 100, .kind = isa::RelocKind::kAbs32, .addend = 0});
  object.relocs.push_back(
      {.offset = 0, .kind = isa::RelocKind::kAbs32, .addend = 0xFFFF'0000u});
  const Report report = analysis::analyze(object);
  // Both the out-of-image offset and the absurd addend are RL004.
  EXPECT_GE(report.findings.size(), 2u);
  EXPECT_TRUE(report.has(Rule::kRlRange)) << report.to_string();
}

// ---------------------------------------------------------------------------
// Stack-depth analysis (ST*)
// ---------------------------------------------------------------------------

TEST(Analyzer, StackDepthOverflowByConstruction) {
  const auto object = assemble(R"(
      .stack 64
      .entry start
  start:
      push r1
      push r2
      push r3
      push r4
      push r5
      push r6
      push r1
      push r2
      push r3
      push r4
      push r5
      push r6
      push r1
      push r2
      push r3
      push r4
      push r5
      push r6
      push r1
      push r2
      movi r0, 3
      int 0x21
  )");
  // 20 pushes = 80 bytes + 36-byte interrupt reserve > 64.
  const Report report = analysis::analyze(object);
  ASSERT_TRUE(report.has(Rule::kStDepth)) << report.to_string();
  EXPECT_EQ(report.find(Rule::kStDepth)->severity, Severity::kError);
}

TEST(Analyzer, BalancedCallChainWithinBudget) {
  const auto object = assemble(R"(
      .stack 256
      .entry start
  start:
      call helper
      movi r0, 3
      int 0x21
  helper:
      push r1
      push r2
      pop r2
      pop r1
      ret
  )");
  const Report report = analysis::analyze(object);
  EXPECT_FALSE(report.has(Rule::kStDepth)) << report.to_string();
}

TEST(Analyzer, RecursionIsReported) {
  const auto object = assemble(R"(
      .stack 256
      .entry start
  start:
      call start
      movi r0, 3
      int 0x21
  )");
  const Report report = analysis::analyze(object);
  ASSERT_TRUE(report.has(Rule::kStRecursion)) << report.to_string();
  EXPECT_EQ(report.find(Rule::kStRecursion)->severity, Severity::kWarning);
}

TEST(Analyzer, UnboundedPushLoopIsReported) {
  const auto object = assemble(R"(
      .stack 256
      .entry start
  start:
      push r1
      jmp start
  )");
  const Report report = analysis::analyze(object);
  EXPECT_TRUE(report.has(Rule::kStLoopGrowth)) << report.to_string();
}

TEST(Analyzer, SpAdjustmentsAreTracked) {
  const auto object = assemble(R"(
      .stack 64
      .entry start
  start:
      subi sp, 48
      addi sp, 48
      movi r0, 3
      int 0x21
  )");
  // 48 + 36 > 64: the subi alone busts the budget.
  const Report report = analysis::analyze(object);
  EXPECT_TRUE(report.has(Rule::kStDepth)) << report.to_string();
}

// ---------------------------------------------------------------------------
// MMIO / privilege lints (MM*)
// ---------------------------------------------------------------------------

TEST(Analyzer, DeviceMmioFromUnprivilegedTask) {
  const auto object = assemble(R"(
      .entry start
  start:
      li r2, 0x100400
      movi r3, 9
      stw r3, [r2]
      movi r0, 3
      int 0x21
  )");
  const Report report = analysis::analyze(object);
  ASSERT_TRUE(report.has(Rule::kMmDevice)) << report.to_string();
  EXPECT_EQ(report.find(Rule::kMmDevice)->severity, Severity::kError);
}

TEST(Analyzer, DeviceMmioFromSecureTaskIsAllowed) {
  const auto object = assemble(R"(
      .secure
      .entry start
  start:
      li r2, 0x100400
      movi r3, 9
      stw r3, [r2]
      movi r0, 3
      int 0x21
  )");
  const Report report = analysis::analyze(object);
  EXPECT_FALSE(report.has(Rule::kMmDevice)) << report.to_string();
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(Analyzer, KeyRegisterAccessIsFlaggedEvenForSecureTasks) {
  const auto object = assemble(R"(
      .secure
      .entry start
  start:
      li r2, 0x100600
      ldw r3, [r2]
      movi r0, 3
      int 0x21
  )");
  const Report report = analysis::analyze(object);
  ASSERT_TRUE(report.has(Rule::kMmKeyRegister)) << report.to_string();
  EXPECT_EQ(report.find(Rule::kMmKeyRegister)->severity, Severity::kError);
}

TEST(Analyzer, TrustedRegionStoreAndLoad) {
  const auto store = assemble(R"(
      .entry start
  start:
      movi r2, 0x400
      movi r3, 1
      stw r3, [r2]
      movi r0, 3
      int 0x21
  )");
  const auto load = assemble(R"(
      .entry start
  start:
      movi r2, 0x400
      ldw r3, [r2]
      movi r0, 3
      int 0x21
  )");
  const Report store_report = analysis::analyze(store);
  const Report load_report = analysis::analyze(load);
  ASSERT_TRUE(store_report.has(Rule::kMmTrusted));
  EXPECT_EQ(store_report.find(Rule::kMmTrusted)->severity, Severity::kError);
  ASSERT_TRUE(load_report.has(Rule::kMmTrusted));
  EXPECT_EQ(load_report.find(Rule::kMmTrusted)->severity, Severity::kWarning);
}

TEST(Analyzer, AccessBeyondPhysicalMemory) {
  const auto object = assemble(R"(
      .entry start
  start:
      li r2, 0x200000
      ldw r3, [r2]
      movi r0, 3
      int 0x21
  )");
  const Report report = analysis::analyze(object);
  EXPECT_TRUE(report.has(Rule::kMmOutOfMem)) << report.to_string();
}

TEST(Analyzer, UnknownBaseRegisterIsNotFlagged) {
  // The address comes in via the mailbox — statically unknown, no claim.
  const auto object = assemble(R"(
      .entry start
  start:
      ldw r2, [r1]
      stw r2, [r1+4]
      movi r0, 3
      int 0x21
  )");
  const Report report = analysis::analyze(object);
  EXPECT_FALSE(report.has(Rule::kMmDevice));
  EXPECT_FALSE(report.has(Rule::kMmTrusted));
  EXPECT_FALSE(report.has(Rule::kMmOutOfMem));
}

TEST(Analyzer, ConstantsMergedAcrossBranchesStayKnown) {
  // Both paths load the same device base; the merge keeps it constant.
  const auto object = assemble(R"(
      .entry start
  start:
      cmpi r1, 0
      jz other
      li r2, 0x100400
      jmp use
  other:
      li r2, 0x100400
  use:
      stw r1, [r2]
      movi r0, 3
      int 0x21
  )");
  const Report report = analysis::analyze(object);
  EXPECT_TRUE(report.has(Rule::kMmDevice)) << report.to_string();
}

// ---------------------------------------------------------------------------
// Image structure (IM*) and data-only objects
// ---------------------------------------------------------------------------

TEST(Analyzer, OddImageSize) {
  isa::ObjectFile object;
  object.image.assign(7, 0x00);
  const Report report = analysis::analyze(object);
  EXPECT_TRUE(report.has(Rule::kImSize)) << report.to_string();
}

TEST(Analyzer, MailboxOutsideImage) {
  auto object = object_with_words({word(0x42), word(0x00)});
  object.mailbox = 4;  // 4 + 24 > 8
  const Report report = analysis::analyze(object);
  EXPECT_TRUE(report.has(Rule::kImMailbox)) << report.to_string();
}

TEST(Analyzer, DataOnlyObjectsSkipCodePasses) {
  isa::ObjectFile object;
  object.flags = isa::kObjDataOnly;
  object.image.assign(33, 0xFF);  // odd size, nothing decodes: all fine
  const Report report = analysis::analyze(object);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

// ---------------------------------------------------------------------------
// Config: pass toggles and suppression
// ---------------------------------------------------------------------------

TEST(Analyzer, SuppressionDropsRule) {
  const auto object = assemble(R"(
      .entry start
  start:
      movi r1, 0
      jmpr r1
  )");
  Config config;
  config.suppress.insert(Rule::kDfUnresolved);
  const Report report = analysis::analyze(object, config);
  EXPECT_FALSE(report.has(Rule::kDfUnresolved)) << report.to_string();
  EXPECT_EQ(report.warnings(), 0u) << report.to_string();

  // The same program through the seed (no-dataflow) pipeline: suppressing
  // CF006 there drops its only warning too.
  config = Config{};
  config.dataflow = false;
  config.suppress.insert(Rule::kCfIndirect);
  const Report seed = analysis::analyze(object, config);
  EXPECT_FALSE(seed.has(Rule::kCfIndirect)) << seed.to_string();
  EXPECT_EQ(seed.warnings(), 0u) << seed.to_string();
}

TEST(Analyzer, DisabledPassesEmitNothing) {
  const auto object = assemble(R"(
      .stack 16
      .entry start
  start:
      li r2, 0x100400
      stw r1, [r2]
      subi sp, 64
      movi r0, 3
      int 0x21
  )");
  Config config;
  config.stack = false;
  config.mmio = false;
  const Report report = analysis::analyze(object, config);
  EXPECT_FALSE(report.has(Rule::kStDepth));
  EXPECT_FALSE(report.has(Rule::kMmDevice));
}

// ---------------------------------------------------------------------------
// Realistic idioms must stay clean (regression against false positives)
// ---------------------------------------------------------------------------

TEST(Analyzer, SecureTaskWithMessageHandlerIsClean) {
  const auto object = assemble(R"(
      .secure
      .stack 256
      .entry main
      .msg on_message
  main:
      movi r5, 0
  loop:
      movi r0, 8
      int 0x21
      jmp loop
  on_message:
      addi r5, 1
      movi r0, 9
      int 0x21
  )");
  const Report report = analysis::analyze(object);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(Analyzer, StdlibRoutinesAreClean) {
  const auto object = assemble(isa::with_stdlib(R"(
      .secure
      .stack 256
      .entry main
  main:
      li   r2, text
      call lib_print_str
      li   r2, 0xBEEF
      call lib_print_hex
      movi r0, 3
      int  0x21
  text:
      .ascii "hello\0"
  )"));
  const Report report = analysis::analyze(object);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

// ---------------------------------------------------------------------------
// Loader lint gate
// ---------------------------------------------------------------------------

constexpr std::string_view kOverflowTask = R"(
    .stack 64
    .entry start
start:
    subi sp, 64
    movi r0, 3
    int 0x21
)";

TEST(LoaderGate, StrictModeRejectsBeforeAnyAllocation) {
  core::Platform::Config config;
  config.lint_mode = core::LintMode::kStrict;
  core::Platform platform(config);
  ASSERT_TRUE(platform.boot().is_ok());
  const std::uint32_t free_before = platform.loader().arena().free_bytes();

  auto task = platform.load_task_source(std::string(kOverflowTask), {.name = "bad"});
  ASSERT_FALSE(task.is_ok());
  EXPECT_NE(task.status().to_string().find("static verifier"), std::string::npos)
      << task.status().to_string();
  // Rejected in the verify phase: no arena memory was ever allocated.
  EXPECT_EQ(platform.loader().arena().free_bytes(), free_before);
  EXPECT_GT(platform.loader().last_lint().errors(), 0u);
}

TEST(LoaderGate, WarnModeLoadsAndRecordsFindings) {
  core::Platform platform;  // default: kWarn
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(std::string(kOverflowTask), {.name = "warned"});
  ASSERT_TRUE(task.is_ok()) << task.status().to_string();
  EXPECT_GT(platform.loader().last_create().lint_findings, 0u);
  EXPECT_TRUE(platform.loader().last_lint().has(Rule::kStDepth));
}

TEST(LoaderGate, OffModeSkipsTheVerifier) {
  core::Platform::Config config;
  config.lint_mode = core::LintMode::kOff;
  core::Platform platform(config);
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(std::string(kOverflowTask), {.name = "unlinted"});
  ASSERT_TRUE(task.is_ok());
  EXPECT_EQ(platform.loader().last_create().lint_findings, 0u);
  EXPECT_TRUE(platform.loader().last_lint().clean());
}

TEST(LoaderGate, StrictModeAcceptsCleanTasks) {
  core::Platform::Config config;
  config.lint_mode = core::LintMode::kStrict;
  core::Platform platform(config);
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(R"(
      .secure
      .stack 256
      .entry main
  main:
      movi r0, 3
      int 0x21
  )", {.name = "clean"});
  EXPECT_TRUE(task.is_ok()) << task.status().to_string();
}

TEST(LoaderGate, VerifierChargesNoMachineCycles) {
  // Two identical loads, lint on vs off: the cycle breakdown must match
  // exactly (the paper's load-cost tables are oblivious to the gate).
  const auto run = [](core::LintMode mode) {
    core::Platform::Config config;
    config.lint_mode = mode;
    core::Platform platform(config);
    EXPECT_TRUE(platform.boot().is_ok());
    auto task = platform.load_task_source(R"(
        .secure
        .stack 128
        .entry main
    main:
        movi r0, 3
        int 0x21
    )", {.name = "t"});
    EXPECT_TRUE(task.is_ok());
    return platform.loader().last_create().total;
  };
  EXPECT_EQ(run(core::LintMode::kOff), run(core::LintMode::kWarn));
}

// ---------------------------------------------------------------------------
// Value-set dataflow (DF*)
// ---------------------------------------------------------------------------

constexpr std::string_view kJumpTableTask = R"(
    .entry main
main:
    andi r1, 3
    shli r1, 2
    li   r2, table
    add  r2, r1
    ldw  r2, [r2]
    jmpr r2
case0:
    movi r0, 10
    jmp  done
case1:
    movi r0, 11
    jmp  done
case2:
    movi r0, 12
    jmp  done
case3:
    movi r0, 13
done:
    hlt
table:
    .word case0, case1, case2, case3
)";

TEST(Dataflow, JumpTableResolvesExactTargets) {
  const auto object = assemble(kJumpTableTask);
  const analysis::Analysis full = analysis::analyze_full(object);
  // The masked index bounds the table: the jmpr resolves to exactly the four
  // case labels and the report is clean (DF001 is informational).
  EXPECT_EQ(full.report.errors(), 0u) << full.report.to_string();
  EXPECT_EQ(full.report.warnings(), 0u) << full.report.to_string();
  ASSERT_TRUE(full.report.has(Rule::kDfResolved)) << full.report.to_string();
  ASSERT_EQ(full.dataflow.resolved.size(), 1u);
  const auto& [site, targets] = *full.dataflow.resolved.begin();
  EXPECT_EQ(targets.size(), 4u);
  for (const std::uint32_t target : targets) {
    EXPECT_TRUE(full.cfg.is_code(target)) << target;
  }
  // The resolved edges are spliced into the CFG: the dispatch block's
  // successors are the case blocks.
  const auto block = full.cfg.blocks.find(0);
  ASSERT_NE(block, full.cfg.blocks.end());
  EXPECT_EQ(block->second.successors,
            std::vector<std::uint32_t>(targets.begin(), targets.end()));

  // The identical program through the seed pipeline is a CF006 warning —
  // i.e. it used to fail --strict, and now lints clean.
  Config seed;
  seed.dataflow = false;
  const Report before = analysis::analyze(object, seed);
  EXPECT_TRUE(before.has(Rule::kCfIndirect)) << before.to_string();
  EXPECT_GT(before.warnings(), 0u);
}

TEST(Dataflow, ResolvedCallTightensStackDepth) {
  // The handler pushes 12 bytes on top of the 4-byte return address: 16
  // bytes worst case + 36 reserve > 48.  The seed pass could not see through
  // `callr` and stayed silent; the resolved call graph makes this a hard
  // ST001 verdict.
  const auto object = assemble(R"(
      .stack 48
      .entry main
  main:
      andi r1, 0
      shli r1, 2
      li   r2, table
      add  r2, r1
      ldw  r2, [r2]
      callr r2
      hlt
  deep:
      push r1
      push r2
      push r3
      pop  r3
      pop  r2
      pop  r1
      ret
  table:
      .word deep
  )");
  const Report report = analysis::analyze(object);
  ASSERT_TRUE(report.has(Rule::kStDepth)) << report.to_string();

  Config seed;
  seed.dataflow = false;
  const Report before = analysis::analyze(object, seed);
  EXPECT_FALSE(before.has(Rule::kStDepth)) << before.to_string();
}

TEST(Dataflow, RecursionThroughResolvedCallGraphIsDetected) {
  const auto object = assemble(R"(
      .entry main
  main:
      li   r2, table
      ldw  r2, [r2]
      callr r2
      hlt
  ping:
      li   r2, table
      ldw  r2, [r2]
      callr r2
      ret
  table:
      .word ping
  )");
  const Report report = analysis::analyze(object);
  EXPECT_TRUE(report.has(Rule::kStRecursion)) << report.to_string();
}

TEST(Dataflow, UnboundedTargetIsDf002) {
  const auto object = assemble(R"(
      .entry main
  main:
      jmpr r1
  )");
  const Report report = analysis::analyze(object);
  EXPECT_FALSE(report.has(Rule::kCfIndirect)) << report.to_string();
  ASSERT_TRUE(report.has(Rule::kDfUnresolved)) << report.to_string();
  EXPECT_EQ(report.errors(), 0u);
}

TEST(Dataflow, DataTargetIsDf003) {
  // The table points at itself: the resolved target is a relocated data
  // word, never executable code.
  const auto object = assemble(R"(
      .entry main
  main:
      li   r2, table
      ldw  r2, [r2]
      jmpr r2
  table:
      .word table
  )");
  const Report report = analysis::analyze(object);
  ASSERT_TRUE(report.has(Rule::kDfBadTarget)) << report.to_string();
  EXPECT_EQ(report.find(Rule::kDfBadTarget)->severity, Severity::kError);
}

TEST(Dataflow, StoreIntoTableDemotesResolution) {
  // A store that may alias the jump table invalidates the `.word` contents:
  // the load degrades to Top and the site stays unresolved (DF002), never
  // falsely resolved from stale table entries.
  const auto object = assemble(R"(
      .entry main
  main:
      li   r2, table
      movi r1, 16
      stw  r1, [r2]
      ldw  r2, [r2]
      jmpr r2
  case0:
      hlt
  table:
      .word case0
  )");
  const Report report = analysis::analyze(object);
  EXPECT_FALSE(report.has(Rule::kDfResolved)) << report.to_string();
  EXPECT_TRUE(report.has(Rule::kDfUnresolved)) << report.to_string();
}

TEST(Dataflow, OutOfRegionAccessIsDf004) {
  const auto object = assemble(R"(
      .entry main
  main:
      li   r2, data
      addi r2, 0x2000
      ldw  r1, [r2]
      hlt
  data:
      .word 7
  )");
  const Report report = analysis::analyze(object);
  ASSERT_TRUE(report.has(Rule::kDfOutOfRegion)) << report.to_string();
  EXPECT_EQ(report.find(Rule::kDfOutOfRegion)->severity, Severity::kError);
}

TEST(Dataflow, StraddlingAccessIsDf005) {
  // data + [0, 0x3FF] straddles the region boundary (small image + default
  // 256-byte stack): provable neither inside nor outside.
  const auto object = assemble(R"(
      .entry main
  main:
      andi r1, 0x3FF
      li   r2, data
      add  r2, r1
      ldw  r0, [r2]
      hlt
  data:
      .word 7
  )");
  const Report report = analysis::analyze(object);
  ASSERT_TRUE(report.has(Rule::kDfMayEscape)) << report.to_string();
  EXPECT_EQ(report.find(Rule::kDfMayEscape)->severity, Severity::kWarning);
  EXPECT_EQ(report.errors(), 0u) << report.to_string();
}

TEST(Dataflow, CertifiedAccessesAreCounted) {
  const auto object = assemble(kJumpTableTask);
  const analysis::Analysis full = analysis::analyze_full(object);
  // At least the table load is provably inside the EA-MPU region.
  EXPECT_GT(full.dataflow.certified_accesses, 0u);
  EXPECT_EQ(full.dataflow.indirect_sites, 1u);
  EXPECT_TRUE(full.dataflow.converged);
  EXPECT_GE(full.dataflow_iterations, 1);
}

// ---------------------------------------------------------------------------
// Differential soundness: every dynamically taken indirect edge must be in
// the statically resolved set (when the analyzer claimed one).
// ---------------------------------------------------------------------------

/// Execute `object` on a bare machine with the given r1 input; every
/// jmpr/callr edge the run takes is checked against `resolved`.
void check_dynamic_edges(const isa::ObjectFile& object,
                         const analysis::ResolvedTargets& resolved,
                         std::uint32_t r1, std::string_view label) {
  constexpr std::uint32_t kBase = 0x40000;
  ByteVec image = object.image;
  for (const isa::Relocation& reloc : object.relocs) {
    tbf::apply_relocation(reloc, image, kBase);
  }
  sim::Machine machine;
  for (std::size_t i = 0; i < image.size(); ++i) {
    machine.memory().write8(kBase + static_cast<std::uint32_t>(i), image[i]);
  }
  machine.cpu().eip = kBase + object.entry;
  machine.cpu().set_sp(0x60000);
  machine.cpu().regs[1] = r1;
  machine.enable_heat(/*time_dispatch=*/false);
  const sim::HaltReason reason = machine.run(50'000);
  EXPECT_TRUE(reason == sim::HaltReason::kHltInstruction ||
              reason == sim::HaltReason::kCycleLimit)
      << label << ": r1=" << r1 << " halted with "
      << static_cast<int>(reason);
  machine.heat()->flush();
  for (const auto& [key, edge] : machine.heat()->profile().edges) {
    const auto pc = static_cast<std::uint32_t>(key >> 32);
    const auto target = static_cast<std::uint32_t>(key & 0xFFFF'FFFFu);
    ASSERT_GE(pc, kBase);
    const std::uint32_t site = pc - kBase;
    const auto it = resolved.find(site);
    if (it == resolved.end()) {
      continue;  // the analyzer made no claim about this site
    }
    EXPECT_TRUE(std::find(it->second.begin(), it->second.end(),
                          target - kBase) != it->second.end())
        << label << ": dynamic edge " << std::hex << site << " -> "
        << target - kBase << " (r1=" << r1
        << ") is outside the statically resolved set";
  }
}

TEST(Dataflow, DifferentialSoundnessOverExamplesCorpus) {
  const std::filesystem::path dir(TYTAN_ASM_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t programs = 0;
  std::size_t resolved_sites = 0;
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
    // The corpus is the --strict baseline: no errors, no warnings.
    EXPECT_EQ(full.report.errors(), 0u)
        << entry.path() << "\n" << full.report.to_string();
    EXPECT_EQ(full.report.warnings(), 0u)
        << entry.path() << "\n" << full.report.to_string();
    resolved_sites += full.dataflow.resolved.size();
    for (std::uint32_t r1 = 0; r1 < 8; ++r1) {
      check_dynamic_edges(object, full.dataflow.resolved, r1,
                          entry.path().filename().string());
    }
    ++programs;
  }
  EXPECT_GE(programs, 5u);       // the corpus actually ran
  EXPECT_GE(resolved_sites, 4u);  // and it exercises resolution
}

}  // namespace
}  // namespace tytan
