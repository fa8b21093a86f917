// Robustness fuzzing (deterministic seeds): random bytes into every parser
// and random instruction streams into the interpreter must never crash,
// hang, or corrupt invariants — at worst they fault cleanly.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "isa/assembler.h"
#include "obs/export.h"
#include "obs/heat.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "obs/trace_reader.h"
#include "sim/machine.h"
#include "core/platform.h"
#include "snap/snapshot.h"
#include "tbf/tbf.h"

namespace tytan {
namespace {

TEST(Fuzz, TbfReaderNeverCrashesOnRandomBytes) {
  std::mt19937 rng(1);
  for (int trial = 0; trial < 2'000; ++trial) {
    ByteVec raw(rng() % 300);
    for (auto& byte : raw) {
      byte = static_cast<std::uint8_t>(rng());
    }
    auto object = tbf::read(raw);  // must return, never crash
    if (object.is_ok()) {
      // Whatever parsed must satisfy the structural invariants.
      EXPECT_LE(object->entry, object->image.size());
      for (const auto& reloc : object->relocs) {
        EXPECT_LE(reloc.offset + 4, object->image.size());
      }
    }
  }
}

TEST(Fuzz, TbfReaderNeverCrashesOnMutatedValidFiles) {
  auto object = isa::assemble(R"(
      .secure
      .stack 256
      .entry main
  main:
      li r1, data
      hlt
  data:
      .word main
  )");
  ASSERT_TRUE(object.is_ok());
  const ByteVec valid = tbf::write(*object);
  std::mt19937 rng(2);
  for (int trial = 0; trial < 2'000; ++trial) {
    ByteVec mutated = valid;
    const int mutations = 1 + rng() % 8;
    for (int m = 0; m < mutations; ++m) {
      mutated[rng() % mutated.size()] = static_cast<std::uint8_t>(rng());
    }
    (void)tbf::read(mutated);  // any outcome but a crash is fine
  }
}

TEST(Fuzz, AssemblerNeverCrashesOnRandomText) {
  std::mt19937 rng(3);
  const char charset[] = "abcdefghijklmnop rstuvwxyz0123456789 .,:[]+-#;\"\\\n\t";
  for (int trial = 0; trial < 2'000; ++trial) {
    std::string source;
    const std::size_t len = rng() % 200;
    for (std::size_t i = 0; i < len; ++i) {
      source.push_back(charset[rng() % (sizeof(charset) - 1)]);
    }
    (void)isa::assemble(source);  // must return a Status, never crash
  }
}

TEST(Fuzz, AssemblerNeverCrashesOnMutatedValidSource) {
  const std::string valid = R"(
      .stack 256
      .entry main
  main:
      li   r2, buffer
      ldw  r3, [r2+4]
      addi r3, 1
      stw  r3, [r2]
      cmpi r3, 100
      jnz  main
      hlt
  buffer:
      .word 1, 2, 3
  )";
  std::mt19937 rng(4);
  const char charset[] = "abcdefghijklmnopqrstuvwxyz0123456789 .,:[]+-\n";
  for (int trial = 0; trial < 2'000; ++trial) {
    std::string mutated = valid;
    for (int m = 0; m < 4; ++m) {
      mutated[rng() % mutated.size()] = charset[rng() % (sizeof(charset) - 1)];
    }
    auto object = isa::assemble(mutated);
    if (object.is_ok()) {
      EXPECT_LE(object->entry, object->image.size());
    }
  }
}

TEST(Fuzz, RandomInstructionStreamsFaultCleanly) {
  std::mt19937 rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    sim::Machine machine;
    // Fill a code region with random words (valid and invalid opcodes mixed)
    // and a fault handler that halts.
    constexpr std::uint32_t kCode = 0x40000;
    for (std::uint32_t offset = 0; offset < 0x400; offset += 4) {
      std::uint32_t word = rng();
      if (rng() % 4 == 0) {
        // Bias toward decodable opcodes so execution actually proceeds.
        word = (word & 0x00FF'FFFFu) | (static_cast<std::uint32_t>(rng() % 0x46) << 24);
      }
      machine.memory().write32(kCode + offset, word);
    }
    machine.cpu().eip = kCode;
    machine.cpu().set_sp(0x48000);
    machine.run(20'000);  // bounded: halts, faults, or hits the cycle limit
    // The machine ends in a coherent state: either it made progress, or it
    // halted on a classified fault on the very first instruction.
    if (machine.cycles() == 0) {
      EXPECT_EQ(machine.halt_reason(), sim::HaltReason::kDoubleFault);
    }
    if (machine.halt_reason() == sim::HaltReason::kDoubleFault) {
      EXPECT_NE(machine.last_fault().type, sim::FaultType::kNone);
    }
  }
}

TEST(Fuzz, RandomGuestTasksCannotBreakTheBootedPlatform) {
  std::mt19937 rng(6);
  // Fork-style fuzzing: boot once, snapshot the pristine post-boot state,
  // and restore it before every input — each trial starts from an identical
  // platform without paying the boot cost (the tytan-fuzz tool scales this
  // up; bench_snapshot measures the speedup over reboot-per-input).
  core::Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto pristine = platform.save();
  ASSERT_TRUE(pristine.is_ok()) << pristine.status().to_string();
  for (int trial = 0; trial < 25; ++trial) {
    ASSERT_TRUE(platform.restore(*pristine).is_ok());
    // A syntactically valid task full of random (decodable) instructions.
    isa::ObjectFile object;
    object.stack_size = 128;
    for (int i = 0; i < 64; ++i) {
      std::uint32_t word = rng();
      word = (word & 0x00FF'FFFFu) | (static_cast<std::uint32_t>(rng() % 0x46) << 24);
      append_le32(object.image, word);
    }
    object.flags = isa::kObjSecure;
    auto task = platform.load_task(std::move(object),
                                   {.name = "fuzz" + std::to_string(trial)});
    if (task.is_ok()) {
      platform.run_for(300'000);
    }
    // Every trial leaves the platform healthy; the next restore wipes it.
    EXPECT_FALSE(platform.machine().halted());
  }
  // Back to the pristine state: trusted components intact, idle healthy.
  ASSERT_TRUE(platform.restore(*pristine).is_ok());
  EXPECT_FALSE(platform.machine().halted());
  EXPECT_EQ(platform.rtm().entries().size(), 0u);
  platform.run_for(100'000);
  EXPECT_GT(platform.kernel().tick_count(), 0u);
}

// Forged TYSN sections: every section of a booted platform's snapshot, with
// 4-byte windows set to 0xFFFFFFFF (an element count or length read from the
// file), random bytes flipped, or the payload cut short.  Each forgery
// re-adds the section, so the container is well-formed and only the state
// walk can refuse it.  Restore must return a Status — never crash, and never
// allocate from an untrusted count — and must leave the platform restorable:
// the pristine snapshot restores to its own bytes afterwards.
TEST(Fuzz, SnapshotRestoreNeverCrashesOnMutatedSections) {
  core::Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(R"(
      .secure
      .stack 256
      .entry main
  main:
      movi r0, 1          ; kSysYield
      int  0x21
      jmp  main
  )", {.name = "fuzzed"});
  ASSERT_TRUE(task.is_ok()) << task.status().to_string();
  platform.run_for(100'000);
  auto pristine = platform.save();
  ASSERT_TRUE(pristine.is_ok()) << pristine.status().to_string();
  const ByteVec pristine_bytes = pristine->serialize();

  auto restore_forged = [&](std::string_view tag, const ByteVec& payload) {
    snap::Snapshot forged;
    for (const snap::Section& section : pristine->sections()) {
      forged.add(section.tag, section.tag == tag ? payload : section.bytes);
    }
    (void)platform.restore(forged);  // any Status is fine; a crash is not
  };

  std::mt19937 rng(19);
  std::size_t forgeries = 0;
  for (const snap::Section& section : pristine->sections()) {
    const ByteVec& bytes = section.bytes;
    // Every offset of a small section; a stride across the memory image.
    const std::size_t step = bytes.size() <= 4'096 ? 1 : bytes.size() / 64;
    for (std::size_t at = 0; at + 4 <= bytes.size(); at += step) {
      ByteVec forged = bytes;
      store_le32(forged.data() + at, 0xFFFF'FFFFu);
      restore_forged(section.tag, forged);
      ++forgeries;
    }
    for (int trial = 0; trial < 16 && !bytes.empty(); ++trial) {
      ByteVec forged = bytes;
      const int flips = 1 + static_cast<int>(rng() % 4);
      for (int f = 0; f < flips; ++f) {
        forged[rng() % forged.size()] = static_cast<std::uint8_t>(rng());
      }
      restore_forged(section.tag, forged);
      ++forgeries;
    }
    for (const std::size_t cut : {std::size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
      if (cut < bytes.size()) {
        restore_forged(section.tag,
                       ByteVec(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut)));
        ++forgeries;
      }
    }
    ASSERT_TRUE(platform.restore(*pristine).is_ok()) << section.tag;
    auto again = platform.save();
    ASSERT_TRUE(again.is_ok()) << section.tag << ": " << again.status().to_string();
    EXPECT_EQ(again->serialize(), pristine_bytes) << "after forging " << section.tag;
  }
  EXPECT_GT(forgeries, 1'000u);
}

TEST(Fuzz, AttestationReportParserRobust) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 2'000; ++trial) {
    ByteVec raw(rng() % 64);
    for (auto& byte : raw) {
      byte = static_cast<std::uint8_t>(rng());
    }
    (void)core::AttestationReport::deserialize(raw);
  }
}

// ---------------------------------------------------------------------------
// Structured fuzzing: the static verifier and the machine must agree.  Valid
// images are mutated in targeted ways (branch displacements flipped,
// relocation records corrupted, images truncated); every mutant either gets
// rejected statically (TBF reader or analyzer error) or runs to a clean stop
// on the bare machine — never an unclassified crash of either component.
// ---------------------------------------------------------------------------

/// A well-formed non-secure program exercising branches, a call, relocated
/// data accesses, and a data table — the shapes the mutations target.
constexpr std::string_view kStructuredBase = R"(
    .entry start
start:
    li r1, counter
    ldw r2, [r1]
    cmpi r2, 0
    jz init
    addi r2, 1
    jmp store
init:
    movi r2, 1
store:
    stw r2, [r1]
    call helper
    jmp done
helper:
    push r3
    movi r3, 5
loop:
    subi r3, 1
    cmpi r3, 0
    jnz loop
    pop r3
    ret
done:
    hlt
counter:
    .word 0
table:
    .word start
    .word helper
)";

bool is_branch_or_call(const std::optional<isa::Instruction>& instr) {
  if (!instr.has_value()) {
    return false;
  }
  switch (instr->opcode) {
    case isa::Opcode::kJmp:
    case isa::Opcode::kJz:
    case isa::Opcode::kJnz:
    case isa::Opcode::kJlt:
    case isa::Opcode::kJge:
    case isa::Opcode::kJc:
    case isa::Opcode::kJnc:
    case isa::Opcode::kCall:
      return true;
    default:
      return false;
  }
}

/// Run a relocated mutant on a bare machine; true iff it stops cleanly
/// (hlt or cycle budget), false on a double fault.
bool runs_cleanly(const isa::ObjectFile& object) {
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
  machine.cpu().set_sp(0x60000);  // well clear of the image
  const sim::HaltReason reason = machine.run(50'000);
  return reason == sim::HaltReason::kHltInstruction ||
         reason == sim::HaltReason::kCycleLimit;
}

TEST(Fuzz, AnalyzerVerdictAgreesWithMachineBehavior) {
  auto assembled = isa::assemble(kStructuredBase);
  ASSERT_TRUE(assembled.is_ok()) << assembled.status().to_string();
  const isa::ObjectFile base = assembled.take();
  {
    // The unmutated base is clean and runs.
    const auto report = analysis::analyze(base);
    ASSERT_EQ(report.errors(), 0u) << report.to_string();
    ASSERT_TRUE(runs_cleanly(base));
  }

  std::mt19937 rng(11);
  int rejected = 0;
  int survived = 0;
  for (int trial = 0; trial < 400; ++trial) {
    isa::ObjectFile mutant = base;
    switch (rng() % 3) {
      case 0: {
        // Flip bits in the displacement of a random branch/call.
        std::vector<std::uint32_t> sites;
        for (std::uint32_t off = 0; off + 4 <= mutant.image.size(); off += 4) {
          if (is_branch_or_call(isa::decode(load_le32(mutant.image.data() + off)))) {
            sites.push_back(off);
          }
        }
        ASSERT_FALSE(sites.empty());
        const std::uint32_t site = sites[rng() % sites.size()];
        std::uint32_t word = load_le32(mutant.image.data() + site);
        word ^= rng() & 0xFFFFu;
        store_le32(mutant.image.data() + site, word);
        break;
      }
      case 1: {
        // Corrupt one relocation record.
        ASSERT_FALSE(mutant.relocs.empty());
        isa::Relocation& reloc = mutant.relocs[rng() % mutant.relocs.size()];
        switch (rng() % 3) {
          case 0: reloc.offset = rng() % 64; break;
          case 1: reloc.addend = rng(); break;
          default: reloc.kind = static_cast<isa::RelocKind>(rng() % 3); break;
        }
        break;
      }
      default: {
        // Truncate a whole number of words off the end (keep relocs: the
        // dangling records must be caught statically).
        const std::size_t words = mutant.image.size() / 4;
        const std::size_t keep = 1 + rng() % (words - 1);
        mutant.image.resize(keep * 4);
        break;
      }
    }

    // Round-trip through the container: the reader may reject outright.
    auto reread = tbf::read(tbf::write(mutant));
    if (!reread.is_ok()) {
      ++rejected;
      continue;
    }
    const auto report = analysis::analyze(*reread);
    if (report.errors() > 0) {
      ++rejected;
      continue;
    }
    // The verifier passed it: the machine must not blow up on it.
    EXPECT_TRUE(runs_cleanly(*reread)) << "analyzer-clean mutant crashed "
                                          "(trial " << trial << "):\n"
                                       << report.to_string();
    ++survived;
  }
  // The mutation engine produces both kinds, or the test proves nothing.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(survived, 0);
}

TEST(Fuzz, AnalyzerNeverCrashesOnRandomImages) {
  std::mt19937 rng(12);
  for (int trial = 0; trial < 500; ++trial) {
    isa::ObjectFile object;
    const std::size_t words = 1 + rng() % 64;
    for (std::size_t i = 0; i < words; ++i) {
      std::uint32_t word = rng();
      if (rng() % 2 == 0) {
        word = (word & 0x00FF'FFFFu) | (static_cast<std::uint32_t>(rng() % 0x46) << 24);
      }
      append_le32(object.image, word);
    }
    object.entry = rng() % (words * 4 + 8);
    object.stack_size = rng() % 512;
    object.flags = rng() % 4;
    const std::size_t n_relocs = rng() % 6;
    for (std::size_t i = 0; i < n_relocs; ++i) {
      object.relocs.push_back({.offset = static_cast<std::uint32_t>(rng() % (words * 4 + 8)),
                               .kind = static_cast<isa::RelocKind>(rng() % 3),
                               .addend = static_cast<std::uint32_t>(rng())});
    }
    (void)analysis::analyze(object);  // must return, never crash or hang
  }
}

/// Randomized jump-table program: power-of-two case count, mask or
/// compare/branch bound idiom, junk arithmetic interleaved, table entries
/// shuffled (duplicates allowed).
std::string random_jump_table(std::mt19937& rng) {
  const int cases = 2 << (rng() % 2);  // 2 or 4
  std::string s = ".entry main\nmain:\n";
  const bool masked = rng() % 2 == 0;
  if (masked) {
    s += "    andi r1, " + std::to_string(cases - 1) + "\n";
  } else {
    s += "    cmpi r1, " + std::to_string(cases) + "\n    jnc reject\n";
  }
  if (rng() % 2 == 0) {  // junk that must not disturb the index
    s += "    movi r3, " + std::to_string(rng() % 100) + "\n    add r0, r3\n";
  }
  s += "    shli r1, 2\n    li r2, table\n    add r2, r1\n    ldw r2, [r2]\n"
       "    jmpr r2\n";
  for (int c = 0; c < cases; ++c) {
    s += "case" + std::to_string(c) + ":\n    movi r0, " + std::to_string(c) +
         "\n    jmp done\n";
  }
  s += "reject:\ndone:\n    hlt\ntable:\n    .word";
  for (int c = 0; c < cases; ++c) {
    s += (c == 0 ? " case" : ", case") + std::to_string(rng() % cases);
  }
  return s + "\n";
}

TEST(Fuzz, DataflowDifferentialOnRandomJumpTables) {
  std::mt19937 rng(13);
  int resolved_programs = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string source = random_jump_table(rng);
    auto assembled = isa::assemble(source);
    ASSERT_TRUE(assembled.is_ok()) << assembled.status().to_string();
    isa::ObjectFile object = assembled.take();
    if (rng() % 4 == 0 && !object.relocs.empty()) {
      // Corrupt one relocation addend: the analyzer must catch bad targets
      // (DF003/RL004) or stay sound about whatever it still resolves.
      isa::Relocation& reloc = object.relocs[rng() % object.relocs.size()];
      reloc.addend = rng() % (object.memory_size() + 64);
      source += "; corrupted reloc off=" + std::to_string(reloc.offset) +
                " kind=" + std::to_string(static_cast<int>(reloc.kind)) +
                " addend=" + std::to_string(reloc.addend) + "\n";
    }
    const analysis::Analysis full = analysis::analyze_full(object);
    if (full.report.errors() > 0 || full.dataflow.resolved.empty()) {
      continue;
    }
    ++resolved_programs;
    // Differential check: no dynamic indirect edge may leave the resolved
    // set, for in-range and wildly out-of-range selectors alike.
    constexpr std::uint32_t kBase = 0x40000;
    ByteVec image = object.image;
    for (const isa::Relocation& reloc : object.relocs) {
      tbf::apply_relocation(reloc, image, kBase);
    }
    for (const std::uint32_t r1 :
         {0u, 1u, 3u, 7u, static_cast<std::uint32_t>(rng())}) {
      sim::Machine machine;
      for (std::size_t i = 0; i < image.size(); ++i) {
        machine.memory().write8(kBase + static_cast<std::uint32_t>(i), image[i]);
      }
      machine.cpu().eip = kBase + object.entry;
      machine.cpu().set_sp(0x60000);
      machine.cpu().regs[1] = r1;
      machine.enable_heat(/*time_dispatch=*/false);
      (void)machine.run(50'000);
      machine.heat()->flush();
      for (const auto& [key, edge] : machine.heat()->profile().edges) {
        const auto pc = static_cast<std::uint32_t>(key >> 32);
        const auto target = static_cast<std::uint32_t>(key & 0xFFFF'FFFFu);
        const auto it = full.dataflow.resolved.find(pc - kBase);
        if (it == full.dataflow.resolved.end()) {
          continue;
        }
        EXPECT_TRUE(std::find(it->second.begin(), it->second.end(),
                              target - kBase) != it->second.end())
            << "trial " << trial << " r1=" << r1 << ": edge 0x" << std::hex
            << pc - kBase << " -> 0x" << target - kBase
            << " escapes the resolved set\n"
            << source;
      }
    }
  }
  // The generator must actually exercise resolution, or this proves nothing.
  EXPECT_GT(resolved_programs, 100);
}

TEST(Fuzz, SealedBlobParserRobust) {
  std::mt19937 rng(8);
  crypto::Key128 key{};
  for (int trial = 0; trial < 2'000; ++trial) {
    ByteVec raw(rng() % 128);
    for (auto& byte : raw) {
      byte = static_cast<std::uint8_t>(rng());
    }
    auto blob = crypto::SealedBlob::deserialize(raw);
    if (blob.is_ok()) {
      // Random bytes never authenticate under a fixed key.
      EXPECT_FALSE(crypto::unseal(key, *blob).is_ok());
    }
  }
}

/// One valid artifact per observability reader: heat, span and telemetry
/// JSONL and a Chrome trace, each carrying strings that need escaping.
std::vector<std::string> valid_obs_artifacts() {
  obs::HeatProfile heat;
  heat.regions.push_back({1, R"(task "a"\)", 0x40000, 0x100});
  heat.blocks[0x40000] = {0x40010, 3, 12};
  heat.opcodes[0x05] = {12, 960, 3};
  heat.mpu[2][20] = 99;
  heat.edges[obs::HeatProfile::edge_key(0x40008, 0x40010)] = {8, true};

  obs::Span span;
  span.trace_id = 7;
  span.span_id = 1;
  span.phase = obs::SpanPhase::kRtmMeasure;
  span.task = 2;
  span.begin_cycle = 100;
  span.end_cycle = 350;
  span.outcome = obs::SpanOutcome::kOk;
  span.device = 3;
  span.notes.push_back({120, obs::EventKind::kFaultInject, 1, 2});
  std::string spans;
  obs::append_span_json(spans, span);
  span.span_id = 2;
  span.parent_id = 1;
  obs::append_span_json(spans, span);

  std::uint64_t clock = 10;
  obs::EventBus bus;
  bus.set_clock(&clock);
  bus.enable();
  bus.set_task_name(0, R"(say "hi")");
  bus.emit(obs::EventKind::kSchedDispatch, 0);
  clock = 20;
  bus.emit(obs::EventKind::kSchedTick, -1, 7);

  obs::TelemetryHub telemetry(/*flight_events=*/4);
  telemetry.add_rule(std::make_unique<obs::AttestationFailureRule>());
  obs::HealthSnapshot snapshot;
  snapshot.device = 3;
  snapshot.seq = 1;
  snapshot.cycle = 1'000;
  snapshot.attest_failed = 1;
  telemetry.record(snapshot, &bus);

  return {heat.to_jsonl(/*include_host_ns=*/true), spans, telemetry.to_jsonl(),
          obs::export_chrome_trace(bus)};
}

TEST(Fuzz, ObsArtifactReadersNeverCrashOnMutatedText) {
  const std::vector<std::string> valid = valid_obs_artifacts();
  ASSERT_TRUE(obs::parse_heat_jsonl(valid[0]).is_ok());
  ASSERT_TRUE(obs::parse_spans_jsonl(valid[1]).is_ok());
  ASSERT_TRUE(obs::parse_telemetry_jsonl(valid[2]).is_ok());
  ASSERT_TRUE(obs::parse_chrome_trace(valid[3]).is_ok());
  // Flips favour the bytes the field reader keys on.
  constexpr char kSyntax[] = {'"', '\\', '\n', ':', ',', '{', '}', '-', '0', 'u'};
  std::mt19937 rng(9);
  for (int trial = 0; trial < 3'000; ++trial) {
    std::string text = valid[rng() % valid.size()];
    switch (trial % 3) {
      case 0:  // truncated
        text.resize(rng() % (text.size() + 1));
        break;
      case 1: {  // byte-flipped
        const int flips = 1 + rng() % 8;
        for (int f = 0; f < flips; ++f) {
          text[rng() % text.size()] =
              rng() % 2 == 0 ? kSyntax[rng() % sizeof kSyntax] : static_cast<char>(rng());
        }
        break;
      }
      default: {  // spliced: a prefix of one artifact onto a suffix of another
        const std::string& other = valid[rng() % valid.size()];
        text = text.substr(0, rng() % (text.size() + 1)) +
               other.substr(rng() % (other.size() + 1));
        break;
      }
    }
    // Any outcome but a crash is fine.
    (void)obs::parse_heat_jsonl(text);
    (void)obs::parse_spans_jsonl(text);
    (void)obs::parse_telemetry_jsonl(text);
    (void)obs::parse_chrome_trace(text);
  }
}

}  // namespace
}  // namespace tytan
