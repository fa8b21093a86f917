// Integration test of the command-line tool chain (tytan-as, tytan-objdump):
// assemble a source file, load the produced TBF on a platform, run it, and
// inspect it with the dumper.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/platform.h"
#include "tbf/tbf.h"

#ifndef TYTAN_TOOL_DIR
#define TYTAN_TOOL_DIR "."
#endif

namespace tytan {
namespace {

std::string tool(const char* name) { return std::string(TYTAN_TOOL_DIR "/") + name; }

std::string tmp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Run a command, capture stdout, return exit status.
int run_command(const std::string& command, std::string* output) {
  const std::string redirected = command + " 2>&1";
  FILE* pipe = ::popen(redirected.c_str(), "r");
  if (pipe == nullptr) {
    return -1;
  }
  char buffer[512];
  output->clear();
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    *output += buffer;
  }
  return ::pclose(pipe);
}

constexpr std::string_view kSource = R"(
    .secure
    .stack 256
    .entry main
main:
    li   r2, text
next:
    ldb  r1, [r2]
    cmpi r1, 0
    jz   done
    movi r0, 4
    int  0x21
    addi r2, 1
    jmp  next
done:
    movi r0, 3
    int  0x21
text:
    .ascii "tooling\0"
)";

TEST(Tools, AssembleLoadRunDump) {
  const std::string asm_path = tmp_path("task.s");
  const std::string tbf_path = tmp_path("task.tbf");
  {
    std::ofstream out(asm_path);
    out << kSource;
  }

  // tytan-as
  std::string output;
  const int as_status =
      run_command(tool("tytan-as") + " " + asm_path + " -o " + tbf_path, &output);
  ASSERT_EQ(as_status, 0) << output;
  EXPECT_NE(output.find("secure"), std::string::npos);

  // The produced file loads and runs.
  std::ifstream in(tbf_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  const ByteVec raw((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  auto object = tbf::read(raw);
  ASSERT_TRUE(object.is_ok()) << object.status().to_string();

  core::Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task(object.take(), {.name = "from-file", .priority = 3});
  ASSERT_TRUE(task.is_ok()) << task.status().to_string();
  platform.run_until([&] { return platform.serial().output().size() >= 7; }, 30'000'000);
  EXPECT_EQ(platform.serial().output(), "tooling");

  // tytan-objdump
  const int dump_status = run_command(tool("tytan-objdump") + " " + tbf_path, &output);
  ASSERT_EQ(dump_status, 0) << output;
  EXPECT_NE(output.find("secure task"), std::string::npos);
  EXPECT_NE(output.find("__tytan_entry"), std::string::npos);
  EXPECT_NE(output.find("relocations"), std::string::npos);
  EXPECT_NE(output.find("cmpi r1, 1"), std::string::npos);  // prologue disassembly
}


TEST(Tools, TytanRunExecutesABinary) {
  const std::string asm_path = tmp_path("runnable.s");
  const std::string tbf_path = tmp_path("runnable.tbf");
  {
    std::ofstream out(asm_path);
    out << kSource;
  }
  std::string output;
  ASSERT_EQ(run_command(tool("tytan-as") + " " + asm_path + " -o " + tbf_path, &output), 0)
      << output;
  const int status = run_command(
      tool("tytan-run") + " --cycles 5000000 --attest --trace 4 " + tbf_path, &output);
  ASSERT_EQ(status, 0) << output;
  EXPECT_NE(output.find("tooling"), std::string::npos);        // serial echoed
  EXPECT_NE(output.find("id_t="), std::string::npos);          // measurement shown
  EXPECT_NE(output.find("attestation report:"), std::string::npos);
  EXPECT_NE(output.find("last 4 instructions"), std::string::npos);
}

TEST(Tools, AssemblerErrorsPropagate) {
  const std::string asm_path = tmp_path("broken.s");
  {
    std::ofstream out(asm_path);
    out << "bogus r1, r2\n";
  }
  std::string output;
  const int status =
      run_command(tool("tytan-as") + " " + asm_path + " -o /dev/null", &output);
  EXPECT_NE(status, 0);
  EXPECT_NE(output.find("line 1"), std::string::npos);
}

TEST(Tools, ObjdumpRejectsGarbage) {
  const std::string path = tmp_path("garbage.tbf");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a TBF file at all";
  }
  std::string output;
  const int status = run_command(tool("tytan-objdump") + " " + path, &output);
  EXPECT_NE(status, 0);
  EXPECT_NE(output.find("TBF"), std::string::npos);
}

TEST(Tools, UsageOnBadArguments) {
  std::string output;
  EXPECT_NE(run_command(tool("tytan-as"), &output), 0);
  EXPECT_NE(output.find("usage"), std::string::npos);
  EXPECT_NE(run_command(tool("tytan-objdump"), &output), 0);
  EXPECT_NE(run_command(tool("tytan-lint"), &output), 0);
  EXPECT_NE(output.find("usage"), std::string::npos);
}

// ---------------------------------------------------------------------------
// tytan-lint golden corpus: four known-bad binaries, one rule each.  The
// porcelain output (RULE \t severity \t 0xOFFSET \t message) is the stable
// machine interface; tests pin the classification fields.
// ---------------------------------------------------------------------------

void write_tbf(const isa::ObjectFile& object, const std::string& path) {
  const ByteVec raw = tbf::write(object);
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(raw.data()),
            static_cast<std::streamsize>(raw.size()));
}

isa::ObjectFile must_assemble(std::string_view source) {
  auto object = isa::assemble(source);
  EXPECT_TRUE(object.is_ok()) << object.status().to_string();
  return object.take();
}

/// Lint `object` in porcelain mode; returns the output, expects exit != 0.
std::string lint_porcelain(const isa::ObjectFile& object, const char* name) {
  const std::string path = tmp_path(name);
  write_tbf(object, path);
  std::string output;
  const int status =
      run_command(tool("tytan-lint") + " --porcelain " + path, &output);
  EXPECT_NE(status, 0) << output;
  return output;
}

TEST(Lint, GoldenBadBranchTarget) {
  // jmp +0x60 out of a 16-byte image, hand-encoded.
  isa::ObjectFile object;
  append_le32(object.image, 0x3000'0060u);  // jmp +0x60
  append_le32(object.image, 0x0000'0000u);  // nop
  append_le32(object.image, 0x0000'0000u);  // nop
  append_le32(object.image, 0x4200'0000u);  // hlt
  const std::string output = lint_porcelain(object, "bad_branch.tbf");
  EXPECT_NE(output.find("CF002\terror\t0x0000\t"), std::string::npos) << output;
}

TEST(Lint, GoldenHi16WithoutLo16) {
  auto object = must_assemble(R"(
      .entry start
  start:
      li r2, start
      movi r0, 3
      int 0x21
  )");
  std::erase_if(object.relocs, [](const isa::Relocation& r) {
    return r.kind == isa::RelocKind::kLo16;
  });
  const std::string output = lint_porcelain(object, "torn_pair.tbf");
  EXPECT_NE(output.find("RL001\terror\t0x0004\t"), std::string::npos) << output;
}

TEST(Lint, GoldenStackOverflowByConstruction) {
  const auto object = must_assemble(R"(
      .stack 32
      .entry start
  start:
      subi sp, 64
      movi r0, 3
      int 0x21
  )");
  const std::string output = lint_porcelain(object, "stack_smash.tbf");
  EXPECT_NE(output.find("ST001\terror\t"), std::string::npos) << output;
}

TEST(Lint, GoldenMmioStoreFromUnprivilegedTask) {
  const auto object = must_assemble(R"(
      .entry start
  start:
      li r2, 0x100400
      movi r3, 9
      stw r3, [r2]
      movi r0, 3
      int 0x21
  )");
  const std::string output = lint_porcelain(object, "mmio_store.tbf");
  EXPECT_NE(output.find("MM001\terror\t0x000c\t"), std::string::npos) << output;
}

TEST(Lint, CleanBinaryExitsZeroAndHumanOutputHasContext) {
  const std::string asm_path = tmp_path("clean.s");
  const std::string tbf_path = tmp_path("clean.tbf");
  {
    std::ofstream out(asm_path);
    out << kSource;
  }
  std::string output;
  ASSERT_EQ(run_command(tool("tytan-as") + " " + asm_path + " -o " + tbf_path, &output), 0)
      << output;
  ASSERT_EQ(run_command(tool("tytan-lint") + " " + tbf_path, &output), 0) << output;
  EXPECT_NE(output.find("0 error(s)"), std::string::npos) << output;

  // Human (non-porcelain) output on a bad binary shows disassembly context.
  isa::ObjectFile bad;
  append_le32(bad.image, 0x3000'0060u);
  append_le32(bad.image, 0x4200'0000u);
  write_tbf(bad, tmp_path("ctx.tbf"));
  EXPECT_NE(run_command(tool("tytan-lint") + " " + tmp_path("ctx.tbf"), &output), 0);
  EXPECT_NE(output.find("[ERROR CF002]"), std::string::npos) << output;
  EXPECT_NE(output.find(">"), std::string::npos) << output;  // marked instruction
  EXPECT_NE(output.find("jmp"), std::string::npos) << output;
}

TEST(Lint, SuppressAndStrictFlags) {
  // A warnings-only binary: indirect jump.
  const auto object = must_assemble(R"(
      .entry start
  start:
      movi r1, 0
      jmpr r1
  )");
  const std::string path = tmp_path("warn_only.tbf");
  write_tbf(object, path);
  std::string output;
  // Warnings alone do not fail the lint...
  EXPECT_EQ(run_command(tool("tytan-lint") + " " + path, &output), 0) << output;
  // ...unless --strict is given...
  EXPECT_NE(run_command(tool("tytan-lint") + " --strict " + path, &output), 0);
  // ...and --suppress DF002 silences the dataflow verdict entirely.
  EXPECT_EQ(run_command(
                tool("tytan-lint") + " --strict --suppress DF002 " + path, &output),
            0)
      << output;
  // With the dataflow pass off, the warning is the structural CF006 again.
  EXPECT_EQ(run_command(tool("tytan-lint") +
                            " --strict --no-dataflow --suppress CF006 " + path,
                        &output),
            0)
      << output;
  EXPECT_NE(run_command(tool("tytan-lint") + " --suppress NOPE " + path, &output), 0);
}

TEST(Lint, ResolvedJumpTableLintsCleanUnderStrict) {
  // The canonical jump-table idiom: CF006 under the seed pipeline, resolved
  // clean (info only) by the dataflow pass.
  const std::string asm_path = tmp_path("jump_table.s");
  {
    std::ofstream out(asm_path);
    out << ".entry main\n"
           "main:\n    andi r1, 1\n    shli r1, 2\n    li r2, table\n"
           "    add r2, r1\n    ldw r2, [r2]\n    jmpr r2\n"
           "a:\n    hlt\n"
           "b:\n    hlt\n"
           "table:\n    .word a, b\n";
  }
  std::string output;
  EXPECT_EQ(run_command(tool("tytan-lint") + " --strict " + asm_path, &output), 0)
      << output;
  EXPECT_NE(output.find("DF001"), std::string::npos) << output;
  EXPECT_NE(run_command(
                tool("tytan-lint") + " --strict --no-dataflow " + asm_path, &output),
            0)
      << output;
  EXPECT_NE(output.find("CF006"), std::string::npos) << output;
}

TEST(Lint, JsonReportShape) {
  const std::string asm_path = tmp_path("json_input.s");
  {
    std::ofstream out(asm_path);
    out << ".entry main\nmain:\n    jmpr r1\n";
  }
  std::string output;
  EXPECT_EQ(run_command(tool("tytan-lint") + " --json " + asm_path, &output), 0)
      << output;
  // Flat object, same style as `tytan-trace stats --json`.
  EXPECT_EQ(output.front(), '{') << output;
  EXPECT_NE(output.find("\"errors\": 0"), std::string::npos) << output;
  EXPECT_NE(output.find("\"warnings\": 1"), std::string::npos) << output;
  EXPECT_NE(output.find("\"indirect_sites\": 1"), std::string::npos) << output;
  EXPECT_NE(output.find("\"resolved_sites\": 0"), std::string::npos) << output;
  EXPECT_NE(output.find("\"pass_us\""), std::string::npos) << output;
  EXPECT_NE(output.find("\"rules\": {\"DF002\": 1}"), std::string::npos) << output;
  EXPECT_NE(output.find("\"findings\": [{\"rule\": \"DF002\""), std::string::npos)
      << output;
  // --json and --porcelain are mutually exclusive: usage error.
  EXPECT_NE(run_command(
                tool("tytan-lint") + " --json --porcelain " + asm_path, &output),
            0);
}

TEST(Lint, CheckedFlagParsing) {
  const std::string asm_path = tmp_path("flags_input.s");
  {
    std::ofstream out(asm_path);
    out << ".entry main\nmain:\n    hlt\n";
  }
  std::string output;
  EXPECT_EQ(run_command(
                tool("tytan-lint") + " --max-targets 8 " + asm_path, &output),
            0)
      << output;
  // Garbage or missing values exit 2 (usage), not silently-zero configs.
  EXPECT_NE(run_command(
                tool("tytan-lint") + " --max-targets banana " + asm_path, &output),
            0);
  EXPECT_NE(output.find("--max-targets"), std::string::npos) << output;
  EXPECT_NE(run_command(tool("tytan-lint") + " " + asm_path + " --suppress", &output),
            0);
  EXPECT_NE(run_command(tool("tytan-lint") + " --bogus-flag " + asm_path, &output),
            0);
}

TEST(Lint, LintsAssemblySourceDirectly) {
  const std::string asm_path = tmp_path("direct.s");
  {
    std::ofstream out(asm_path);
    out << ".stack 32\n.entry start\nstart:\n    subi sp, 64\n    movi r0, 3\n    int 0x21\n";
  }
  std::string output;
  EXPECT_NE(run_command(tool("tytan-lint") + " --porcelain " + asm_path, &output), 0);
  EXPECT_NE(output.find("ST001"), std::string::npos) << output;
}

TEST(Lint, AssemblerStrictLintGate) {
  const std::string asm_path = tmp_path("gated.s");
  const std::string tbf_path = tmp_path("gated.tbf");
  {
    std::ofstream out(asm_path);
    out << ".stack 32\n.entry start\nstart:\n    subi sp, 64\n    movi r0, 3\n    int 0x21\n";
  }
  std::string output;
  // Default: warn on stderr but still assemble.
  ASSERT_EQ(run_command(tool("tytan-as") + " " + asm_path + " -o " + tbf_path, &output), 0)
      << output;
  EXPECT_NE(output.find("lint"), std::string::npos) << output;
  // Strict: refuse to produce a binary.
  EXPECT_NE(run_command(tool("tytan-as") + " " + asm_path + " -o " + tbf_path +
                            " --strict-lint",
                        &output),
            0);
  EXPECT_NE(output.find("rejected by the static verifier"), std::string::npos) << output;
  // Opt-out: no lint output at all.
  ASSERT_EQ(run_command(tool("tytan-as") + " " + asm_path + " -o " + tbf_path +
                            " --no-lint",
                        &output),
            0);
  EXPECT_EQ(output.find("lint"), std::string::npos) << output;
}

// ------------------------------------------------------------ suite plumbing

constexpr const char* kAllTools[] = {"tytan-as",    "tytan-objdump", "tytan-lint",
                                     "tytan-run",   "tytan-fleet",   "tytan-trace",
                                     "tytan-top"};

/// Exit code from a run_command() wait status.
int exit_code(int status) { return WIFEXITED(status) ? WEXITSTATUS(status) : -1; }

TEST(Suite, VersionAndHelpExitZeroEverywhere) {
  for (const char* name : kAllTools) {
    std::string output;
    EXPECT_EQ(exit_code(run_command(tool(name) + " --version", &output)), 0) << name;
    EXPECT_NE(output.find("span-schema"), std::string::npos) << name << ": " << output;
    EXPECT_NE(output.find(name), std::string::npos) << name << ": " << output;
    EXPECT_EQ(exit_code(run_command(tool(name) + " --help", &output)), 0) << name;
    EXPECT_NE(output.find("usage:"), std::string::npos) << name << ": " << output;
  }
}

TEST(Suite, UnknownFlagsExitTwoEverywhere) {
  for (const char* name : kAllTools) {
    std::string output;
    // The bogus flag rides along with plausible positionals so every tool
    // reaches its flag loop rather than bailing on arity first.
    const std::string positional =
        std::string(name) == "tytan-trace" ? " stats /dev/null" : "";
    EXPECT_EQ(exit_code(run_command(
                  tool(name) + positional + " --definitely-not-a-flag", &output)),
              2)
        << name << ": " << output;
  }
  // tytan-run has no --profile: a script still passing it must fail as a
  // usage error, not run without the profile it asked for.
  std::string output;
  EXPECT_EQ(exit_code(run_command(tool("tytan-run") + " --profile 997 x.tbf", &output)), 2)
      << output;
}

TEST(Suite, EmptyJsonlInputsDiagnoseAndFail) {
  const std::string empty = tmp_path("empty.jsonl");
  { std::ofstream out(empty); }
  std::string output;
  EXPECT_EQ(exit_code(run_command(tool("tytan-top") + " " + empty, &output)), 1);
  EXPECT_NE(output.find("no telemetry records"), std::string::npos) << output;
  EXPECT_EQ(exit_code(run_command(tool("tytan-trace") + " spans " + empty, &output)),
            1);
  EXPECT_NE(output.find("no span records"), std::string::npos) << output;
  EXPECT_EQ(exit_code(run_command(tool("tytan-trace") + " slo " + empty +
                                      " --p99-cycles=100",
                                  &output)),
            1);
}

TEST(Suite, TruncatedJsonlInputsDiagnoseAndFail) {
  const std::string trunc = tmp_path("trunc.jsonl");
  {
    std::ofstream out(trunc);
    out << R"({"type":"span","device":1,"trace":1,"span":1,"par)";
  }
  std::string output;
  EXPECT_EQ(exit_code(run_command(tool("tytan-trace") + " spans " + trunc, &output)),
            1);
  EXPECT_NE(output.find("truncated"), std::string::npos) << output;
  const std::string garbage = tmp_path("garbage.jsonl");
  {
    std::ofstream out(garbage);
    out << "definitely not telemetry\n";
  }
  EXPECT_EQ(exit_code(run_command(tool("tytan-top") + " " + garbage, &output)), 1);
}

TEST(Suite, FleetSpansRoundTripThroughTrace) {
  const std::string spans = tmp_path("fleet_spans.jsonl");
  std::string output;
  ASSERT_EQ(exit_code(run_command(tool("tytan-fleet") +
                                      " --devices 2 --attest-sweeps 2 --spans-out " +
                                      spans,
                                  &output)),
            0)
      << output;
  EXPECT_NE(output.find("spans:"), std::string::npos) << output;
  ASSERT_EQ(exit_code(run_command(
                tool("tytan-trace") + " spans " + spans + " --phase=attest-round",
                &output)),
            0)
      << output;
  EXPECT_NE(output.find("attest-round"), std::string::npos) << output;
  // Generous budget passes; absurdly small budget breaches with exit 1.
  EXPECT_EQ(exit_code(run_command(tool("tytan-trace") + " slo " + spans +
                                      " --p99-cycles=100000000",
                                  &output)),
            0)
      << output;
  EXPECT_EQ(exit_code(run_command(
                tool("tytan-trace") + " slo " + spans + " --p99-cycles=1", &output)),
            1)
      << output;
  EXPECT_NE(output.find("SLO BREACH"), std::string::npos) << output;
}

}  // namespace
}  // namespace tytan
