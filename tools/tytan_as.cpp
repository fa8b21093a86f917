// tytan-as — the TyTAN tool chain assembler.
//
//   tytan-as input.s -o task.tbf [--dump-symbols] [--no-lint] [--strict-lint]
//
// Assembles Peak-32 source into a relocatable TBF binary ready for
// Platform::load_task / the dynamic loader.  For `.secure` sources the
// secure-task entry routine and IPC mailbox are injected automatically
// (paper §4: "automatically included by the TyTAN tool chain").
//
// The static verifier runs on every assembled object; findings go to stderr.
// With --strict-lint, error findings make the assembly fail and no output is
// written.  --no-lint skips the verifier.
#include <cstdio>
#include <fstream>
#include <string>

#include "analysis/analyzer.h"
#include "common/json.h"
#include "isa/assembler.h"
#include "tbf/tbf.h"
#include "tool_util.h"

namespace {

constexpr const char kUsageText[] =
    "usage: tytan-as <input.s> -o <output.tbf> [--dump-symbols]"
    " [--no-lint] [--strict-lint]\n";

int usage() {
  std::fputs(kUsageText, stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  tytan::tools::handle_version_help("tytan-as", argc, argv, kUsageText);
  std::string input;
  std::string output;
  bool dump_symbols = false;
  bool lint = true;
  bool strict_lint = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg == "--dump-symbols") {
      dump_symbols = true;
    } else if (arg == "--no-lint") {
      lint = false;
    } else if (arg == "--strict-lint") {
      strict_lint = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (input.empty()) {
      input = arg;
    } else {
      return usage();
    }
  }
  if (input.empty() || output.empty()) {
    return usage();
  }

  const auto source = tytan::json::read_text_file(input);
  if (!source.is_ok()) {
    std::fprintf(stderr, "tytan-as: %s\n", source.status().message().c_str());
    return 1;
  }

  auto object = tytan::isa::assemble(*source);
  if (!object.is_ok()) {
    std::fprintf(stderr, "tytan-as: %s: %s\n", input.c_str(),
                 object.status().to_string().c_str());
    return 1;
  }

  if (lint) {
    const tytan::analysis::Report report = tytan::analysis::analyze(*object);
    for (const tytan::analysis::Finding& finding : report.findings) {
      std::fprintf(stderr, "tytan-as: lint: %s\n",
                   tytan::analysis::format_finding(finding).c_str());
    }
    if (strict_lint && report.errors() > 0) {
      std::fprintf(stderr, "tytan-as: %s: rejected by the static verifier (%zu error(s))\n",
                   input.c_str(), report.errors());
      return 1;
    }
  }

  const tytan::ByteVec raw = tytan::tbf::write(*object);
  std::ofstream out(output, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "tytan-as: cannot write '%s'\n", output.c_str());
    return 1;
  }
  out.write(reinterpret_cast<const char*>(raw.data()),
            static_cast<std::streamsize>(raw.size()));

  std::printf("%s: %zu bytes image, %zu relocation(s), entry 0x%x%s, stack %u\n",
              output.c_str(), object->image.size(), object->relocs.size(), object->entry,
              object->secure() ? ", secure" : "", object->stack_size);
  if (dump_symbols) {
    for (const auto& [name, value] : object->symbols) {
      std::printf("  %08x  %s\n", value, name.c_str());
    }
  }
  return 0;
}
