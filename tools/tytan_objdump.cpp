// tytan-objdump — inspect a TBF binary: header, symbols, relocations, and
// disassembly (with relocation sites and dataflow-resolved indirect targets
// annotated).
//
//   tytan-objdump [--json] [--heat PROFILE] task.tbf
//     --json          emit the same information as one JSON object on stdout
//     --heat PROFILE  overlay an execution-heat profile (tytan-run --heat-out):
//                     block-leader lines gain entry/instruction counts and an
//                     avg host-ns per mnemonic; a hot-block table covering
//                     >= 90% of executed instructions prints after the listing
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "common/json.h"
#include "isa/disasm.h"
#include "isa/isa.h"
#include "obs/heat.h"
#include "tbf/tbf.h"
#include "tool_util.h"

using namespace tytan;

namespace {

constexpr const char kUsageText[] =
    "usage: tytan-objdump [--json] [--heat PROFILE] <file.tbf>\n";

/// Pick the heat region this TBF corresponds to: exact name match on the
/// path argument (tytan-run registers regions under the load path), else the
/// only region, else the first.
const obs::HeatProfile::Region* pick_region(const obs::HeatProfile& profile,
                                            const std::string& path) {
  for (const auto& region : profile.regions) {
    if (region.name == path) {
      return &region;
    }
  }
  if (!profile.regions.empty()) {
    if (profile.regions.size() > 1) {
      std::fprintf(stderr,
                   "tytan-objdump: no heat region named '%s'; using '%s' "
                   "(profile has %zu regions)\n",
                   path.c_str(), profile.regions.front().name.c_str(),
                   profile.regions.size());
    }
    return &profile.regions.front();
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  tools::handle_version_help("tytan-objdump", argc, argv, kUsageText);
  const char* path = nullptr;
  const char* heat_path = nullptr;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--heat") {
      heat_path = tools::required_value("tytan-objdump", "--heat", argc, argv, &i);
    } else if (arg.rfind("--heat=", 0) == 0) {
      heat_path = argv[i] + std::strlen("--heat=");
    } else if (arg.size() > 1 && arg[0] == '-') {
      tools::unknown_flag("tytan-objdump", argv[i]);
    } else if (path != nullptr) {
      std::fputs(kUsageText, stderr);
      return 2;
    } else {
      path = argv[i];
    }
  }
  if (path == nullptr) {
    std::fputs(kUsageText, stderr);
    return 2;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "tytan-objdump: cannot open '%s'\n", path);
    return 1;
  }
  const ByteVec raw((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  auto object = tbf::read(raw);
  if (!object.is_ok()) {
    std::fprintf(stderr, "tytan-objdump: %s\n", object.status().to_string().c_str());
    return 1;
  }

  obs::HeatLog heat;
  const obs::HeatProfile::Region* region = nullptr;
  if (heat_path != nullptr) {
    auto loaded = json::read_file(heat_path, obs::parse_heat_jsonl);
    if (!loaded.is_ok()) {
      std::fprintf(stderr, "tytan-objdump: %s: %s\n", heat_path,
                   loaded.status().to_string().c_str());
      return 1;
    }
    heat = loaded.take();
    region = pick_region(heat.profile, path);
    if (region == nullptr) {
      std::fprintf(stderr, "tytan-objdump: heat profile '%s' has no regions\n",
                   heat_path);
      return 1;
    }
  }

  // Invert the symbol table for label annotation.
  std::map<std::uint32_t, std::vector<std::string>> labels;
  for (const auto& [name, value] : object->symbols) {
    labels[value].push_back(name);
  }
  std::map<std::uint32_t, const isa::Relocation*> reloc_at;
  for (const auto& reloc : object->relocs) {
    reloc_at[reloc.offset] = &reloc;
  }

  // Dataflow-resolved indirect transfers, so jmpr/callr lines show where
  // they can actually go.  Findings are the lint tool's job, not ours.
  const analysis::ResolvedTargets resolved =
      analysis::analyze_full(*object).dataflow.resolved;

  if (json) {
    std::printf("{\"file\":\"%s\",\"image_bytes\":%zu,\"secure\":%s,"
                "\"entry\":%u,\"msg_handler\":%u,\"mailbox\":%u,"
                "\"bss\":%u,\"stack\":%u,\"footprint\":%u",
                json::escape(path).c_str(), object->image.size(),
                object->secure() ? "true" : "false", object->entry,
                object->msg_handler, object->mailbox, object->bss_size,
                object->stack_size, object->memory_size());
    std::printf(",\"symbols\":{");
    bool first = true;
    for (const auto& [name, value] : object->symbols) {
      std::printf("%s\"%s\":%u", first ? "" : ",", json::escape(name).c_str(), value);
      first = false;
    }
    std::printf("},\"relocations\":[");
    first = true;
    for (const auto& reloc : object->relocs) {
      const char* kind = reloc.kind == isa::RelocKind::kAbs32  ? "ABS32"
                         : reloc.kind == isa::RelocKind::kLo16 ? "LO16"
                                                               : "HI16";
      std::printf("%s{\"offset\":%u,\"kind\":\"%s\",\"addend\":%u}",
                  first ? "" : ",", reloc.offset, kind, reloc.addend);
      first = false;
    }
    std::printf("],\"instructions\":[");
    first = true;
    for (std::uint32_t offset = 0; offset + 4 <= object->image.size(); offset += 4) {
      const std::uint32_t word = load_le32(object->image.data() + offset);
      std::printf("%s{\"offset\":%u,\"word\":%u,\"text\":\"%s\"", first ? "" : ",",
                  offset, word,
                  json::escape(isa::disassemble_word(word, offset)).c_str());
      if (const auto it = resolved.find(offset); it != resolved.end()) {
        std::printf(",\"targets\":[");
        for (std::size_t t = 0; t < it->second.size(); ++t) {
          std::printf("%s%u", t == 0 ? "" : ",", it->second[t]);
        }
        std::printf("]");
      }
      std::printf("}");
      first = false;
    }
    std::printf("]");
    if (region != nullptr) {
      std::printf(",\"heat\":{\"region\":\"%s\",\"base\":%u,"
                  "\"total_instructions\":%llu,\"blocks\":[",
                  json::escape(region->name).c_str(), region->base,
                  static_cast<unsigned long long>(heat.profile.total_instructions()));
      first = true;
      for (const auto& [start, block] : heat.profile.blocks) {
        if (start < region->base || start - region->base >= region->size) {
          continue;
        }
        std::printf("%s{\"start\":%u,\"end\":%u,\"entries\":%llu,"
                    "\"instructions\":%llu}",
                    first ? "" : ",", start - region->base, block.end - region->base,
                    static_cast<unsigned long long>(block.entries),
                    static_cast<unsigned long long>(block.instructions));
        first = false;
      }
      std::printf("]}");
    }
    std::printf("}\n");
    return 0;
  }

  std::printf("%s:\theader ok, %zu-byte image%s\n", path, object->image.size(),
              object->secure() ? " (secure task)" : "");
  std::printf("  entry 0x%04x   msg-handler 0x%04x   mailbox 0x%04x\n", object->entry,
              object->msg_handler, object->mailbox);
  std::printf("  bss %u   stack %u   total load footprint %u bytes\n", object->bss_size,
              object->stack_size, object->memory_size());

  if (!object->relocs.empty()) {
    std::printf("\nrelocations (%zu):\n", object->relocs.size());
    for (const auto& reloc : object->relocs) {
      const char* kind = reloc.kind == isa::RelocKind::kAbs32  ? "ABS32"
                         : reloc.kind == isa::RelocKind::kLo16 ? "LO16"
                                                               : "HI16";
      std::printf("  %04x  %-5s  addend=0x%x\n", reloc.offset, kind, reloc.addend);
    }
  }

  std::printf("\ndisassembly:\n");
  // Data begins at the first symbol at/after which no instruction decodes —
  // heuristic: decode everything, print raw words for undecodable ones.
  for (std::uint32_t offset = 0; offset + 4 <= object->image.size(); offset += 4) {
    if (const auto it = labels.find(offset); it != labels.end()) {
      for (const std::string& name : it->second) {
        std::printf("%s:\n", name.c_str());
      }
    }
    const std::uint32_t word = load_le32(object->image.data() + offset);
    std::printf("  %04x:  %08x  %s", offset, word,
                isa::disassemble_word(word, offset).c_str());
    if (const auto it = reloc_at.find(offset); it != reloc_at.end()) {
      std::printf("   ; reloc");
    }
    if (const auto it = resolved.find(offset); it != resolved.end()) {
      std::printf("   ; targets:");
      for (const std::uint32_t target : it->second) {
        std::printf(" 0x%x", target);
      }
    }
    if (region != nullptr) {
      const std::uint32_t pc = region->base + offset;
      if (const auto it = heat.profile.blocks.find(pc); it != heat.profile.blocks.end()) {
        std::printf("   ; heat: %llux, %llu insns",
                    static_cast<unsigned long long>(it->second.entries),
                    static_cast<unsigned long long>(it->second.instructions));
      }
      if (const auto decoded = isa::decode(word); decoded.has_value()) {
        const auto& stat =
            heat.profile.opcodes[static_cast<std::uint8_t>(decoded->opcode)];
        if (stat.ns_samples != 0) {
          std::printf("   ; ~%llu ns/insn host",
                      static_cast<unsigned long long>(stat.ns_total / stat.ns_samples));
        }
      }
    }
    std::printf("\n");
  }

  if (region != nullptr) {
    // Hot-block table: descending by executed instructions, cumulative share
    // until the blocks shown cover >= 90% of everything executed.
    const std::uint64_t total = heat.profile.total_instructions();
    std::printf("\nhot blocks (%s, %llu instructions total):\n",
                region->name.c_str(), static_cast<unsigned long long>(total));
    std::uint64_t cumulative = 0;
    for (const auto& [start, block] : heat.profile.hot_blocks()) {
      if (block.instructions == 0) {
        break;
      }
      cumulative += block.instructions;
      const double share = total == 0 ? 0.0 : 100.0 * block.instructions / total;
      const double cum_share = total == 0 ? 0.0 : 100.0 * cumulative / total;
      const bool in_region = start >= region->base && start - region->base < region->size;
      std::printf("  %08x-%08x  %10llu insns  %10llu entries  %5.1f%%  cum %5.1f%%%s\n",
                  start, block.end,
                  static_cast<unsigned long long>(block.instructions),
                  static_cast<unsigned long long>(block.entries), share, cum_share,
                  in_region ? "" : "  [outside region]");
      if (cumulative * 10 >= total * 9) {
        break;  // >= 90% of executed instructions covered
      }
    }
  }
  return 0;
}
