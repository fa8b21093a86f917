#include "obs/heat.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/json.h"

namespace tytan::obs {

namespace {

// Negative classify() codes (sim/policy.h) in bucket order after the slots.
// Kept in sync by value, not by include — obs cannot depend on sim.
constexpr std::string_view kOtherBucketNames[HeatProfile::kMpuOtherBuckets] = {
    "denied", "unprotected", "implicit-self", "os-window", "unclassified",
    "no-policy"};

constexpr std::string_view kAccessKindNames[HeatProfile::kMpuAccessKinds] = {
    "read", "write", "execute"};

std::string fallback_opcode_name(std::uint8_t op) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "op%02x", op);
  return buf;
}

}  // namespace

std::string HeatProfile::bucket_name(std::size_t bucket) {
  if (bucket < kMpuSlotBuckets) {
    return "slot" + std::to_string(bucket);
  }
  if (bucket < kMpuBuckets) {
    return std::string(kOtherBucketNames[bucket - kMpuSlotBuckets]);
  }
  return "?";
}

std::string_view HeatProfile::access_kind_name(std::size_t kind) {
  return kind < kMpuAccessKinds ? kAccessKindNames[kind] : "?";
}

std::uint64_t HeatProfile::total_instructions() const {
  std::uint64_t total = 0;
  for (const OpcodeStat& stat : opcodes) {
    total += stat.count;
  }
  return total;
}

std::uint64_t HeatProfile::total_checks() const {
  std::uint64_t total = 0;
  for (const auto& row : mpu) {
    for (const std::uint64_t count : row) {
      total += count;
    }
  }
  return total;
}

void HeatProfile::merge(const HeatProfile& other) {
  for (const auto& [start, block] : other.blocks) {
    Block& mine = blocks[start];
    mine.end = std::max(mine.end, block.end);
    mine.entries += block.entries;
    mine.instructions += block.instructions;
  }
  for (std::size_t op = 0; op < opcodes.size(); ++op) {
    opcodes[op].count += other.opcodes[op].count;
    opcodes[op].ns_total += other.opcodes[op].ns_total;
    opcodes[op].ns_samples += other.opcodes[op].ns_samples;
  }
  for (std::size_t kind = 0; kind < kMpuAccessKinds; ++kind) {
    for (std::size_t bucket = 0; bucket < kMpuBuckets; ++bucket) {
      mpu[kind][bucket] += other.mpu[kind][bucket];
    }
  }
  for (const auto& [key, edge] : other.edges) {
    Edge& mine = edges[key];
    mine.count += edge.count;
    mine.is_call = edge.is_call;
  }
  regions.insert(regions.end(), other.regions.begin(), other.regions.end());
}

std::string_view HeatProfile::region_name(std::uint32_t pc) const {
  for (const Region& region : regions) {
    if (pc >= region.base && pc - region.base < region.size) {
      return region.name;
    }
  }
  return "?";
}

std::string HeatProfile::to_jsonl(bool include_host_ns,
                                  const OpcodeNamer& namer) const {
  std::ostringstream os;
  std::size_t used_opcodes = 0;
  for (const OpcodeStat& stat : opcodes) {
    used_opcodes += stat.count != 0 ? 1 : 0;
  }
  os << R"({"type":"heat-header","schema":)" << kSchemaVersion
     << R"(,"instructions":)" << total_instructions() << R"(,"blocks":)"
     << blocks.size() << R"(,"opcodes":)" << used_opcodes << R"(,"edges":)"
     << edges.size() << R"(,"regions":)" << regions.size() << "}\n";
  for (const Region& region : regions) {
    os << R"({"type":"region","task":)" << region.task << R"(,"name":")"
       << json::escape(region.name) << R"(","base":)" << region.base
       << R"(,"size":)" << region.size << "}\n";
  }
  for (const auto& [start, block] : blocks) {
    os << R"({"type":"block","start":)" << start << R"(,"end":)" << block.end
       << R"(,"entries":)" << block.entries << R"(,"instructions":)"
       << block.instructions << "}\n";
  }
  for (std::size_t op = 0; op < opcodes.size(); ++op) {
    const OpcodeStat& stat = opcodes[op];
    if (stat.count == 0) {
      continue;
    }
    const auto byte = static_cast<std::uint8_t>(op);
    os << R"({"type":"opcode","op":)" << op << R"(,"mnemonic":")"
       << json::escape(namer ? namer(byte) : fallback_opcode_name(byte))
       << R"(","count":)" << stat.count;
    if (include_host_ns) {
      os << R"(,"ns_total":)" << stat.ns_total << R"(,"ns_samples":)"
         << stat.ns_samples;
    }
    os << "}\n";
  }
  for (std::size_t kind = 0; kind < kMpuAccessKinds; ++kind) {
    for (std::size_t bucket = 0; bucket < kMpuBuckets; ++bucket) {
      if (mpu[kind][bucket] == 0) {
        continue;
      }
      os << R"({"type":"mpu","access":")" << access_kind_name(kind)
         << R"(","rule":")" << bucket_name(bucket) << R"(","count":)"
         << mpu[kind][bucket] << "}\n";
    }
  }
  for (const auto& [key, edge] : edges) {
    os << R"({"type":"edge","site":)" << (key >> 32) << R"(,"target":)"
       << (key & 0xFFFF'FFFFu) << R"(,"call":)" << (edge.is_call ? 1 : 0)
       << R"(,"count":)" << edge.count << "}\n";
  }
  return os.str();
}

std::string HeatProfile::folded() const {
  std::vector<std::string> lines;
  lines.reserve(blocks.size());
  for (const auto& [start, block] : blocks) {
    std::ostringstream line;
    line << region_name(start) << ";block_0x" << std::hex << start << std::dec
         << " " << block.instructions;
    lines.push_back(line.str());
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// JSONL parsing (tytan-objdump --heat, tytan-top --heat, tests)
// ---------------------------------------------------------------------------

std::string HeatLog::opcode_name(std::uint8_t op) const {
  return mnemonics[op].empty() ? fallback_opcode_name(op) : mnemonics[op];
}

Result<HeatLog> parse_heat_jsonl(std::string_view text) {
  HeatLog log;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const std::string type = json::find_str(line, "type");
    if (type == "heat-header") {
      log.schema = static_cast<int>(json::find_u64(line, "schema"));
      if (log.schema != HeatProfile::kSchemaVersion) {
        return make_error(Err::kInvalidArgument,
                          "heat profile schema " + std::to_string(log.schema) +
                              " (this build reads schema " +
                              std::to_string(HeatProfile::kSchemaVersion) + ")");
      }
    } else if (type == "region") {
      HeatProfile::Region region;
      region.task = static_cast<std::int32_t>(json::find_int(line, "task", -1));
      region.name = json::find_str(line, "name");
      region.base = static_cast<std::uint32_t>(json::find_u64(line, "base"));
      region.size = static_cast<std::uint32_t>(json::find_u64(line, "size"));
      log.profile.regions.push_back(std::move(region));
    } else if (type == "block") {
      const auto start = static_cast<std::uint32_t>(json::find_u64(line, "start"));
      HeatProfile::Block& block = log.profile.blocks[start];
      block.end = static_cast<std::uint32_t>(json::find_u64(line, "end"));
      block.entries = json::find_u64(line, "entries");
      block.instructions = json::find_u64(line, "instructions");
    } else if (type == "opcode") {
      const std::uint64_t op = json::find_u64(line, "op");
      if (op >= log.profile.opcodes.size()) {
        return make_error(Err::kCorrupt, "heat opcode out of range: " + line);
      }
      HeatProfile::OpcodeStat& stat = log.profile.opcodes[op];
      stat.count = json::find_u64(line, "count");
      stat.ns_total = json::find_u64(line, "ns_total");
      stat.ns_samples = json::find_u64(line, "ns_samples");
      log.mnemonics[op] = json::find_str(line, "mnemonic");
    } else if (type == "mpu") {
      const std::string access = json::find_str(line, "access");
      const std::string rule = json::find_str(line, "rule");
      std::size_t kind = HeatProfile::kMpuAccessKinds;
      for (std::size_t k = 0; k < HeatProfile::kMpuAccessKinds; ++k) {
        if (access == HeatProfile::access_kind_name(k)) {
          kind = k;
        }
      }
      std::size_t bucket = HeatProfile::kMpuBuckets;
      for (std::size_t b = 0; b < HeatProfile::kMpuBuckets; ++b) {
        if (rule == HeatProfile::bucket_name(b)) {
          bucket = b;
        }
      }
      if (kind == HeatProfile::kMpuAccessKinds ||
          bucket == HeatProfile::kMpuBuckets) {
        return make_error(Err::kCorrupt, "heat mpu line unrecognized: " + line);
      }
      log.profile.mpu[kind][bucket] = json::find_u64(line, "count");
    } else if (type == "edge") {
      const auto site = static_cast<std::uint32_t>(json::find_u64(line, "site"));
      const auto target = static_cast<std::uint32_t>(json::find_u64(line, "target"));
      HeatProfile::Edge& edge =
          log.profile.edges[HeatProfile::edge_key(site, target)];
      edge.count = json::find_u64(line, "count");
      edge.is_call = json::find_u64(line, "call") != 0;
    } else {
      return make_error(Err::kCorrupt, "heat line has no recognized type: " + line);
    }
  }
  return log;
}

Result<HeatLog> read_heat_file(const std::string& path) {
  auto text = json::read_text_file(path);
  if (!text.is_ok()) {
    return text.status();
  }
  return parse_heat_jsonl(*text);
}

}  // namespace tytan::obs
