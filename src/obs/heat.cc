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

// One walk per heat record type: the key lists of the profile's JSONL.

void walk_header(json::Io& io, std::int32_t& schema, const HeatProfile& profile) {
  std::size_t used_opcodes = 0;
  for (const HeatProfile::OpcodeStat& stat : profile.opcodes) {
    used_opcodes += stat.count != 0 ? 1 : 0;
  }
  io.tag("type", "heat-header");
  io.i32("schema", schema);
  io.derived("instructions", profile.total_instructions());
  io.derived("blocks", profile.blocks.size());
  io.derived("opcodes", used_opcodes);
  io.derived("edges", profile.edges.size());
  io.derived("regions", profile.regions.size());
}

void walk_region(json::Io& io, HeatProfile::Region& region) {
  io.tag("type", "region");
  io.i32("task", region.task);
  io.str("name", region.name);
  io.u32("base", region.base);
  io.u32("size", region.size);
}

void walk_block(json::Io& io, std::pair<std::uint32_t, HeatProfile::Block>& entry) {
  io.tag("type", "block");
  io.u32("start", entry.first);
  io.u32("end", entry.second.end);
  io.u64("entries", entry.second.entries);
  io.u64("instructions", entry.second.instructions);
}

/// `host_ns` says whether the writer includes the host-time fields; a reader
/// takes them when present.
void walk_opcode(json::Io& io, std::uint32_t& op, std::string& mnemonic,
                 HeatProfile::OpcodeStat& stat, bool host_ns) {
  io.tag("type", "opcode");
  io.u32("op", op);
  io.str("mnemonic", mnemonic);
  io.u64("count", stat.count);
  io.optional("ns_total", stat.ns_total, host_ns);
  io.optional("ns_samples", stat.ns_samples, host_ns);
}

void walk_mpu(json::Io& io, std::size_t& kind, std::size_t& bucket, std::uint64_t& count) {
  io.tag("type", "mpu");
  io.name("access", kind, HeatProfile::kMpuAccessKinds, HeatProfile::access_kind_name);
  io.name("rule", bucket, HeatProfile::kMpuBuckets, HeatProfile::bucket_name);
  io.u64("count", count);
}

void walk_edge(json::Io& io, std::pair<std::uint64_t, HeatProfile::Edge>& entry) {
  auto site = static_cast<std::uint32_t>(entry.first >> 32);
  auto target = static_cast<std::uint32_t>(entry.first);
  io.tag("type", "edge");
  io.u32("site", site);
  io.u32("target", target);
  io.flag("call", entry.second.is_call);
  io.u64("count", entry.second.count);
  entry.first = HeatProfile::edge_key(site, target);
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
  std::string out;
  const auto line = [&out](const auto& walk, auto&&... fields) {
    json::write_object(out, walk, fields...);
    out += '\n';
  };
  std::int32_t schema = kSchemaVersion;
  line(walk_header, schema, *this);
  for (Region region : regions) {
    line(walk_region, region);
  }
  for (std::pair<std::uint32_t, Block> entry : blocks) {
    line(walk_block, entry);
  }
  for (std::uint32_t op = 0; op < opcodes.size(); ++op) {
    OpcodeStat stat = opcodes[op];
    if (stat.count != 0) {
      const auto byte = static_cast<std::uint8_t>(op);
      line(walk_opcode, op, namer ? namer(byte) : fallback_opcode_name(byte), stat,
           include_host_ns);
    }
  }
  for (std::size_t kind = 0; kind < kMpuAccessKinds; ++kind) {
    for (std::size_t bucket = 0; bucket < kMpuBuckets; ++bucket) {
      if (std::uint64_t count = mpu[kind][bucket]; count != 0) {
        line(walk_mpu, kind, bucket, count);
      }
    }
  }
  for (std::pair<std::uint64_t, Edge> entry : edges) {
    line(walk_edge, entry);
  }
  return out;
}

std::vector<std::pair<std::uint32_t, HeatProfile::Block>> HeatProfile::hot_blocks() const {
  std::vector<std::pair<std::uint32_t, Block>> out(blocks.begin(), blocks.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second.instructions != b.second.instructions
               ? a.second.instructions > b.second.instructions
               : a.first < b.first;
  });
  return out;
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
  HeatProfile& profile = log.profile;
  json::Lines lines(text);
  for (std::string_view line; lines.next(line);) {
    const std::string type = json::find_str(line, "type");
    bool ok = false;
    if (type == "heat-header") {
      ok = json::read_object(line, walk_header, log.schema, profile);
      if (ok && log.schema != HeatProfile::kSchemaVersion) {
        return make_error(Err::kInvalidArgument,
                          "heat profile schema " + std::to_string(log.schema) +
                              " (this build reads schema " +
                              std::to_string(HeatProfile::kSchemaVersion) + ")");
      }
    } else if (type == "region") {
      ok = json::read_object(line, walk_region, profile.regions.emplace_back());
    } else if (type == "block") {
      std::pair<std::uint32_t, HeatProfile::Block> entry;
      ok = json::read_object(line, walk_block, entry);
      profile.blocks[entry.first] = entry.second;
    } else if (type == "opcode") {
      std::uint32_t op = 0;
      std::string mnemonic;
      HeatProfile::OpcodeStat stat;
      ok = json::read_object(line, walk_opcode, op, mnemonic, stat, false) &&
           op < profile.opcodes.size();
      if (ok) {
        profile.opcodes[op] = stat;
        log.mnemonics[op] = std::move(mnemonic);
      }
    } else if (type == "mpu") {
      std::size_t kind = 0;
      std::size_t bucket = 0;
      std::uint64_t count = 0;
      ok = json::read_object(line, walk_mpu, kind, bucket, count);
      profile.mpu[kind][bucket] = count;
    } else if (type == "edge") {
      std::pair<std::uint64_t, HeatProfile::Edge> entry;
      ok = json::read_object(line, walk_edge, entry);
      profile.edges[entry.first] = entry.second;
    }
    if (!ok) {
      return lines.corrupt("heat");
    }
  }
  return log;
}

}  // namespace tytan::obs
