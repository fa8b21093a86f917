// Execution observatory: guest heat maps, dispatch profiles, and host-cost
// attribution for the interpreter hot path.
//
// Two halves, split so profiles aggregate without the hot-path state:
//
//   HeatProfile   — pure aggregatable data: per-basic-block execution
//                   counters keyed by physical PC, a per-opcode dispatch
//                   histogram with batched host-nanosecond attribution,
//                   EA-MPU check counters split by the rule that granted or
//                   denied the access, and dynamic indirect-branch edge
//                   profiles.  Owned by the MetricsRegistry (a fourth
//                   instrument kind) so fleet aggregation folds device
//                   profiles with the same merge_from discipline as
//                   counters/histograms.
//
//   HeatRecorder  — the transient hot-path state sim::Machine drives:
//                   open-block tracking, the dispatch-timing stride counter,
//                   and the static-leader set.  The recorder never touches
//                   the machine and never charges simulated cycles; disabled
//                   it costs the owner a single null-pointer check — cycle
//                   counts stay bit-identical with the observatory on.
//
// Block boundaries come from two sources that agree by construction: the
// static CFG recovered by src/analysis (block start offsets are registered
// as "leaders" at task load, so a fall-through into a static block boundary
// closes the runtime block exactly where the analyzer would), with runtime
// leader detection as the fallback (any non-sequential PC opens a block, so
// unanalyzed code still profiles).  Host-nanosecond fields are in-memory
// only unless explicitly exported — to_jsonl(false, ...) is byte-identical
// across thread counts and hosts, the property the fleet tests pin.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/status.h"

namespace tytan::obs {

/// Resolve a raw opcode byte to its mnemonic for export.  The obs layer must
/// not depend on src/isa (it links only tytan_common), so callers that want
/// real mnemonics pass a namer over isa::mnemonic; an empty function falls
/// back to "op3f"-style hex names.
using OpcodeNamer = std::function<std::string(std::uint8_t)>;

class HeatProfile {
 public:
  /// Serialized schema version ("heat-schema" in the tool suite version).
  static constexpr int kSchemaVersion = 1;

  /// EA-MPU check attribution buckets.  Non-negative classify() codes are
  /// rule-slot indices (sim/policy.h); the six negative codes get named
  /// buckets after the slots.  18 mirrors hw::EaMpu::kNumSlots — asserted
  /// where both are visible (src/hw can see obs, not vice versa).
  static constexpr std::size_t kMpuAccessKinds = 3;  ///< read / write / execute
  static constexpr std::size_t kMpuSlotBuckets = 18;
  static constexpr std::size_t kMpuOtherBuckets = 6;
  static constexpr std::size_t kMpuBuckets = kMpuSlotBuckets + kMpuOtherBuckets;

  struct Block {
    std::uint32_t end = 0;        ///< exclusive; max PC+4 seen in the block
    std::uint64_t entries = 0;    ///< times execution entered at `start`
    std::uint64_t instructions = 0;  ///< instructions dispatched inside
  };

  struct OpcodeStat {
    std::uint64_t count = 0;       ///< dispatches of this opcode
    std::uint64_t ns_total = 0;    ///< host ns over the sampled dispatches
    std::uint64_t ns_samples = 0;  ///< sampled dispatch count (TSC stride)
  };

  struct Edge {
    std::uint64_t count = 0;
    bool is_call = false;
  };

  struct Region {
    std::int32_t task = -1;
    std::string name;
    std::uint32_t base = 0;
    std::uint32_t size = 0;
  };

  /// Basic blocks keyed by physical start PC.
  std::map<std::uint32_t, Block> blocks;
  /// Indexed by the raw opcode byte of the dispatched instruction.
  std::array<OpcodeStat, 256> opcodes{};
  /// [access kind][bucket] — see bucket_for() / bucket_name().
  std::array<std::array<std::uint64_t, kMpuBuckets>, kMpuAccessKinds> mpu{};
  /// (site PC << 32 | target PC) -> dynamic edge profile.
  std::map<std::uint64_t, Edge> edges;
  /// Task code regions registered at load (PC -> task/name attribution).
  std::vector<Region> regions;

  [[nodiscard]] static constexpr std::uint64_t edge_key(std::uint32_t site,
                                                        std::uint32_t target) {
    return (static_cast<std::uint64_t>(site) << 32) | target;
  }
  /// classify() code -> mpu bucket index (out-of-range codes fold into the
  /// "unclassified" bucket so a foreign policy can never index out of bounds).
  [[nodiscard]] static std::size_t bucket_for(int code);
  [[nodiscard]] static std::string bucket_name(std::size_t bucket);
  [[nodiscard]] static std::string_view access_kind_name(std::size_t kind);

  /// Total guest instructions observed (sum of the opcode histogram; equals
  /// the sum of block instruction counters once the recorder is flushed).
  [[nodiscard]] std::uint64_t total_instructions() const;
  [[nodiscard]] std::uint64_t total_checks() const;

  /// Fold another device's profile into this one (fleet aggregation):
  /// blocks/opcodes/mpu/edges add, regions concatenate.
  void merge(const HeatProfile& other);

  /// JSONL export, fixed key order, records sorted by their map keys.  With
  /// `include_host_ns` false every field is a deterministic function of the
  /// simulated execution — byte-identical across hosts and thread counts.
  [[nodiscard]] std::string to_jsonl(bool include_host_ns,
                                     const OpcodeNamer& namer = {}) const;

  /// Collapsed-stack export ("region;block_0xADDR count" lines, sorted) for
  /// flamegraph.pl / speedscope.
  [[nodiscard]] std::string folded() const;

  /// Name of the region containing `pc` ("?" when unattributed).
  [[nodiscard]] std::string_view region_name(std::uint32_t pc) const;

  void clear();
};

/// Parsed heat-profile file (tytan-objdump --heat, tytan-top --heat).  The
/// mnemonics written by the producer's namer ride along so consumers render
/// opcode names without an isa dependency.
struct HeatLog {
  int schema = 0;
  HeatProfile profile;
  std::array<std::string, 256> mnemonics{};

  [[nodiscard]] std::string opcode_name(std::uint8_t op) const;
};

Result<HeatLog> parse_heat_jsonl(std::string_view text);
Result<HeatLog> read_heat_file(const std::string& path);

class HeatRecorder {
 public:
  /// Dispatch-timing stride: one in kSampleStride dispatches is host-timed
  /// (power of two — the hot-path test is a mask).  Batched sampling keeps
  /// the enabled-mode overhead to one counter increment per instruction plus
  /// two steady_clock reads every 64th dispatch.
  static constexpr std::uint64_t kSampleStride = 64;

  /// Binds the recorder to a profile owned elsewhere (the machine's
  /// MetricsRegistry).  `time_dispatch` false skips host-timing entirely —
  /// the mode fleet devices use so aggregated profiles stay deterministic.
  explicit HeatRecorder(HeatProfile* profile, bool time_dispatch = true)
      : profile_(profile), time_dispatch_(time_dispatch) {}

  /// Hot path: one call per interpreted guest instruction, after decode and
  /// before dispatch.  Maintains the open block and the opcode histogram;
  /// returns true when this dispatch should be host-timed (attribute() with
  /// the measured nanoseconds afterwards).
  bool on_instruction(std::uint32_t pc, std::uint8_t op) {
    ++profile_->opcodes[op].count;
    if (!block_open_ || pc != last_pc_ + 4 || leaders_.contains(pc)) {
      if (block_open_) {
        close_block();
      }
      block_start_ = pc;
      block_open_ = true;
      block_insns_ = 0;
    }
    last_pc_ = pc;
    ++block_insns_;
    return time_dispatch_ && (++dispatches_ & (kSampleStride - 1)) == 0;
  }

  /// Record the host cost of one sampled dispatch of `op`.
  void attribute(std::uint8_t op, std::uint64_t ns) {
    profile_->opcodes[op].ns_total += ns;
    ++profile_->opcodes[op].ns_samples;
  }

  /// One indirect transfer (jmpr/callr), fired by the machine before the
  /// transfer is attempted.  The only observer of dynamic indirect edges:
  /// the analyzer's differential soundness harness reads them from here.
  void record_edge(std::uint32_t site, std::uint32_t target, bool is_call) {
    HeatProfile::Edge& edge = profile_->edges[HeatProfile::edge_key(site, target)];
    ++edge.count;
    edge.is_call = is_call;
  }

  /// One EA-MPU choke-point evaluation.  `access` is the sim::Access value,
  /// `code` the policy's classify() result (sim/policy.h constants).
  void count_check(int access, int code) {
    const auto kind = static_cast<std::size_t>(access);
    if (kind < HeatProfile::kMpuAccessKinds) {
      ++profile_->mpu[kind][HeatProfile::bucket_for(code)];
    }
  }

  /// Register a loaded task's code region for PC attribution.
  void add_region(std::int32_t task, std::string name, std::uint32_t base,
                  std::uint32_t size) {
    profile_->regions.push_back({task, std::move(name), base, size});
  }

  /// Register static basic-block leaders (CFG block start offsets relative
  /// to `base`): a sequential fall into a leader closes the runtime block,
  /// aligning runtime boundaries with the analyzer's.
  void add_leaders(std::uint32_t base, const std::vector<std::uint32_t>& offsets) {
    for (const std::uint32_t offset : offsets) {
      leaders_.insert(base + offset);
    }
  }

  /// Close the open block (idempotent).  Call before reading the profile.
  void flush() {
    if (block_open_) {
      close_block();
      block_open_ = false;
    }
  }

  [[nodiscard]] const HeatProfile& profile() const { return *profile_; }
  [[nodiscard]] HeatProfile& profile() { return *profile_; }
  [[nodiscard]] bool times_dispatch() const { return time_dispatch_; }

 private:
  void close_block() {
    HeatProfile::Block& block = profile_->blocks[block_start_];
    const std::uint32_t end = last_pc_ + 4;
    block.end = block.end < end ? end : block.end;
    ++block.entries;
    block.instructions += block_insns_;
  }

  HeatProfile* profile_;
  bool time_dispatch_;
  std::uint64_t dispatches_ = 0;
  bool block_open_ = false;
  std::uint32_t block_start_ = 0;
  std::uint32_t last_pc_ = 0;
  std::uint64_t block_insns_ = 0;
  std::unordered_set<std::uint32_t> leaders_;
};

}  // namespace tytan::obs
