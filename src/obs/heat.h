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
//                   the static-leader bitmap, and direct-mapped caches of
//                   block and edge counters that flush() folds into the
//                   profile.  The recorder never touches the machine and
//                   never charges simulated cycles — cycle counts stay
//                   bit-identical with the observatory on.  It is one part
//                   of the machine's sim::Observer.  What it costs:
//                     * per instruction of a chained cached run with heat
//                       alone on, two increments (count_dispatch: the
//                       opcode and the fetch's execute-check bucket,
//                       precomputed at block build);
//                     * per segment of such a run — ops at consecutive PCs,
//                       ended by a non-sequential EIP or the chain's end —
//                       one on_segment call: a sequential-PC compare, a
//                       masked scan of the leader bitmap words the range
//                       covers, and one slot compare per block closed;
//                     * per instruction elsewhere (interpreter, single
//                       cached steps, tracer on), on_instruction (the n = 1
//                       segment plus the opcode count) and the fetch hook's
//                       bucket increment;
//                     * per data check, one bucket increment next to the
//                       policy walk (or memo) the check makes anyway; per
//                       indirect transfer, one edge slot compare;
//                     * one in kSampleStride dispatches host-timed alone.
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
  /// buckets after the slots.  18 mirrors sim::EaMpu::kNumSlots — asserted
  /// where both are visible (src/sim can see obs, not vice versa).
  static constexpr std::size_t kMpuAccessKinds = 3;  ///< read / write / execute
  static constexpr std::size_t kMpuSlotBuckets = 18;
  static constexpr std::size_t kMpuOtherBuckets = 6;
  static constexpr std::size_t kMpuBuckets = kMpuSlotBuckets + kMpuOtherBuckets;

  struct Block {
    std::uint32_t end = 0;        ///< exclusive; max PC+4 seen in the block
    std::uint64_t entries = 0;    ///< times execution entered at `start`
    std::uint64_t instructions = 0;  ///< instructions dispatched inside
    bool operator==(const Block&) const = default;
  };

  struct OpcodeStat {
    std::uint64_t count = 0;       ///< dispatches of this opcode
    std::uint64_t ns_total = 0;    ///< host ns over the sampled dispatches
    std::uint64_t ns_samples = 0;  ///< sampled dispatch count (TSC stride)
    bool operator==(const OpcodeStat&) const = default;
  };

  struct Edge {
    std::uint64_t count = 0;
    bool is_call = false;
    bool operator==(const Edge&) const = default;
  };

  struct Region {
    std::int32_t task = -1;
    std::string name;
    std::uint32_t base = 0;
    std::uint32_t size = 0;
    bool operator==(const Region&) const = default;
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
  /// "unclassified" bucket, so no code can index out of bounds).
  [[nodiscard]] static constexpr std::size_t bucket_for(int code) {
    if (code >= 0 && static_cast<std::size_t>(code) < kMpuSlotBuckets) {
      return static_cast<std::size_t>(code);
    }
    // Negative codes are -1..-6 (denied..no-policy); anything else folds
    // into "unclassified".
    const int index = -code - 1;
    if (index >= 0 && static_cast<std::size_t>(index) < kMpuOtherBuckets) {
      return kMpuSlotBuckets + static_cast<std::size_t>(index);
    }
    return kMpuSlotBuckets + 4;  // "unclassified"
  }
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

  /// Blocks by start PC, most executed instructions first (ties by PC).
  [[nodiscard]] std::vector<std::pair<std::uint32_t, Block>> hot_blocks() const;

  /// Collapsed-stack export ("region;block_0xADDR count" lines, sorted) for
  /// flamegraph.pl / speedscope.
  [[nodiscard]] std::string folded() const;

  /// Name of the region containing `pc` ("?" when unattributed).
  [[nodiscard]] std::string_view region_name(std::uint32_t pc) const;

  bool operator==(const HeatProfile&) const = default;
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

class HeatRecorder {
 public:
  /// Dispatch-timing stride: every kSampleStride-th dispatch is host-timed
  /// alone (power of two — the test is a mask), so the two steady_clock
  /// reads per timed dispatch amortize to well under a nanosecond per
  /// instruction.
  static constexpr std::uint64_t kSampleStride = 512;
  /// The access-kind row of execute checks (sim::Access::kExecute).
  static constexpr std::size_t kExecuteKind = 2;

  /// Binds the recorder to a profile owned elsewhere (the machine's
  /// MetricsRegistry).  `time_dispatch` false skips host-timing entirely —
  /// the mode fleet devices use so aggregated profiles stay deterministic.
  explicit HeatRecorder(HeatProfile* profile, bool time_dispatch = true)
      : profile_(profile), time_dispatch_(time_dispatch) {}

  /// One dispatched guest instruction, after decode and before dispatch:
  /// the opcode count plus on_segment(pc, 1).  The interpreter's and the
  /// traced path's per-instruction hook.  Returns true when this dispatch
  /// should be host-timed (attribute() with the measured nanoseconds).
  bool on_instruction(std::uint32_t pc, std::uint8_t op) {
    ++profile_->opcodes[op].count;
    on_segment(pc, 1);
    return time_dispatch_ && (dispatches_ & (kSampleStride - 1)) == 0;
  }

  /// The per-op half of a segment: the opcode count and the fetch's
  /// execute check, `fetch_bucket` being bucket_for() of its classify()
  /// code.  The other half is on_segment.
  void count_dispatch(std::uint8_t op, std::uint8_t fetch_bucket) {
    ++profile_->opcodes[op].count;
    ++profile_->mpu[kExecuteKind][fetch_bucket];
  }

  /// `n` >= 1 instructions dispatched in sequence at pc, pc + 4, ... (a
  /// segment): block tracking exactly as n on_instruction calls do it,
  /// without their opcode counts.  Past the first PC a block closes only at
  /// a static leader, found by a masked scan of the leader bitmap.  Moves
  /// the sample stride on by n.
  void on_segment(std::uint32_t pc, std::uint32_t n) {
    enter(pc);
    if (n > 1) {
      follow(pc + 4, n - 1);
    }
    dispatches_ += n;
  }

  /// Dispatches from now to the next one to host-time, that one included
  /// (every kSampleStride-th dispatch counted so far); UINT64_MAX when the
  /// recorder does not time dispatches.  For callers that report segments
  /// after running them.
  [[nodiscard]] std::uint64_t until_sample() const {
    return time_dispatch_ ? kSampleStride - (dispatches_ & (kSampleStride - 1)) : UINT64_MAX;
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
    const std::uint64_t key = HeatProfile::edge_key(site, target);
    EdgeSlot& slot = edge_slots_[(((site >> 2) ^ (site >> 12)) * 31 +
                                  ((target >> 2) ^ (target >> 12))) &
                                 (kEdgeSlots - 1)];
    if (slot.key != key) {
      fold(slot);
      slot.key = key;
    }
    ++slot.counts.count;
    slot.counts.is_call = is_call;
  }

  /// `n` EA-MPU choke-point evaluations with the same answer (one by
  /// default).  `access` is the sim::Access value, `code` the EA-MPU's
  /// classify() result (sim/policy.h constants).
  void count_check(int access, int code, std::uint64_t n = 1) {
    const auto kind = static_cast<std::size_t>(access);
    if (kind < HeatProfile::kMpuAccessKinds) {
      profile_->mpu[kind][HeatProfile::bucket_for(code)] += n;
    }
  }

  /// Register a loaded task's code region for PC attribution.
  void add_region(std::int32_t task, std::string name, std::uint32_t base,
                  std::uint32_t size) {
    profile_->regions.push_back({task, std::move(name), base, size});
  }

  /// Register static basic-block leaders (CFG block start offsets relative
  /// to `base`): a sequential fall into a leader closes the runtime block,
  /// aligning runtime boundaries with the analyzer's.  Aligned leaders below
  /// kLeaderBitmapSpan get one bit per 4-byte granule; the rest (unaligned
  /// or higher PCs, which no loaded task produces) go to an exact set.
  void add_leaders(std::uint32_t base, const std::vector<std::uint32_t>& offsets) {
    for (const std::uint32_t offset : offsets) {
      const std::uint32_t pc = base + offset;
      if ((pc & 3) != 0 || pc >= kLeaderBitmapSpan) {
        other_leaders_.insert(pc);
        continue;
      }
      const std::size_t word = pc >> kLeaderWordShift;
      if (word >= leader_bits_.size()) {
        leader_bits_.resize(word + 1, 0);
      }
      leader_bits_[word] |= std::uint64_t{1} << ((pc >> 2) & 63);
    }
  }

  /// Close the open block and fold the cached block and edge counters into
  /// the profile (idempotent).  Call before reading the profile.
  void flush();

  [[nodiscard]] const HeatProfile& profile() const { return *profile_; }

 private:
  /// Leader bitmap coverage: 16 MiB of address space, at most 512 KiB of
  /// bits, grown only as far as the highest registered leader.
  static constexpr std::uint32_t kLeaderBitmapSpan = 1u << 24;
  static constexpr unsigned kLeaderWordShift = 8;  ///< 64 granules of 4 bytes
  /// Block-counter cache size (power of two; indexed by start granule).
  static constexpr std::size_t kBlockSlots = 512;
  /// Edge-counter cache size (power of two; indexed by a hash of the pair).
  static constexpr std::size_t kEdgeSlots = 256;

  /// Counters of recently closed blocks, kept here so a block close touches
  /// no std::map; folded into profile_->blocks when the slot is taken by
  /// another start and on flush().
  struct BlockSlot {
    std::uint32_t start = 0;
    HeatProfile::Block counts;
  };
  /// The same for edges: folded into profile_->edges when another edge
  /// takes the slot and on flush().
  struct EdgeSlot {
    std::uint64_t key = 0;
    HeatProfile::Edge counts;
  };

  [[nodiscard]] bool is_leader(std::uint32_t pc) const {
    const std::size_t word = pc >> kLeaderWordShift;
    if ((pc & 3) == 0 && word < leader_bits_.size()) {
      return ((leader_bits_[word] >> ((pc >> 2) & 63)) & 1) != 0;
    }
    return !other_leaders_.empty() && other_leaders_.contains(pc);
  }

  /// One instruction at `pc`: it opens a block unless it follows the open
  /// block's last PC and is no leader.
  void enter(std::uint32_t pc) {
    if (!block_open_ || pc != last_pc_ + 4 || is_leader(pc)) {
      if (block_open_) {
        close_block();
      }
      block_start_ = pc;
      block_open_ = true;
      block_insns_ = 0;
    }
    last_pc_ = pc;
    ++block_insns_;
  }

  /// `n` >= 1 instructions at pc, pc + 4, ..., the first one following the
  /// open block's last PC (heat.cc).
  void follow(std::uint32_t pc, std::uint32_t n);

  void close_block() {
    BlockSlot& slot = block_slots_[(block_start_ >> 2) & (kBlockSlots - 1)];
    if (slot.start != block_start_) {
      fold(slot);
      slot.start = block_start_;
    }
    const std::uint32_t end = last_pc_ + 4;
    slot.counts.end = slot.counts.end < end ? end : slot.counts.end;
    ++slot.counts.entries;
    slot.counts.instructions += block_insns_;
  }

  /// Add a slot's counters to the profile's map and empty it (heat.cc: only
  /// on a slot collision and at flush(), so out of line).
  void fold(BlockSlot& slot);
  void fold(EdgeSlot& slot);

  HeatProfile* profile_;
  bool time_dispatch_;
  std::uint64_t dispatches_ = 0;
  bool block_open_ = false;
  std::uint32_t block_start_ = 0;
  std::uint32_t last_pc_ = 0;
  std::uint64_t block_insns_ = 0;
  std::vector<std::uint64_t> leader_bits_;
  std::unordered_set<std::uint32_t> other_leaders_;
  std::array<BlockSlot, kBlockSlots> block_slots_{};
  std::array<EdgeSlot, kEdgeSlots> edge_slots_{};
};

}  // namespace tytan::obs
