// Decoded basic-block cache for table-driven dispatch (ROADMAP item 1).
//
// The interpreter re-fetches, re-decodes, and re-runs the EA-MPU fetch walk
// for every instruction on every execution.  The decode cache trades that
// per-step work for a one-time *block build*: starting at a physical PC it
// pre-decodes straight-line code into DecodedOps — operands resolved, the
// per-opcode handler function pointer and base cycle cost pulled from the
// OpVariant table (src/sim/machine_ops.cc), the fetch-check classify() code
// and static-branch transfer verdicts memoized — and the machine then steps
// through the block with a cursor: one compare-and-copy instead of the full
// fetch→decode→check walk.
//
// Everything memoized is a pure function of (guest memory bytes, the EA-MPU
// configuration, the firmware registry), so the cache is correct
// exactly as long as it observes every change to those three inputs:
//
//   * policy configuration — EaMpu::config_epoch() (bumped by every
//     EaMpu::write_slot/clear_slot/add_exec_region/remove_exec_region and
//     table restore); live() compares epochs on the per-step fast path;
//   * guest code bytes — a PhysicalMemory write watch catches
//     self-modifying stores, loader copies, region wipes on unload, and
//     snapshot restores.  A code index (one bit per 4-byte granule any
//     cached block covers) turns a data store into a bit test, so a write
//     costs time in proportion to the cached code it touches; only a write
//     landing on a marked granule scans the blocks and erases exactly the
//     intersected ones;
//   * firmware registry / wholesale state changes — Machine invalidates
//     explicitly on register_firmware, set_policy, and restore_state, and
//     the task loader invalidates on load/unload (belt and braces: the
//     write watch and the policy epoch already cover those paths).
//
// The cache is HOST-ONLY state: it never appears in snapshots, contributes
// nothing to simulated cycles, and is rebuilt on demand after a restore —
// the bit-identical contract is that a cached-dispatch run and an
// interpreter run agree on every simulated quantity (registers, EIP, EFLAGS,
// cycles, instructions, the fault stream) at every step.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "isa/isa.h"
#include "sim/eampu.h"
#include "sim/memory.h"

namespace tytan::sim {

class Machine;
struct DecodedOp;

/// Memoized allows_transfer() verdict for transfers whose target is a pure
/// function of the instruction's PC (jmp/jz/../jnc/call).  kUnknown — the
/// interpreter's transient ops and register-indirect transfers — means "ask
/// the EA-MPU live".
enum class TransferMemo : std::uint8_t { kUnknown = 0, kAllowed, kDenied };

/// Per-opcode dispatch table entry (the sixfive-style variant record): the
/// handler the big interpreter switch is factored into, plus the base cycle
/// cost so cached dispatch skips the base_cycles() switch.
struct OpVariant {
  void (*exec)(Machine&, const DecodedOp&) = nullptr;
  std::uint8_t base_cycles = 0;
};

/// The 256-entry table indexed by the raw opcode byte.  Undefined opcodes
/// hold a null exec — they can never enter a block (decode rejects them) and
/// the interpreter faults before dispatch.  Defined in machine_ops.cc.
const std::array<OpVariant, 256>& op_table();

/// One pre-decoded instruction.  Handlers receive a reference into the
/// owning block; that is safe against a self-modifying store erasing the
/// very block it lives in because erased blocks are graveyarded (freed only
/// between instructions), never destroyed mid-dispatch.
struct DecodedOp {
  isa::Instruction instr{};
  std::uint32_t pc = 0;
  std::uint32_t word = 0;  ///< raw encoding (tracer replay)
  void (*exec)(Machine&, const DecodedOp&) = nullptr;
  std::uint8_t base_cycles = 0;
  TransferMemo transfer = TransferMemo::kUnknown;
  /// Memoized policy->classify(pc, pc, kExecute) — replayed into the heat
  /// recorder's MPU counters so observatory profiles are identical across
  /// dispatch modes.  kCheckNoPolicy when built without a policy.
  int fetch_class = kCheckNoPolicy;
};

class DecodeCache final : public WriteWatcher {
 public:
  /// Block length cap: bounds build latency and the granules one insert
  /// marks in the code index.
  static constexpr std::size_t kMaxBlockOps = 128;
  /// Block count cap: a runaway-SMC workload cannot grow the cache without
  /// bound; hitting the cap drops everything and starts over.
  static constexpr std::size_t kMaxBlocks = 4096;

  struct Block {
    std::uint32_t start = 0;
    std::uint32_t end = 0;  ///< exclusive: start + 4 * ops.size()
    std::vector<DecodedOp> ops;
  };

  struct Stats {
    std::uint64_t hits = 0;          ///< block lookups served from the cache
    std::uint64_t builds = 0;        ///< blocks decoded and inserted
    std::uint64_t invalidations = 0; ///< invalidate_all() calls
    std::uint64_t code_writes = 0;   ///< watched writes that erased blocks
  };

  /// Bind to the memory whose writes must be observed.  The cache registers
  /// its watch lazily (on insert, dropped again by invalidate_all) and must
  /// be destroyed or detached before the memory (Machine declares it after
  /// memory_).
  void attach(PhysicalMemory* memory) { memory_ = memory; }
  void detach() {
    if (memory_ != nullptr) {
      memory_->clear_write_watch();
      memory_ = nullptr;
    }
  }
  ~DecodeCache() override { detach(); }

  /// Fast-path liveness: the caller's cursor generation still matches and
  /// the policy configuration is the one the blocks were built under.
  [[nodiscard]] bool live(std::uint64_t gen, const EaMpu* policy) const {
    return gen == generation_ && policy == policy_ &&
           (policy == nullptr || policy->config_epoch() == policy_epoch_);
  }

  /// Slow-path entry: drop everything if the policy pointer or its
  /// configuration epoch moved since the cache was last (re)built.
  void sync_policy(const EaMpu* policy) {
    const std::uint64_t epoch = policy == nullptr ? 0 : policy->config_epoch();
    if (policy != policy_ || epoch != policy_epoch_) {
      invalidate_all();
      policy_ = policy;
      policy_epoch_ = epoch;
    }
  }

  [[nodiscard]] const Block* find(std::uint32_t pc) {
    collect();  // between instructions by construction — see graveyard_
    const auto it = blocks_.find(pc);
    if (it == blocks_.end()) {
      return nullptr;
    }
    ++stats_.hits;
    return it->second.get();
  }

  /// A block activation served from the Machine's block-head LUT instead of
  /// the hash map — still a cache hit for accounting purposes.
  void note_fast_hit() { ++stats_.hits; }

  /// Insert a freshly built block (keyed by its start PC, replacing any
  /// previous block there) and mark its granules in the code index.
  const Block* insert(Block block);

  /// Drop every block and bump the generation (cursors die).
  void invalidate_all();

  /// WriteWatcher: erase every block whose [start, end) intersects the
  /// written range.  Returns after a bit test unless the range touches a
  /// marked granule.
  void on_watched_write(std::uint32_t addr, std::uint32_t len) override;

  /// Cursor guard: any structural change (invalidate_all or a block erase)
  /// bumps this, so a Machine cursor never dereferences a dead block.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// Code-index granule: 4 bytes, so a data word sharing a line with code
  /// still skips the block scan.
  static constexpr unsigned kGranuleShift = 2;
  static constexpr std::size_t kGranulesPerWord = 64;
  static constexpr std::size_t kBytesPerWord = kGranulesPerWord << kGranuleShift;

  /// Visit the index words holding the granules of [addr, addr + len),
  /// len > 0, as (word, mask of those granules' bits); stop once `fn`
  /// returns true.  Returns whether it stopped early.
  template <typename Fn>
  bool for_each_granule_word(std::uint32_t addr, std::uint32_t len, Fn fn);

  /// Free deferred blocks.  Only called from find()/insert(), which the
  /// Machine only reaches between instructions — never while a DecodedOp
  /// reference into a block is live.
  void collect() {
    if (!graveyard_.empty()) {
      graveyard_.clear();
    }
  }

  // unique_ptr values keep Block* stable across rehash and foreign erases;
  // the generation guard covers erases of the pointed-to block itself.
  std::unordered_map<std::uint32_t, std::unique_ptr<Block>> blocks_;
  // Invalidated blocks are moved here instead of destroyed: an invalidation
  // can fire mid-instruction (a self-modifying store erasing its own block)
  // while the dispatch fast paths hold a *reference* into the block.  The
  // generation bump keeps dead blocks unreachable; collect() frees them at
  // the next safe point.
  std::vector<std::unique_ptr<Block>> graveyard_;
  PhysicalMemory* memory_ = nullptr;
  const EaMpu* policy_ = nullptr;
  std::uint64_t policy_epoch_ = 0;
  std::uint64_t generation_ = 1;
  // Code index: bit g is set while some cached block covers granule g, and
  // stays set after an erase until invalidate_all.  Such a stale bit is
  // safe: a write on it costs one block scan that erases nothing.  Sized to
  // the whole memory at the first insert.
  std::vector<std::uint64_t> code_bits_;
  // Union span of the blocks inserted since the last invalidate_all: the
  // memory's watch range (writes outside it cost two compares and no call)
  // and the only index words invalidate_all has to clear.
  std::uint32_t span_lo_ = 0;
  std::uint32_t span_hi_ = 0;
  Stats stats_;
};

}  // namespace tytan::sim
