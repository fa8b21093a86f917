// Deterministic, seed-driven fault injection (TyTAN §3–§5 adversity model).
//
// A FaultPlan is parsed from a compact spec string:
//
//   plan    := clause (';' clause)*
//   clause  := class ('@' trigger)? (':' target)? (',' key '=' value)*
//   trigger := 'load' | 'load#N' | 'attest#N' | 'cycle=N'
//
// Examples (one per fault class):
//
//   tbf-bitflip@load:task2          flip one bit of task2's image at load
//   storage-corrupt@cycle=10000:slot3   corrupt slot 3's sealed bytes once
//                                       the clock reaches cycle 10000
//   nonce-replay@attest#2           replay the previous nonce on the 2nd
//                                   attestation round
//   ipc-drop:pct=5                  drop ~5% of proxied IPC messages
//   task-stall:sensor               wedge task "sensor" until the watchdog
//                                   restarts it
//
// The FaultEngine consumes a plan plus a seed and answers yes/no (or a bit
// index) at each hook site.  All randomness comes from a SplitMix64 stream
// seeded from the plan, so a given (plan, seed) fires identically on every
// run and on every thread count.  Every class except ipc-drop fires exactly
// once per spec; ipc-drop is rate-based with an optional `count=` cap.
//
// The engine never touches simulated state itself — hook sites in the
// loader, secure storage, fleet challenger, IPC proxy and scheduler ask it
// for a decision and apply (and recover from) the fault locally.  When no
// engine is installed the hooks are a single null-pointer compare, so the
// paper tables are untouched (pinned by bench_fault).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "snap/snapshot.h"

namespace tytan::fault {

enum class FaultClass : std::uint8_t {
  kTbfBitflip = 0,   ///< flip a bit of a task image between read and load
  kStorageCorrupt,   ///< flip a bit of a sealed blob's persisted bytes
  kNonceReplay,      ///< re-send a consumed attestation challenge
  kIpcDrop,          ///< drop a proxied IPC message
  kTaskStall,        ///< wedge a task until the watchdog intervenes
  kNumClasses,
};

[[nodiscard]] std::string_view fault_class_name(FaultClass cls);

/// How a hook site recovered from an injected fault (event payloads, docs).
enum class RecoveryKind : std::uint8_t {
  kQuarantine = 0,  ///< loader rejected + quarantined a corrupt binary
  kPoisonMarked,    ///< storage marked a blob poisoned, re-store cleared it
  kAttestRetry,     ///< challenger re-attested after bounded backoff
  kTaskRestart,     ///< watchdog restarted a stalled task
};

/// One parsed clause of a fault plan.
struct FaultSpec {
  FaultClass cls = FaultClass::kNumClasses;
  std::string target;          ///< task name (tbf-bitflip, task-stall)
  std::uint32_t slot = 0;      ///< storage-corrupt slot id
  bool has_slot = false;
  std::uint64_t at_cycle = 0;  ///< earliest cycle the clause may fire
  std::uint64_t at_count = 0;  ///< load#N / attest#N (1-based, 0 = first)
  std::uint32_t pct = 0;       ///< ipc-drop probability, percent
  std::uint64_t max_fires = 1; ///< ipc-drop only: 0 = unlimited
  std::int64_t bit = -1;       ///< explicit bit index; -1 = seeded choice

  [[nodiscard]] std::string to_string() const;
};

/// A validated set of fault clauses plus the RNG seed for the engine.
struct FaultPlan {
  std::vector<FaultSpec> specs;
  std::uint64_t seed = 0x7479'7466'6c74ull;  // "tytflt"

  [[nodiscard]] bool empty() const { return specs.empty(); }

  /// Parse a plan spec.  Unknown classes, malformed triggers, out-of-range
  /// numbers and class/trigger mismatches are kInvalidArgument with a
  /// message naming the offending clause.
  static Result<FaultPlan> parse(std::string_view text);
};

/// Decides, deterministically, whether each hook site fires.  One engine per
/// simulated device; not thread-safe (a device is only ever driven by one
/// worker at a time, same as the Machine it instruments).
class FaultEngine {
 public:
  explicit FaultEngine(FaultPlan plan);

  /// TBF loader hook: called once per begin_load with the task name and
  /// image size.  Returns the bit index to flip, or -1 for no fault.
  std::int64_t on_load(std::string_view task_name, std::size_t image_bytes);

  /// Secure-storage hook: called on each load() with the slot, current
  /// cycle and sealed-blob length.  Returns a bit index into the persisted
  /// sealed bytes, or -1.
  std::int64_t on_storage_access(std::uint32_t slot, std::uint64_t cycle,
                                 std::size_t blob_bytes);

  /// Attestation hook: called with the 1-based attestation round index.
  /// True means the caller should replay its previous nonce.
  bool on_attest(std::uint64_t attest_index);

  /// IPC proxy hook: called once per proxied message.  True means drop it.
  bool on_ipc_message();

  /// Scheduler hook: called when `task_name` is about to be dispatched.
  /// True means wedge the task (the kernel blocks it as kStalled).
  bool on_task_dispatch(std::string_view task_name, std::uint64_t cycle);

  /// Recovery paths report back so telemetry can pair every injection with
  /// its recovery.
  void note_recovery(FaultClass cls);

  [[nodiscard]] std::uint64_t injected(FaultClass cls) const;
  [[nodiscard]] std::uint64_t recovered(FaultClass cls) const;
  [[nodiscard]] std::uint64_t injected_total() const;
  [[nodiscard]] std::uint64_t recovered_total() const;
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Walk the engine's determinism cursors (per-spec fire counts, RNG stream
  /// position, load counter, injection/recovery tallies; snap::Io).  The
  /// plan itself is configuration and travels in the snapshot's CONF
  /// section; a restore checks only that the spec count matches.
  Status state(snap::Io& io);

 private:
  /// Next value of the SplitMix64 stream.
  std::uint64_t next_rand();
  /// Marks spec `i` as having fired and bumps the class counter.
  void record_fire(std::size_t i);

  FaultPlan plan_;
  std::vector<std::uint64_t> fires_;  ///< per-spec fire counts
  std::uint64_t rng_state_;
  std::uint64_t load_count_ = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(FaultClass::kNumClasses)>
      injected_{};
  std::array<std::uint64_t, static_cast<std::size_t>(FaultClass::kNumClasses)>
      recovered_{};
};

}  // namespace tytan::fault
