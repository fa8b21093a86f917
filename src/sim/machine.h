// The simulated platform: physical memory, MMIO bus, CPU interpreter,
// exception engine with IDT, cycle clock, and trusted-firmware dispatch.
//
// Trusted software components (Int Mux, IPC proxy, RTM, EA-MPU driver, OS
// kernel entry points) are *firmware handlers*: host functions registered at
// fixed addresses inside the trusted firmware windows.  When EIP reaches a
// registered address the machine invokes the handler instead of interpreting
// guest code.  Handlers charge cycles explicitly through the CostModel and
// perform memory accesses through the fw_* accessors, which are checked
// against the EA-MPU under the handler's execution identity — so the same
// access-control matrix governs guest code and trusted components.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "common/log.h"
#include "common/status.h"
#include "obs/heat.h"
#include "obs/hub.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/decode_cache.h"
#include "sim/device.h"
#include "sim/eampu.h"
#include "sim/memory.h"
#include "sim/tracer.h"

namespace tytan::fault {
class FaultEngine;
}  // namespace tytan::fault

namespace tytan::sim {

class Machine;

/// Host implementation of a trusted software component entry point.  The
/// handler must either advance cpu().eip (branch somewhere) or leave it at
/// its own address to be re-invoked next step (resumable firmware tasks —
/// this is how the RTM stays interruptible).
using FirmwareHandler = std::function<void(Machine&)>;

enum class StepOutcome : std::uint8_t {
  kOk = 0,        ///< executed one instruction / firmware quantum / dispatch
  kHalted,        ///< machine is halted
};

/// How guest instructions are dispatched.  Both modes produce bit-identical
/// simulated state (registers, EIP, EFLAGS, cycles, instructions, faults) at
/// every step — tests/test_dispatch.cc runs them in lockstep — only the host
/// cost differs.
enum class DispatchMode : std::uint8_t {
  kInterpreter = 0,  ///< fetch → decode → check → dispatch, every step
  kCached,           ///< decoded basic-block cache + table-driven dispatch
};

/// The one seam through which a Machine reports execution: the trace ring
/// and/or the heat recorder, behind the one pointer every hook site tests
/// (null while neither is on).  Both dispatch modes report the same events
/// with the same arguments, so the ring and the profile match across modes.
/// Heat's per-dispatch half is Machine::dispatch_observed, the modes' one
/// body — except in chained runs with heat alone on, which count the fetch
/// check and the opcode per op and hand the recorder whole segments.
class Observer {
 public:
  explicit Observer(const std::function<std::int32_t()>& task) : task_(task) {}

  /// Every fetch attempt, denied ones included, before any fault it raises
  /// (bar the ops of heat-only chained runs; see run_chained).
  /// `code` is the fetch check's classify() code (memoized by cached ops);
  /// `word` is nullopt when the fetch leaves plain memory.
  void fetch(std::uint64_t cycle, std::uint32_t pc, std::optional<std::uint32_t> word,
             int code) {
    check(Access::kExecute, code);
    if (tracer != nullptr && word) {
      tracer->record(cycle, pc, *word, {}, task(),
                     code == kCheckNoPolicy ? Tracer::kVerdictNone
                     : code == kCheckDenied ? Tracer::kVerdictDenied
                                            : Tracer::kVerdictAllowed);
    }
  }
  /// A step into the firmware handler `name` at `pc`.
  void firmware(std::uint64_t cycle, std::uint32_t pc, const std::string& name) {
    if (tracer != nullptr) {
      tracer->record(cycle, pc, 0, name, task());
    }
  }
  /// `n` checks of `access` with the same classify() `code`.
  void check(Access access, int code, std::uint64_t n = 1) {
    if (heat != nullptr) {
      heat->count_check(static_cast<int>(access), code, n);
    }
  }
  /// An indirect transfer (jmpr/callr), before it is attempted.
  void edge(std::uint32_t site, std::uint32_t target, bool is_call) {
    if (heat != nullptr) {
      heat->record_edge(site, target, is_call);
    }
  }

  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<obs::HeatRecorder> heat;

 private:
  [[nodiscard]] std::int32_t task() const { return task_ ? task_() : -1; }
  const std::function<std::int32_t()>& task_;  ///< Machine::set_task_context's
};

class Machine {
 public:
  /// `log` may be nullptr, meaning the process-default context.  Machines
  /// built by a fleet get a per-platform context so concurrent devices never
  /// share mutable log state.
  explicit Machine(CostModel costs = {}, const LogContext* log = nullptr);

  // The obs hub's clock and the firmware handlers' captured references are
  // wired to this object once, in the constructor — a Machine never moves.
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;
  Machine(Machine&&) = delete;
  Machine& operator=(Machine&&) = delete;

  // -- component access -------------------------------------------------------
  [[nodiscard]] PhysicalMemory& memory() { return memory_; }
  [[nodiscard]] const PhysicalMemory& memory() const { return memory_; }
  [[nodiscard]] CpuState& cpu() { return cpu_; }
  [[nodiscard]] const CpuState& cpu() const { return cpu_; }
  [[nodiscard]] MmioBus& bus() { return bus_; }

  /// Latch every device's time to what the classic every-instruction tick
  /// regime would show — call before serializing device state.  No-op when
  /// no step has run since the last flush or restore, so save → restore →
  /// save round trips stay byte-identical.
  void flush_device_time() {
    if (device_time_dirty_) {
      bus_.tick_all(step_top_cycles_);
      device_time_dirty_ = false;
    }
  }
  [[nodiscard]] const CostModel& costs() const { return costs_; }

  /// Install the EA-MPU.  Non-owning; may be nullptr (pre-secure-boot:
  /// everything allowed).  Drops the decode cache — cached fetch, data and
  /// transfer verdicts were issued under the previous configuration.
  void set_policy(const EaMpu* policy) {
    policy_ = policy;
    invalidate_decode_cache();
  }
  [[nodiscard]] const EaMpu* policy() const { return policy_; }

  // -- dispatch mode -----------------------------------------------------------
  /// Default is kCached; kInterpreter is the reference implementation the
  /// differential tests and the bench A/B compare against.
  void set_dispatch_mode(DispatchMode mode) {
    dispatch_ = mode;
    cur_block_ = nullptr;
  }
  [[nodiscard]] DispatchMode dispatch_mode() const { return dispatch_; }

  /// Host-only decode-cache state (stats, block count) — never snapshotted.
  [[nodiscard]] const DecodeCache& decode_cache() const { return dcache_; }
  /// Drop every cached block (task load/unload, firmware changes, restores).
  void invalidate_decode_cache() {
    dcache_.invalidate_all();
    cur_block_ = nullptr;
  }

  // -- clock -------------------------------------------------------------------
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  void charge(std::uint64_t c) { cycles_ += c; }

  // -- interrupt lines ----------------------------------------------------------
  void raise_irq(std::uint8_t vector);
  [[nodiscard]] bool irq_pending() const { return pending_ != 0; }

  /// Hardware latches set by the exception engine at dispatch: the EIP the
  /// interrupt originated from (the IPC proxy derives the *sender identity*
  /// from this, paper §4) and the dispatched vector.
  [[nodiscard]] std::uint32_t int_origin_eip() const { return int_origin_eip_; }
  [[nodiscard]] std::uint8_t int_vector() const { return int_vector_; }

  /// Raise `vector` synchronously (used by the INT instruction and tests).
  /// Returns true when control actually reached the handler; false when the
  /// dispatch failed (no IDT entry, or a stack fault while pushing the
  /// EFLAGS/EIP frame) — in that case the interrupt latches are NOT updated,
  /// so the IPC proxy never authenticates a sender from a failed dispatch.
  bool dispatch_interrupt(std::uint8_t vector, std::uint32_t origin_eip,
                          std::uint32_t return_eip);

  // -- faults -------------------------------------------------------------------
  void raise_fault(const FaultInfo& fault);
  /// Record a fault without dispatching (used by firmware that routes to the
  /// fault handler itself and must not recurse through the IDT).
  void record_fault(const FaultInfo& fault);
  [[nodiscard]] const FaultInfo& last_fault() const { return last_fault_; }
  [[nodiscard]] std::uint64_t fault_count() const { return fault_count_; }

  // -- firmware ----------------------------------------------------------------
  void register_firmware(std::uint32_t addr, std::string name, FirmwareHandler handler);
  [[nodiscard]] bool is_firmware(std::uint32_t addr) const {
    return firmware_.contains(addr);
  }

  /// Policy-checked accessors for firmware handlers.  `exec_ip` is the
  /// handler's execution identity (its firmware window address).  These do
  /// NOT charge cycles — handlers charge calibrated primitive costs instead.
  /// Every result must be acted on: a denied write is reported, never
  /// half-applied silently.
  [[nodiscard]] Result<std::uint32_t> fw_read32(std::uint32_t exec_ip, std::uint32_t addr);
  [[nodiscard]] Status fw_write32(std::uint32_t exec_ip, std::uint32_t addr,
                                  std::uint32_t value);
  [[nodiscard]] Result<std::uint8_t> fw_read8(std::uint32_t exec_ip, std::uint32_t addr);
  [[nodiscard]] Status fw_write8(std::uint32_t exec_ip, std::uint32_t addr, std::uint8_t value);

  /// Block forms for handlers that move whole records: the elements of
  /// `width` bytes (1 or 4; words little-endian) that make up `bytes`, at
  /// addr, addr + width, ... — exactly the fw_read8/fw_read32 or
  /// fw_write8/fw_write32 loop in address order.  Both stop at the first
  /// failure and return its status, leaving the prefix read or written;
  /// *done (if given) gets the elements done.  Verdicts, heat counters,
  /// cycles and memory come out exactly as from the loop; in plain RAM the
  /// EA-MPU is walked once per verdict span (check_run) and the granted
  /// prefix moves in one copy — one write-watch notice, so the decode cache
  /// drops the same blocks.  Ranges that touch MMIO or leave memory run the
  /// per-element loop itself.
  [[nodiscard]] Status fw_read_block(std::uint32_t exec_ip, std::uint32_t addr,
                                     std::span<std::uint8_t> bytes, std::uint32_t width,
                                     std::uint32_t* done = nullptr);
  [[nodiscard]] Status fw_write_block(std::uint32_t exec_ip, std::uint32_t addr,
                                      std::span<const std::uint8_t> bytes, std::uint32_t width,
                                      std::uint32_t* done = nullptr);

  // -- execution ----------------------------------------------------------------
  StepOutcome step();

  /// Run until halt or until the cycle clock reaches `cycle_limit`.  For the
  /// duration of the call the limit bounds the run horizon that
  /// fast_forward_spin() may skip to; step() alone never has one.  In
  /// kCached mode, cached ops run back to back while every step top would
  /// only dispatch the next one (run_chained); the simulated state is the
  /// same as stepping to the limit.
  HaltReason run(std::uint64_t cycle_limit);

  /// Closed-form repetition of a constant-cost firmware pass.  A handler
  /// calls this right after charging one `pass_cycles` pass that changed
  /// nothing else (the idle task).  Inside run(), the pass is repeated k
  /// more times, where k lands cycles() on the first pass top at or after
  /// the run horizon min(run limit, next device tick) — the same top at
  /// which stepping would take the next timer IRQ or leave run().  Adds
  /// k·pass_cycles to the clock and k to firmware_invocations(), leaves the
  /// device latch at the last pass's step top, and returns k.  Returns 0
  /// without skipping outside run(), in kInterpreter mode (the stepping
  /// reference), with the tracer on (it records every pass), with an IRQ
  /// pending or IF clear, after a bus timing-epoch change, or at the horizon.
  std::uint64_t fast_forward_spin(std::uint64_t pass_cycles);

  [[nodiscard]] bool halted() const { return halt_reason_ != HaltReason::kNone; }
  [[nodiscard]] HaltReason halt_reason() const { return halt_reason_; }
  void clear_halt() { halt_reason_ = HaltReason::kNone; }
  void halt(HaltReason reason) { halt_reason_ = reason; }

  // -- instrumentation -----------------------------------------------------------
  [[nodiscard]] std::uint64_t instructions_executed() const { return instructions_; }
  [[nodiscard]] std::uint64_t interrupts_dispatched() const { return interrupts_; }
  [[nodiscard]] std::uint64_t firmware_invocations() const { return fw_invocations_; }

  /// Enable (capacity > 0) or disable (capacity == 0) instruction tracing
  /// into a ring buffer; useful for post-mortem fault analysis.
  void enable_trace(std::size_t capacity);
  [[nodiscard]] Tracer* tracer() { return observer_ ? observer_->tracer.get() : nullptr; }

  /// Enable the execution observatory (obs/heat.h): per-block heat counters,
  /// per-opcode dispatch histograms with batched host-ns attribution, EA-MPU
  /// check counters split by granting rule, and indirect-branch edge
  /// profiles, recorded into the obs metrics registry's "machine" heat
  /// profile.  Never charges simulated cycles — cycle counts stay
  /// bit-identical with the observatory on; disabled (the default) every
  /// hook is a single null-pointer check.  `time_dispatch` false skips the
  /// host-clock sampling so the recorded profile is a deterministic function
  /// of the simulated execution (the mode fleet devices use).
  void enable_heat(bool time_dispatch = true);
  void disable_heat();
  [[nodiscard]] obs::HeatRecorder* heat() { return observer_ ? observer_->heat.get() : nullptr; }
  [[nodiscard]] const obs::HeatRecorder* heat() const {
    return observer_ ? observer_->heat.get() : nullptr;
  }

  /// Structured observability (event bus + metrics + per-task accounting).
  /// Disabled by default; never charges simulated cycles.  The clock is
  /// wired once in the constructor (Machine is non-movable).
  [[nodiscard]] obs::Hub& obs() { return obs_; }
  [[nodiscard]] const obs::Hub& obs() const { return obs_; }

  /// The log context this machine (and every component built on it) emits
  /// through.  Defaults to the process-wide context.
  [[nodiscard]] const LogContext& log() const { return *log_; }

  /// Source of the current rtos task handle, wired by the platform so the
  /// tracer can stamp entries with the running task (-1 when unknown).  Only
  /// consulted while tracing is enabled.
  void set_task_context(std::function<std::int32_t()> provider) {
    task_context_ = std::move(provider);
  }

  /// Optional fault-injection engine (non-owning: Platform owns it, hook
  /// sites only consult it).  Null — the default — means every hook is one
  /// pointer compare.
  void set_fault_engine(fault::FaultEngine* engine) { faults_ = engine; }
  [[nodiscard]] fault::FaultEngine* faults() const { return faults_; }

  /// IDT entry for `vector` (raw read, as the exception engine sees it).
  [[nodiscard]] std::uint32_t idt_entry(std::uint8_t vector) const;
  /// Install an IDT entry (raw write; used by secure boot before the EA-MPU
  /// locks the table).
  void set_idt_entry(std::uint8_t vector, std::uint32_t handler);

  // -- snapshots ---------------------------------------------------------------
  /// Walk the machine's core execution state (snap::Io): CPU registers,
  /// cycle clock, interrupt and fault latches, halt reason, instruction
  /// counters.  Physical memory, devices, and the tracer are separate snapshot
  /// sections; firmware registrations, hooks, and obs state are wiring or
  /// host-only and deliberately excluded.
  Status state(snap::Io& io);
  /// The head of that walk: CPU registers, EIP, EFLAGS, then the cycle
  /// clock.  state() starts with it; Platform::snapshot_cycle walks it
  /// alone to read a snapshot's cycle.
  static void cpu_and_clock(snap::Io& io, CpuState& cpu, std::uint64_t& cycles);

 private:
  // The per-opcode handlers (machine_ops.cc) are the interpreter switch
  // bodies factored into the OpVariant table; they need the same access the
  // switch had.
  friend struct MachineOps;

  [[nodiscard]] std::int32_t current_task_context() const {
    return task_context_ ? task_context_() : -1;
  }
  /// The EA-MPU's classify() code for one access (kCheckNoPolicy pre-boot).
  [[nodiscard]] int classify(std::uint32_t exec_ip, std::uint32_t addr, Access access) const {
    return policy_ == nullptr ? kCheckNoPolicy : policy_->classify(exec_ip, addr, access);
  }
  /// Install or drop (null `value`) one part of the observer.  The observer
  /// exists only while a part is on.
  template <typename Part>
  void observe(std::unique_ptr<Part> Observer::*part, std::unique_ptr<Part> value);
  /// classify() as a verdict, reported to the observer's check hook.
  [[nodiscard]] bool check(std::uint32_t exec_ip, std::uint32_t addr, Access access) const;
  /// check() for the `count` accesses at addr, addr + stride, ... in order:
  /// the number granted before the first denial (counted into heat like a
  /// single check), or `count`.  One classify_span() walk per verdict span;
  /// heat counts each span's accesses at once.  The accesses must not wrap
  /// past 2^32.
  [[nodiscard]] std::uint32_t check_run(std::uint32_t exec_ip, std::uint32_t addr,
                                        std::uint32_t count, std::uint32_t stride,
                                        Access access) const;
  /// The one body of the fw_* accessors: check(), then `raw` (a raw_*
  /// call); the denial or bus error as a status.
  template <typename RawAccess>
  Status fw_access(std::uint32_t exec_ip, std::uint32_t addr, Access access, RawAccess raw);
  /// The one body behind fw_read_block (Byte = uint8_t) and fw_write_block
  /// (Byte = const uint8_t).
  template <typename Byte>
  Status fw_block(std::uint32_t exec_ip, std::uint32_t addr, std::span<Byte> bytes,
                  std::uint32_t width, std::uint32_t* done);
  [[nodiscard]] bool is_mmio(std::uint32_t addr) const {
    return addr >= kMmioBase && addr < kMmioBase + kMmioSize;
  }
  /// [addr, addr + len) lies in memory below the MMIO window.
  [[nodiscard]] bool is_plain_ram(std::uint32_t addr, std::uint32_t len) const {
    return memory_.in_bounds(addr, len) && addr + len <= kMmioBase;
  }

  /// The device at word-aligned MMIO `addr`, charged one bus access and
  /// latched to the step top; null (a bus error) when there is none.
  Device* mmio_device(std::uint32_t addr);
  /// Raw access with MMIO dispatch; returns false on bus error.
  bool raw_read32(std::uint32_t addr, std::uint32_t* out);
  bool raw_write32(std::uint32_t addr, std::uint32_t value);
  bool raw_read8(std::uint32_t addr, std::uint8_t* out);
  bool raw_write8(std::uint32_t addr, std::uint8_t value);

  void dispatch_pending();
  void execute_one();
  /// Dispatch one decoded instruction through its OpVariant handler (the
  /// former opcode switch, factored into machine_ops.cc).  Split out of
  /// execute_one so the heat recorder can host-time a sampled dispatch
  /// without touching the interpreter body.  Both dispatch modes funnel
  /// through this — a single implementation per opcode cannot diverge.
  void execute_op(const DecodedOp& op);
  /// The observed-dispatch body both dispatch modes share: charge the op's
  /// base cycles, count it, feed the heat recorder, host-time the sampled
  /// dispatch, and run execute_op.  With heat off it adds only the test of
  /// the observer pointer (and of its heat part when the tracer is on).
  /// Forced inline (defined in machine.cc, its only user) so sharing the
  /// body adds no call on the per-instruction path.
  [[gnu::always_inline]] inline void dispatch_observed(const DecodedOp& op);
  /// execute_op, host-timed into `recorder` (a sampled dispatch).
  void execute_timed(const DecodedOp& op, obs::HeatRecorder& recorder);

  /// The cached fast paths' lookup, shared by step() and run_chained(): the
  /// cursor's next op when it is live and sits at EIP, else the head of the
  /// live block the LUT remembers at EIP, with the cursor moved past the
  /// returned op.  nullptr when neither hits (firmware, the slow path).
  const DecodedOp* next_cached_op();
  /// What run_chained reports, chosen by run() at each entry: nothing (no
  /// observer), heat alone (per op the opcode and execute-check counts, per
  /// segment one HeatRecorder::on_segment), or the tracer (per op the fetch
  /// hook and dispatch_observed, heat included when on).
  enum class Watch : std::uint8_t { kNone, kHeat, kTrace };
  /// Run cached ops back to back from the current state for as long as
  /// step() would do nothing else at their step tops: not halted, no IRQ
  /// both pending and enabled, no bus timing-epoch change, the clock below
  /// min(limit, next device tick), and next_cached_op() hits.  A quiet run
  /// whose cycle sum stays below that horizon runs with no per-op test.
  /// Returns at the first step top that needs step().  One body for every
  /// `kWatch`, so the unobserved loop tests no observer per op.
  template <Watch kWatch>
  void run_chained(std::uint64_t limit);

  // Cached-dispatch slow path: sync the cache with the policy epoch, look up
  // or build the block at EIP, park the cursor, and run its first op.
  // Returns false when the head is uncacheable (fault, MMIO, firmware) and
  // the interpreter path must handle this step.
  bool execute_one_cached();
  /// The fetch hook with the op's memoized verdict, then dispatch_observed,
  /// for one cached op (the per-step body shared by fast and slow paths).
  void run_cached_op(const DecodedOp& op);
  /// Decode straight-line code starting at `pc` into a block; empty when the
  /// head instruction cannot be cached.
  DecodeCache::Block build_block(std::uint32_t pc) const;

  /// `op`'s data-access verdict on `addr`, under op.pc's identity: replayed
  /// from the op's memo when the memo covers `addr`, else one
  /// classify_span() walk that refills it.  Transient interpreter ops go
  /// through check() and memoize nothing.  Heat counts every check either
  /// way.
  bool check_data(const DecodedOp& op, std::uint32_t addr, Access access);
  /// Same for `op`'s control transfer to `target` (allows_transfer_span).
  bool transfer_allowed(const DecodedOp& op, std::uint32_t target);

  // Guest-side memory helpers for the op executing now: checked under its
  // PC; on violation, raise the fault at that PC and return false.
  // guest_access is their shared body: check_data, charge the access, run
  // `raw` (a raw_* call), and raise kMpuData / kBusError on failure.
  template <typename RawAccess>
  bool guest_access(const DecodedOp& op, std::uint32_t addr, Access access, RawAccess raw);
  bool guest_read32(const DecodedOp& op, std::uint32_t addr, std::uint32_t* out);
  bool guest_write32(const DecodedOp& op, std::uint32_t addr, std::uint32_t value);
  bool guest_read8(const DecodedOp& op, std::uint32_t addr, std::uint8_t* out);
  bool guest_write8(const DecodedOp& op, std::uint32_t addr, std::uint8_t value);
  bool guest_push32(const DecodedOp& op, std::uint32_t value);
  bool guest_pop32(const DecodedOp& op, std::uint32_t* out);
  bool guest_transfer(const DecodedOp& op, std::uint32_t target);

  // Inline: every ALU handler calls one of these, so they sit on the
  // per-instruction hot path of both dispatch modes.
  void set_alu_flags_logic(std::uint32_t result) {
    cpu_.set_flag(isa::kFlagZ, result == 0);
    cpu_.set_flag(isa::kFlagN, (result >> 31) != 0);
  }
  void set_alu_flags_addsub(std::uint64_t wide, std::uint32_t a, std::uint32_t b,
                            std::uint32_t result, bool is_sub) {
    cpu_.set_flag(isa::kFlagZ, result == 0);
    cpu_.set_flag(isa::kFlagN, (result >> 31) != 0);
    cpu_.set_flag(isa::kFlagC, (wide >> 32) != 0);
    const bool sa = (a >> 31) != 0;
    const bool sb = (b >> 31) != 0;
    const bool sr = (result >> 31) != 0;
    const bool overflow = is_sub ? (sa != sb && sr != sa) : (sa == sb && sr != sa);
    cpu_.set_flag(isa::kFlagV, overflow);
  }

  PhysicalMemory memory_;
  MmioBus bus_;
  CpuState cpu_;
  CostModel costs_;
  const EaMpu* policy_ = nullptr;

  std::uint64_t cycles_ = 0;
  // Event-driven device time (host-only scheduling state; never snapshotted
  // — the observable device state it manages is bit-identical to the classic
  // every-instruction tick regime).  next_device_tick_ = 0 forces a tick on
  // the first step; device_timing_epoch_ starts mismatched for the same
  // reason.  step_top_cycles_ is the cycle count at the top of the current
  // (or last) step — the `now` every lazy latch must deliver.
  std::uint64_t next_device_tick_ = 0;
  std::uint64_t device_timing_epoch_ = 0;
  std::uint64_t step_top_cycles_ = 0;
  bool device_time_dirty_ = false;  ///< steps ran since the last flush/restore
  // run()'s cycle limit while a run() call is active, 0 otherwise (a zero
  // limit runs nothing).  Host-transient: never snapshotted.
  std::uint64_t run_limit_ = 0;
  std::uint64_t pending_ = 0;  ///< bitmask over 64 vectors; bit i = vector i
  std::uint32_t int_origin_eip_ = 0;
  std::uint8_t int_vector_ = 0;

  FaultInfo last_fault_;
  std::uint64_t fault_count_ = 0;
  bool in_fault_dispatch_ = false;
  /// True when the most recent raise_fault() redirected EIP into the fault
  /// handler.  Load/store/push/pop recovery consults this instead of
  /// comparing EIP against `next` — an address-based guess that broke when
  /// the handler happened to live at `next`.  Consumed within the same
  /// instruction; host-transient, not snapshot state.
  bool fault_eip_redirected_ = false;
  HaltReason halt_reason_ = HaltReason::kNone;

  struct FirmwareEntry {
    std::string name;
    FirmwareHandler handler;
  };
  std::map<std::uint32_t, FirmwareEntry> firmware_;

  std::uint64_t instructions_ = 0;
  std::uint64_t interrupts_ = 0;
  std::uint64_t fw_invocations_ = 0;

  // Decode cache + cursor (host-only; excluded from snapshots).  Declared
  // after memory_ so the cache detaches its write watch before memory dies.
  // The cursor is valid only while cur_gen_ matches dcache_.generation() —
  // checked before every dereference, since any invalidation (policy epoch,
  // code write, explicit drop) frees the pointed-to block.
  DispatchMode dispatch_ = DispatchMode::kCached;
  DecodeCache dcache_;
  const DecodeCache::Block* cur_block_ = nullptr;
  std::size_t cur_idx_ = 0;
  std::uint64_t cur_gen_ = 0;
  // Hashed block-head LUT: hot loops chain block-to-block without the
  // firmware map probe or the hash lookup the cold path pays.  Each entry
  // is stamped with the generation it was filled under and checked with the
  // same live() guard as the cursor before its block is read, so
  // invalidations kill it for free; a hit is safe to run without the
  // firmware probe because build_block never caches a block whose head is a
  // firmware entry (register_firmware also invalidates, which bumps the
  // generation).  1024 entries, hashed so that a workload's ~300 heads —
  // jump-table targets and return sites among them — and the heads 4 KiB
  // apart in other tasks spread over the table.
  struct BlockLutEntry {
    std::uint64_t gen = 0;  ///< 0 never matches a real generation
    const DecodeCache::Block* block = nullptr;
  };
  static constexpr std::size_t kBlockLutSize = 1024;
  static std::size_t lut_index(std::uint32_t pc) {
    return ((pc >> 2) ^ (pc >> 12)) & (kBlockLutSize - 1);
  }
  std::array<BlockLutEntry, kBlockLutSize> block_lut_{};

  /// Tracer and/or heat recorder; null while neither is on.
  std::unique_ptr<Observer> observer_;
  fault::FaultEngine* faults_ = nullptr;  ///< non-owning; see set_fault_engine
  obs::Hub obs_;
  const LogContext* log_;  ///< never null; defaults to process_log_context()
  std::function<std::int32_t()> task_context_;
};

}  // namespace tytan::sim
