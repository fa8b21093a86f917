#include "sim/machine.h"

#include <bit>
#include <chrono>
#include <sstream>

#include "common/log.h"
#include "isa/disasm.h"

namespace tytan::sim {

using isa::Opcode;

const char* fault_name(FaultType t) {
  switch (t) {
    case FaultType::kNone: return "none";
    case FaultType::kBadOpcode: return "bad-opcode";
    case FaultType::kBusError: return "bus-error";
    case FaultType::kMpuData: return "mpu-data";
    case FaultType::kMpuFetch: return "mpu-fetch";
    case FaultType::kMpuTransfer: return "mpu-transfer";
    case FaultType::kStackFault: return "stack-fault";
    case FaultType::kNoHandler: return "no-handler";
    case FaultType::kPrivileged: return "privileged";
  }
  return "?";
}

std::string FaultInfo::to_string() const {
  std::ostringstream os;
  os << fault_name(type) << " at eip=0x" << std::hex << eip << " addr=0x" << addr << " ("
     << access_name(access) << ")";
  return os.str();
}

Machine::Machine(CostModel costs, const LogContext* log)
    : costs_(costs), log_(log != nullptr ? log : &process_log_context()) {
  obs_.set_clock(&cycles_);
  dcache_.attach(&memory_);
}

std::int32_t Machine::current_task_context() const {
  return task_context_ ? task_context_() : -1;
}

// ---------------------------------------------------------------------------
// Interrupts and faults
// ---------------------------------------------------------------------------

void Machine::raise_irq(std::uint8_t vector) {
  TYTAN_CHECK(vector < 64, "IRQ vector out of range");
  pending_ |= (1ull << vector);
}

std::uint32_t Machine::idt_entry(std::uint8_t vector) const {
  return memory_.read32(kIdtBase + 4u * vector);
}

void Machine::set_idt_entry(std::uint8_t vector, std::uint32_t handler) {
  memory_.write32(kIdtBase + 4u * vector, handler);
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

void Machine::save_state(snap::Writer& w) const {
  for (const std::uint32_t reg : cpu_.regs) {
    w.u32(reg);
  }
  w.u32(cpu_.eip);
  w.u32(cpu_.eflags);
  w.u64(cycles_);
  w.u64(pending_);
  w.u32(int_origin_eip_);
  w.u8(int_vector_);
  w.u8(static_cast<std::uint8_t>(last_fault_.type));
  w.u32(last_fault_.eip);
  w.u32(last_fault_.addr);
  w.u8(static_cast<std::uint8_t>(last_fault_.access));
  w.u64(fault_count_);
  w.boolean(in_fault_dispatch_);
  w.u8(static_cast<std::uint8_t>(halt_reason_));
  w.u64(instructions_);
  w.u64(interrupts_);
  w.u64(fw_invocations_);
}

Status Machine::restore_state(snap::Reader& r) {
  for (std::uint32_t& reg : cpu_.regs) {
    reg = r.u32();
  }
  cpu_.eip = r.u32();
  cpu_.eflags = r.u32();
  cycles_ = r.u64();
  pending_ = r.u64();
  int_origin_eip_ = r.u32();
  int_vector_ = r.u8();
  last_fault_.type = static_cast<FaultType>(r.u8());
  last_fault_.eip = r.u32();
  last_fault_.addr = r.u32();
  last_fault_.access = static_cast<Access>(r.u8());
  fault_count_ = r.u64();
  in_fault_dispatch_ = r.boolean();
  halt_reason_ = static_cast<HaltReason>(r.u8());
  instructions_ = r.u64();
  interrupts_ = r.u64();
  fw_invocations_ = r.u64();
  // The decode cache is host-only state: never serialized, rebuilt on demand
  // against the restored memory image and policy configuration.  (The memory
  // write watch already dropped blocks overwritten by the image restore;
  // this also covers order-of-restore races and the transient fault flag.)
  fault_eip_redirected_ = false;
  invalidate_decode_cache();
  // Device tick scheduling is host-only: force a full resync on the next
  // step (devices restore their own schedules after this), and mark device
  // time clean so a save immediately after restore reproduces the restored
  // bytes instead of re-latching.
  next_device_tick_ = 0;
  device_timing_epoch_ = 0;
  step_top_cycles_ = cycles_;
  device_time_dirty_ = false;
  return Status::ok();
}

bool Machine::dispatch_interrupt(std::uint8_t vector, std::uint32_t origin_eip,
                                 std::uint32_t return_eip) {
  charge(costs_.int_dispatch);
  const std::uint32_t handler = idt_entry(vector);
  if (handler == 0) {
    raise_fault({FaultType::kNoHandler, origin_eip, vector, Access::kExecute});
    return false;
  }
  // Exception engine pushes EFLAGS then EIP onto the *current* stack (paper
  // §4: "The instruction pointer (EIP) and flags register (EFLAGS) are saved
  // by the exception engine to the stack of the interrupted task").  The
  // pushes run under the interrupted code's identity, so a task whose SP
  // points outside its own memory faults here instead of corrupting others.
  std::uint32_t sp = cpu_.sp();
  sp -= 4;
  if (!check(origin_eip, sp, Access::kWrite) || !raw_write32(sp, cpu_.eflags)) {
    raise_fault({FaultType::kStackFault, origin_eip, sp, Access::kWrite});
    return false;
  }
  sp -= 4;
  if (!check(origin_eip, sp, Access::kWrite) || !raw_write32(sp, return_eip)) {
    raise_fault({FaultType::kStackFault, origin_eip, sp, Access::kWrite});
    return false;
  }
  // Hardware latches: the IPC proxy authenticates the sender from these.
  // Updated only once the frame is safely pushed — an aborted dispatch must
  // leave the latches of the last *successful* dispatch intact, or a task
  // could forge its identity by interrupting with a bad SP.
  int_origin_eip_ = origin_eip;
  int_vector_ = vector;
  cpu_.set_sp(sp);
  cpu_.set_flag(isa::kFlagIF, false);
  cpu_.eip = handler;
  ++interrupts_;
  obs_.emit(obs::EventKind::kIrqEnter, current_task_context(), vector, origin_eip);
  return true;
}

void Machine::record_fault(const FaultInfo& fault) {
  last_fault_ = fault;
  ++fault_count_;
  obs_.emit(obs::EventKind::kFault, current_task_context(),
            static_cast<std::uint32_t>(fault.type), fault.eip);
}

void Machine::raise_fault(const FaultInfo& fault) {
  fault_eip_redirected_ = false;
  last_fault_ = fault;
  ++fault_count_;
  obs_.emit(obs::EventKind::kFault, current_task_context(),
            static_cast<std::uint32_t>(fault.type), fault.eip);
  TYTAN_CLOG(log(), LogLevel::kDebug, "machine") << "fault: " << fault.to_string();
  if (in_fault_dispatch_) {
    halt(HaltReason::kDoubleFault);
    in_fault_dispatch_ = false;
    return;
  }
  in_fault_dispatch_ = true;
  const std::uint32_t handler = idt_entry(kVecFault);
  if (handler == 0) {
    halt(HaltReason::kDoubleFault);
    in_fault_dispatch_ = false;
    return;
  }
  // Fault dispatch does not touch the (possibly bad) guest stack; the fault
  // handler reads the latched FaultInfo through last_fault().
  int_origin_eip_ = fault.eip;
  int_vector_ = kVecFault;
  cpu_.set_flag(isa::kFlagIF, false);
  cpu_.eip = handler;
  fault_eip_redirected_ = true;
  in_fault_dispatch_ = false;
}

// ---------------------------------------------------------------------------
// Firmware registry
// ---------------------------------------------------------------------------

void Machine::register_firmware(std::uint32_t addr, std::string name,
                                FirmwareHandler handler) {
  TYTAN_CHECK(!firmware_.contains(addr), "firmware address already registered");
  firmware_[addr] = {std::move(name), std::move(handler)};
  // A cached block may span the new address; from now on a step landing
  // there must invoke the handler, not a pre-decoded instruction.
  invalidate_decode_cache();
}

void Machine::enable_heat(bool time_dispatch) {
  // The profile lives in the obs metrics registry so fleet aggregation folds
  // it with the same merge_from discipline as every other instrument; the
  // recorder is the machine-owned hot-path state bound to it.
  heat_ = std::make_unique<obs::HeatRecorder>(&obs_.metrics().heat_profile("machine"),
                                              time_dispatch);
}

std::string_view Machine::firmware_name(std::uint32_t addr) const {
  const auto it = firmware_.find(addr);
  return it == firmware_.end() ? std::string_view{} : std::string_view{it->second.name};
}

// ---------------------------------------------------------------------------
// Memory paths
// ---------------------------------------------------------------------------

bool Machine::check(std::uint32_t exec_ip, std::uint32_t addr, Access access) const {
  if (heat_ == nullptr) {
    return policy_ == nullptr || policy_->allows(exec_ip, addr, access);
  }
  // Observatory enabled: also ask the policy *which* rule decided.  The
  // verdict still comes from allows() — classify() is attribution only, so a
  // policy without a classify() override stays correct (its checks land in
  // the "unclassified" bucket).
  const bool allowed = policy_ == nullptr || policy_->allows(exec_ip, addr, access);
  heat_->count_check(static_cast<int>(access),
                     policy_ == nullptr ? kCheckNoPolicy
                                        : policy_->classify(exec_ip, addr, access));
  return allowed;
}

bool Machine::raw_read32(std::uint32_t addr, std::uint32_t* out) {
  if (is_mmio(addr)) {
    if (addr % 4 != 0) {
      return false;
    }
    Device* device = bus_.find(addr);
    if (device == nullptr) {
      return false;
    }
    charge(costs_.mmio_access);
    // Lazy time latch: deliver the step-top cycle the per-instruction tick
    // regime would have, so counters and timestamps read identically.
    device->tick(step_top_cycles_);
    *out = device->read32(addr - device->base());
    return true;
  }
  if (!memory_.in_bounds(addr, 4)) {
    return false;
  }
  *out = memory_.read32(addr);
  return true;
}

bool Machine::raw_write32(std::uint32_t addr, std::uint32_t value) {
  if (is_mmio(addr)) {
    if (addr % 4 != 0) {
      return false;
    }
    Device* device = bus_.find(addr);
    if (device == nullptr) {
      return false;
    }
    charge(costs_.mmio_access);
    device->tick(step_top_cycles_);  // lazy time latch; see raw_read32
    device->write32(addr - device->base(), value);
    return true;
  }
  if (!memory_.in_bounds(addr, 4)) {
    return false;
  }
  memory_.write32(addr, value);
  return true;
}

bool Machine::raw_read8(std::uint32_t addr, std::uint8_t* out) {
  if (is_mmio(addr)) {
    std::uint32_t word = 0;
    if (!raw_read32(addr & ~3u, &word)) {
      return false;
    }
    *out = static_cast<std::uint8_t>(word >> (8 * (addr % 4)));
    return true;
  }
  if (!memory_.in_bounds(addr, 1)) {
    return false;
  }
  *out = memory_.read8(addr);
  return true;
}

bool Machine::raw_write8(std::uint32_t addr, std::uint8_t value) {
  if (is_mmio(addr)) {
    // Devices are word-based; a byte write is modeled as ONE read-modify-
    // write bus transaction on the addressed lane (charged once), symmetric
    // with raw_read8's lane extract.  Registers with read side effects see
    // the RMW read — that is the documented cost of byte-granular MMIO.
    const std::uint32_t aligned = addr & ~3u;
    Device* device = bus_.find(aligned);
    if (device == nullptr) {
      return false;
    }
    charge(costs_.mmio_access);
    device->tick(step_top_cycles_);  // lazy time latch; see raw_read32
    const unsigned shift = 8 * (addr % 4);
    std::uint32_t word = device->read32(aligned - device->base());
    word = (word & ~(0xFFu << shift)) |
           (static_cast<std::uint32_t>(value) << shift);
    device->write32(aligned - device->base(), word);
    return true;
  }
  if (!memory_.in_bounds(addr, 1)) {
    return false;
  }
  memory_.write8(addr, value);
  return true;
}

Result<std::uint32_t> Machine::fw_read32(std::uint32_t exec_ip, std::uint32_t addr) {
  if (!check(exec_ip, addr, Access::kRead)) {
    return make_error(Err::kPermissionDenied, "EA-MPU denied firmware read");
  }
  std::uint32_t value = 0;
  if (!raw_read32(addr, &value)) {
    return make_error(Err::kOutOfRange, "firmware read bus error");
  }
  return value;
}

Status Machine::fw_write32(std::uint32_t exec_ip, std::uint32_t addr, std::uint32_t value) {
  if (!check(exec_ip, addr, Access::kWrite)) {
    return make_error(Err::kPermissionDenied, "EA-MPU denied firmware write");
  }
  if (!raw_write32(addr, value)) {
    return make_error(Err::kOutOfRange, "firmware write bus error");
  }
  return Status::ok();
}

Result<std::uint8_t> Machine::fw_read8(std::uint32_t exec_ip, std::uint32_t addr) {
  if (!check(exec_ip, addr, Access::kRead)) {
    return make_error(Err::kPermissionDenied, "EA-MPU denied firmware read");
  }
  std::uint8_t value = 0;
  if (!raw_read8(addr, &value)) {
    return make_error(Err::kOutOfRange, "firmware read bus error");
  }
  return value;
}

Status Machine::fw_write8(std::uint32_t exec_ip, std::uint32_t addr, std::uint8_t value) {
  if (!check(exec_ip, addr, Access::kWrite)) {
    return make_error(Err::kPermissionDenied, "EA-MPU denied firmware write");
  }
  if (!raw_write8(addr, value)) {
    return make_error(Err::kOutOfRange, "firmware write bus error");
  }
  return Status::ok();
}

bool Machine::guest_read32(std::uint32_t addr, std::uint32_t* out) {
  if (!check(cpu_.eip, addr, Access::kRead)) {
    raise_fault({FaultType::kMpuData, cpu_.eip, addr, Access::kRead});
    return false;
  }
  charge(costs_.mem_access);
  if (!raw_read32(addr, out)) {
    raise_fault({FaultType::kBusError, cpu_.eip, addr, Access::kRead});
    return false;
  }
  return true;
}

bool Machine::guest_write32(std::uint32_t addr, std::uint32_t value) {
  if (!check(cpu_.eip, addr, Access::kWrite)) {
    raise_fault({FaultType::kMpuData, cpu_.eip, addr, Access::kWrite});
    return false;
  }
  charge(costs_.mem_access);
  if (!raw_write32(addr, value)) {
    raise_fault({FaultType::kBusError, cpu_.eip, addr, Access::kWrite});
    return false;
  }
  return true;
}

bool Machine::guest_read8(std::uint32_t addr, std::uint8_t* out) {
  if (!check(cpu_.eip, addr, Access::kRead)) {
    raise_fault({FaultType::kMpuData, cpu_.eip, addr, Access::kRead});
    return false;
  }
  charge(costs_.mem_access);
  if (!raw_read8(addr, out)) {
    raise_fault({FaultType::kBusError, cpu_.eip, addr, Access::kRead});
    return false;
  }
  return true;
}

bool Machine::guest_write8(std::uint32_t addr, std::uint8_t value) {
  if (!check(cpu_.eip, addr, Access::kWrite)) {
    raise_fault({FaultType::kMpuData, cpu_.eip, addr, Access::kWrite});
    return false;
  }
  charge(costs_.mem_access);
  if (!raw_write8(addr, value)) {
    raise_fault({FaultType::kBusError, cpu_.eip, addr, Access::kWrite});
    return false;
  }
  return true;
}

bool Machine::guest_push32(std::uint32_t value) {
  const std::uint32_t sp = cpu_.sp() - 4;
  if (!guest_write32(sp, value)) {
    return false;
  }
  cpu_.set_sp(sp);
  return true;
}

bool Machine::guest_pop32(std::uint32_t* out) {
  if (!guest_read32(cpu_.sp(), out)) {
    return false;
  }
  cpu_.set_sp(cpu_.sp() + 4);
  return true;
}

bool Machine::guest_transfer(std::uint32_t target) {
  if (policy_ != nullptr && !policy_->allows_transfer(cpu_.eip, target)) {
    raise_fault({FaultType::kMpuTransfer, cpu_.eip, target, Access::kExecute});
    return false;
  }
  charge(costs_.branch_taken);
  cpu_.eip = target;
  return true;
}

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

StepOutcome Machine::step() {
  if (halted()) {
    return StepOutcome::kHalted;
  }
  // Event-driven device time: walk the tick list only when a device has due
  // work (a timer crossing next_fire_) or a schedule changed out of band
  // (register write, attach, restore — the bus timing epoch).  Devices whose
  // tick is a pure time latch are instead latched lazily: on their own MMIO
  // accesses (raw_* paths) and before serialization (flush_device_time), in
  // both cases with the step-top cycle the classic every-instruction regime
  // would have delivered — so IRQ timing, command timestamps, and snapshot
  // bytes are identical to ticking every step.
  step_top_cycles_ = cycles_;
  device_time_dirty_ = true;
  if (cycles_ >= next_device_tick_ || bus_.timing_epoch() != device_timing_epoch_) {
    bus_.tick_all(cycles_);
    device_timing_epoch_ = bus_.timing_epoch();
    next_device_tick_ = bus_.next_tick_due();
  }
  if (pending_ != 0 && cpu_.flag(isa::kFlagIF)) {
    dispatch_pending();
    return halted() ? StepOutcome::kHalted : StepOutcome::kOk;
  }
  // Cached-dispatch fast paths.  Still one instruction per step(): quantum
  // boundaries, device ticks, and IRQ windows land exactly where the
  // interpreter puts them.
  if (dispatch_ == DispatchMode::kCached) {
    // Cursor hit: the cursor points at the next op of a live block and EIP
    // agrees — skip fetch, decode, the EA-MPU walk, and the firmware map
    // probe (blocks never contain firmware addresses, and register_firmware
    // invalidates).  Liveness is checked BEFORE the block pointer is
    // dereferenced: any invalidation freed it.
    if (cur_block_ != nullptr && dcache_.live(cur_gen_, policy_) &&
        cur_idx_ < cur_block_->ops.size() &&
        cur_block_->ops[cur_idx_].pc == cpu_.eip) {
      // Reference, not copy: a self-modifying store can only *graveyard* the
      // block (deferred free), never destroy it mid-instruction.
      const DecodedOp& op = cur_block_->ops[cur_idx_];
      ++cur_idx_;
      run_cached_op(op);
      return halted() ? StepOutcome::kHalted : StepOutcome::kOk;
    }
    // Block-head LUT hit: a branch landed on a block head this machine has
    // activated before — chain straight into it without the firmware map
    // probe or the hash lookup.  Safe for the same reason as the cursor: a
    // cached head is never a firmware entry, and the entry's generation
    // stamp dies with any invalidation (live() also rechecks the policy
    // configuration epoch).
    const BlockLutEntry& lut = block_lut_[(cpu_.eip >> 2) & (kBlockLutSize - 1)];
    if (lut.pc == cpu_.eip && dcache_.live(lut.gen, policy_)) {
      cur_block_ = lut.block;
      cur_gen_ = lut.gen;
      cur_idx_ = 1;
      dcache_.note_fast_hit();
      run_cached_op(lut.block->ops[0]);
      return halted() ? StepOutcome::kHalted : StepOutcome::kOk;
    }
  }
  const auto fw = firmware_.find(cpu_.eip);
  if (fw != firmware_.end()) {
    ++fw_invocations_;
    if (tracer_ != nullptr) {
      tracer_->record(cycles_, cpu_.eip, 0, fw->second.name, current_task_context(),
                      Tracer::kVerdictNone);
    }
    fw->second.handler(*this);
    return halted() ? StepOutcome::kHalted : StepOutcome::kOk;
  }
  if (dispatch_ == DispatchMode::kCached && execute_one_cached()) {
    return halted() ? StepOutcome::kHalted : StepOutcome::kOk;
  }
  if (tracer_ != nullptr && memory_.in_bounds(cpu_.eip, 4) && !is_mmio(cpu_.eip)) {
    const int verdict = policy_ == nullptr ? Tracer::kVerdictNone
                        : policy_->allows(cpu_.eip, cpu_.eip, Access::kExecute)
                            ? Tracer::kVerdictAllowed
                            : Tracer::kVerdictDenied;
    tracer_->record(cycles_, cpu_.eip, memory_.read32(cpu_.eip), {},
                    current_task_context(), verdict);
  }
  execute_one();
  return halted() ? StepOutcome::kHalted : StepOutcome::kOk;
}

void Machine::dispatch_pending() {
  const unsigned vector = static_cast<unsigned>(std::countr_zero(pending_));
  pending_ &= pending_ - 1;  // clear lowest set bit
  if (!dispatch_interrupt(static_cast<std::uint8_t>(vector), cpu_.eip, cpu_.eip)) {
    // A stack fault is transient: the line stays pending and the dispatch
    // retries once the fault handler repairs SP (no spin — IF is off until
    // its IRET).  A missing IDT entry is a configuration error: the request
    // is dropped, since re-asserting would retry a vector that can never
    // dispatch.  Both are pinned in tests/test_machine.cc.
    if (last_fault_.type == FaultType::kStackFault) {
      pending_ |= (1ull << vector);
    }
  }
}

HaltReason Machine::run(std::uint64_t cycle_limit) {
  while (!halted() && cycles_ < cycle_limit) {
    step();
  }
  return halted() ? halt_reason_ : HaltReason::kCycleLimit;
}

inline void Machine::dispatch_observed(const DecodedOp& op) {
  charge(op.base_cycles);
  ++instructions_;
  if (heat_ == nullptr) {  // hot path: observatory off costs one null check
    execute_op(op);
    return;
  }
  const auto opcode = static_cast<std::uint8_t>(op.instr.opcode);
  if (!heat_->on_instruction(op.pc, opcode)) {
    execute_op(op);
    return;
  }
  // Sampled dispatch: attribute host nanoseconds to this opcode.  Host
  // clocks never feed back into simulated state, so cycle counts stay
  // bit-identical with the observatory on or off.
  const auto t0 = std::chrono::steady_clock::now();
  execute_op(op);
  const auto t1 = std::chrono::steady_clock::now();
  heat_->attribute(opcode, static_cast<std::uint64_t>(
                               std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                                   .count()));
}

void Machine::execute_one() {
  const std::uint32_t pc = cpu_.eip;
  if (!check(pc, pc, Access::kExecute)) {
    raise_fault({FaultType::kMpuFetch, pc, pc, Access::kExecute});
    return;
  }
  if (is_mmio(pc) || !memory_.in_bounds(pc, 4)) {
    raise_fault({FaultType::kBusError, pc, pc, Access::kExecute});
    return;
  }
  const std::uint32_t word = memory_.read32(pc);
  const auto decoded = isa::decode(word);
  if (!decoded) {
    raise_fault({FaultType::kBadOpcode, pc, pc, Access::kExecute});
    return;
  }
  // Transient decoded op: same OpVariant handler the cache dispatches, with
  // nothing memoized (transfer/fetch verdicts resolved live).
  DecodedOp op;
  op.instr = *decoded;
  op.pc = pc;
  op.word = word;
  const OpVariant& variant = op_table()[static_cast<std::size_t>(op.instr.opcode)];
  op.exec = variant.exec;
  op.base_cycles = variant.base_cycles;
  dispatch_observed(op);
}

void Machine::run_cached_op(const DecodedOp& op) {
  if (tracer_ != nullptr) {
    // Same record the interpreter path emits: the memoized word, and the
    // fetch verdict every cached op has by construction (a denied fetch
    // never enters a block).
    tracer_->record(cycles_, op.pc, op.word, {}, current_task_context(),
                    policy_ == nullptr ? Tracer::kVerdictNone
                                       : Tracer::kVerdictAllowed);
  }
  if (heat_ != nullptr) {
    // Replay the memoized classify() code into the MPU counters — cached
    // fetches skip the policy walk, but heat profiles must be identical
    // across dispatch modes.
    heat_->count_check(static_cast<int>(Access::kExecute), op.fetch_class);
  }
  dispatch_observed(op);
}

bool Machine::execute_one_cached() {
  // Any policy reconfiguration since the last build — EA-MPU slot writes by
  // the driver firmware, host-side test mutations — drops the whole cache
  // here, before any memoized verdict can be replayed.
  dcache_.sync_policy(policy_);
  const DecodeCache::Block* block = dcache_.find(cpu_.eip);
  if (block == nullptr) {
    DecodeCache::Block built = build_block(cpu_.eip);
    if (built.ops.empty()) {
      return false;  // uncacheable head: the interpreter raises the exact fault
    }
    block = dcache_.insert(std::move(built));
  }
  cur_block_ = block;
  cur_gen_ = dcache_.generation();
  cur_idx_ = 1;
  // Remember this head so the next branch here takes the LUT fast path.
  BlockLutEntry& lut = block_lut_[(cpu_.eip >> 2) & (kBlockLutSize - 1)];
  lut.pc = cpu_.eip;
  lut.gen = cur_gen_;
  lut.block = block;
  // Reference is safe even against a store erasing its own block: erased
  // blocks are graveyarded, not destroyed, until the next find()/insert().
  run_cached_op(block->ops[0]);
  return true;
}

DecodeCache::Block Machine::build_block(std::uint32_t pc) const {
  DecodeCache::Block block;
  block.start = pc;
  std::uint32_t p = pc;
  while (block.ops.size() < DecodeCache::kMaxBlockOps) {
    // Stop at anything the fast path must not step over: firmware entry
    // points, MMIO/out-of-bounds fetches, denied fetches, undecodable
    // words.  A bad *head* yields an empty block and the interpreter path
    // raises the corresponding fault; a bad tail just ends the block early.
    if (firmware_.contains(p) || is_mmio(p) || !memory_.in_bounds(p, 4)) {
      break;
    }
    if (policy_ != nullptr && !policy_->allows(p, p, Access::kExecute)) {
      break;
    }
    const std::uint32_t word = memory_.read32(p);
    const auto decoded = isa::decode(word);
    if (!decoded) {
      break;
    }
    DecodedOp op;
    op.instr = *decoded;
    op.pc = p;
    op.word = word;
    const OpVariant& variant = op_table()[static_cast<std::size_t>(op.instr.opcode)];
    op.exec = variant.exec;
    op.base_cycles = variant.base_cycles;
    op.fetch_class = policy_ == nullptr
                         ? kCheckNoPolicy
                         : policy_->classify(p, p, Access::kExecute);
    const std::uint32_t next = p + isa::kInstrSize;
    bool terminator = false;
    switch (op.instr.opcode) {
      // Static-target transfers: the entry-point verdict is a pure function
      // of (pc, policy configuration) — memoize it under the same epoch that
      // guards the fetch memo.
      case Opcode::kJmp:
      case Opcode::kJz:
      case Opcode::kJnz:
      case Opcode::kJlt:
      case Opcode::kJge:
      case Opcode::kJc:
      case Opcode::kJnc:
      case Opcode::kCall: {
        const std::uint32_t target = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(next) + op.instr.simm());
        op.transfer = (policy_ == nullptr || policy_->allows_transfer(p, target))
                          ? TransferMemo::kAllowed
                          : TransferMemo::kDenied;
        // Conditional branches fall through inside the block; the taken path
        // re-enters through the cursor-miss slow path.
        terminator =
            op.instr.opcode == Opcode::kJmp || op.instr.opcode == Opcode::kCall;
        break;
      }
      case Opcode::kJmpr:
      case Opcode::kCallr:
      case Opcode::kRet:
      case Opcode::kInt:
      case Opcode::kIret:
      case Opcode::kHlt:
        terminator = true;  // EIP never falls through sequentially
        break;
      default:
        break;
    }
    block.ops.push_back(op);
    p = next;
    if (terminator) {
      break;
    }
  }
  block.end = p;
  return block;
}

void Machine::execute_op(const DecodedOp& op) {
  cpu_.eip = op.pc + isa::kInstrSize;  // default; branch handlers overwrite
  op.exec(*this, op);
}

}  // namespace tytan::sim
