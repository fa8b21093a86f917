#include "sim/machine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <sstream>
#include <type_traits>

#include "common/bytes.h"
#include "common/log.h"
#include "isa/disasm.h"

namespace tytan::sim {

static_assert(obs::HeatProfile::kMpuSlotBuckets == EaMpu::kNumSlots,
              "the heat profile's check buckets mirror the EA-MPU slots");
static_assert(obs::HeatRecorder::kExecuteKind == static_cast<std::size_t>(Access::kExecute),
              "the heat recorder counts execute checks in the execute row");
static_assert(obs::HeatProfile::kMpuBuckets <= UINT8_MAX, "a bucket fits DecodedOp");

namespace {

/// `instr`, decoded from `word` at `pc`, bound to its OpVariant handler and
/// base cost — the part of a DecodedOp both dispatch modes fill the same
/// way.  Nothing is memoized yet.
DecodedOp decoded_op(std::uint32_t pc, std::uint32_t word, const isa::Instruction& instr) {
  const OpVariant& variant = op_table()[static_cast<std::size_t>(instr.opcode)];
  DecodedOp op;
  op.instr = instr;
  op.pc = pc;
  op.word = word;
  op.exec = variant.exec;
  op.base_cycles = variant.base_cycles;
  return op;
}

/// The denial messages of the fw_* accessors, shared so the block forms
/// report exactly what the per-element loops report.
constexpr const char* kFwReadDenied = "EA-MPU denied firmware read";
constexpr const char* kFwWriteDenied = "EA-MPU denied firmware write";

}  // namespace

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

void Machine::cpu_and_clock(snap::Io& io, CpuState& cpu, std::uint64_t& cycles) {
  for (std::uint32_t& reg : cpu.regs) {
    io.u32(reg);
  }
  io.u32(cpu.eip);
  io.u32(cpu.eflags);
  io.u64(cycles);
}

Status Machine::state(snap::Io& io) {
  cpu_and_clock(io, cpu_, cycles_);
  io.u64(pending_);
  io.u32(int_origin_eip_);
  io.u8(int_vector_);
  io.enum8(last_fault_.type);
  io.u32(last_fault_.eip);
  io.u32(last_fault_.addr);
  io.enum8(last_fault_.access);
  io.u64(fault_count_);
  io.boolean(in_fault_dispatch_);
  io.enum8(halt_reason_);
  io.u64(instructions_);
  io.u64(interrupts_);
  io.u64(fw_invocations_);
  if (io.loading()) {
    // The decode cache is host-only state: never serialized, rebuilt on
    // demand against the restored memory image and policy configuration.
    // (The memory write watch already dropped blocks overwritten by the image
    // restore; this also covers order-of-restore races and the transient
    // fault flag.)
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
  }
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
  for (const std::uint32_t word : {cpu_.eflags, return_eip}) {
    sp -= 4;
    if (!check(origin_eip, sp, Access::kWrite) || !raw_write32(sp, word)) {
      raise_fault({FaultType::kStackFault, origin_eip, sp, Access::kWrite});
      return false;
    }
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
  record_fault(fault);
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

template <typename Part>
void Machine::observe(std::unique_ptr<Part> Observer::*part, std::unique_ptr<Part> value) {
  if (observer_ == nullptr) {
    observer_ = std::make_unique<Observer>(task_context_);
  }
  (*observer_).*part = std::move(value);
  if (observer_->tracer == nullptr && observer_->heat == nullptr) {
    observer_ = nullptr;
  }
}

void Machine::enable_trace(std::size_t capacity) {
  observe(&Observer::tracer, capacity == 0 ? nullptr : std::make_unique<Tracer>(capacity));
}

void Machine::enable_heat(bool time_dispatch) {
  // The profile lives in the obs metrics registry so fleet aggregation folds
  // it with the same merge_from discipline as every other instrument; the
  // recorder is the machine-owned hot-path state bound to it.
  disable_heat();
  observe(&Observer::heat, std::make_unique<obs::HeatRecorder>(
                               &obs_.metrics().heat_profile("machine"), time_dispatch));
}

void Machine::disable_heat() {
  if (obs::HeatRecorder* recorder = heat(); recorder != nullptr) {
    recorder->flush();  // keep what the recorder still caches
    observe(&Observer::heat, {});
  }
}

// ---------------------------------------------------------------------------
// Memory paths
// ---------------------------------------------------------------------------

bool Machine::check(std::uint32_t exec_ip, std::uint32_t addr, Access access) const {
  const int code = classify(exec_ip, addr, access);
  if (observer_ != nullptr) {
    observer_->check(access, code);
  }
  return code != kCheckDenied;
}

std::uint32_t Machine::check_run(std::uint32_t exec_ip, std::uint32_t addr,
                                 std::uint32_t count, std::uint32_t stride,
                                 Access access) const {
  std::uint32_t granted = 0;
  while (granted < count) {
    // Every access that starts inside the span around `at` gets the same
    // answer as the access at `at`.
    const std::uint32_t at = addr + granted * stride;
    std::uint64_t lo = 0;
    std::uint64_t hi = std::uint64_t{1} << 32;
    const int code = policy_ == nullptr
                         ? kCheckNoPolicy
                         : policy_->classify_span(exec_ip, at, access, &lo, &hi);
    const std::uint32_t run =
        code == kCheckDenied
            ? 1
            : static_cast<std::uint32_t>(
                  std::min<std::uint64_t>(count - granted, (hi - at + stride - 1) / stride));
    if (observer_ != nullptr) {
      observer_->check(access, code, run);
    }
    if (code == kCheckDenied) {
      break;
    }
    granted += run;
  }
  return granted;
}

Device* Machine::mmio_device(std::uint32_t addr) {
  Device* device = addr % 4 == 0 ? bus_.find(addr) : nullptr;
  if (device != nullptr) {
    charge(costs_.mmio_access);
    // Lazy time latch: deliver the step-top cycle the per-instruction tick
    // regime would have, so counters and timestamps read identically.
    device->tick(step_top_cycles_);
  }
  return device;
}

bool Machine::raw_read32(std::uint32_t addr, std::uint32_t* out) {
  if (is_mmio(addr)) {
    Device* device = mmio_device(addr);
    if (device != nullptr) {
      *out = device->read32(addr - device->base());
    }
    return device != nullptr;
  }
  if (!memory_.in_bounds(addr, 4)) {
    return false;
  }
  *out = memory_.read32(addr);
  return true;
}

bool Machine::raw_write32(std::uint32_t addr, std::uint32_t value) {
  if (is_mmio(addr)) {
    Device* device = mmio_device(addr);
    if (device != nullptr) {
      device->write32(addr - device->base(), value);
    }
    return device != nullptr;
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
    Device* device = mmio_device(aligned);
    if (device == nullptr) {
      return false;
    }
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

template <typename RawAccess>
Status Machine::fw_access(std::uint32_t exec_ip, std::uint32_t addr, Access access,
                          RawAccess raw) {
  const bool write = access == Access::kWrite;
  if (!check(exec_ip, addr, access)) {
    return make_error(Err::kPermissionDenied, write ? kFwWriteDenied : kFwReadDenied);
  }
  if (!raw()) {
    return make_error(Err::kOutOfRange,
                      write ? "firmware write bus error" : "firmware read bus error");
  }
  return Status::ok();
}

Result<std::uint32_t> Machine::fw_read32(std::uint32_t exec_ip, std::uint32_t addr) {
  std::uint32_t value = 0;
  Status s = fw_access(exec_ip, addr, Access::kRead, [&] { return raw_read32(addr, &value); });
  return s.is_ok() ? Result<std::uint32_t>(value) : s;
}

Status Machine::fw_write32(std::uint32_t exec_ip, std::uint32_t addr, std::uint32_t value) {
  return fw_access(exec_ip, addr, Access::kWrite, [&] { return raw_write32(addr, value); });
}

Result<std::uint8_t> Machine::fw_read8(std::uint32_t exec_ip, std::uint32_t addr) {
  std::uint8_t value = 0;
  Status s = fw_access(exec_ip, addr, Access::kRead, [&] { return raw_read8(addr, &value); });
  return s.is_ok() ? Result<std::uint8_t>(value) : s;
}

Status Machine::fw_write8(std::uint32_t exec_ip, std::uint32_t addr, std::uint8_t value) {
  return fw_access(exec_ip, addr, Access::kWrite, [&] { return raw_write8(addr, value); });
}

template <typename Byte>
Status Machine::fw_block(std::uint32_t exec_ip, std::uint32_t addr, std::span<Byte> bytes,
                         std::uint32_t width, std::uint32_t* done) {
  constexpr bool kWrite = std::is_const_v<Byte>;
  TYTAN_CHECK((width == 1 || width == 4) && bytes.size() % width == 0,
              "firmware block: whole elements of 1 or 4 bytes");
  const auto count = static_cast<std::uint32_t>(bytes.size() / width);
  std::uint32_t n = 0;
  Status status;
  if (is_plain_ram(addr, count * width)) {
    n = check_run(exec_ip, addr, count, width, kWrite ? Access::kWrite : Access::kRead);
    const auto prefix = bytes.first(std::size_t{n} * width);
    if (n > 0) {  // an empty span may have no storage to copy
      if constexpr (kWrite) {
        memory_.write_block(addr, prefix);
      } else {
        memory_.read_block(addr, prefix);
      }
    }
    if (n < count) {
      status = make_error(Err::kPermissionDenied, kWrite ? kFwWriteDenied : kFwReadDenied);
    }
  } else {
    // The per-element loop itself: one copy of the MMIO and bus-error logic.
    const auto element = [&](std::uint32_t at, Byte* p) -> Status {
      if constexpr (kWrite) {
        return width == 4 ? fw_write32(exec_ip, at, load_le32(p)) : fw_write8(exec_ip, at, *p);
      } else if (width == 4) {
        auto word = fw_read32(exec_ip, at);
        if (word.is_ok()) {
          store_le32(p, *word);
        }
        return word.status();
      } else {
        auto byte = fw_read8(exec_ip, at);
        if (byte.is_ok()) {
          *p = *byte;
        }
        return byte.status();
      }
    };
    for (; n < count; ++n) {
      status = element(addr + n * width, bytes.data() + std::size_t{n} * width);
      if (!status.is_ok()) {
        break;
      }
    }
  }
  if (done != nullptr) {
    *done = n;
  }
  return status;
}

Status Machine::fw_read_block(std::uint32_t exec_ip, std::uint32_t addr,
                              std::span<std::uint8_t> bytes, std::uint32_t width,
                              std::uint32_t* done) {
  return fw_block(exec_ip, addr, bytes, width, done);
}

Status Machine::fw_write_block(std::uint32_t exec_ip, std::uint32_t addr,
                               std::span<const std::uint8_t> bytes, std::uint32_t width,
                               std::uint32_t* done) {
  return fw_block(exec_ip, addr, bytes, width, done);
}

bool Machine::check_data(const DecodedOp& op, std::uint32_t addr, Access access) {
  if (!op.data.covers(addr)) {
    if (!op.cached) {
      return check(op.pc, addr, access);
    }
    std::uint64_t lo = 0;
    std::uint64_t hi = std::uint64_t{1} << 32;
    const int code = policy_ == nullptr
                         ? kCheckNoPolicy
                         : policy_->classify_span(op.pc, addr, access, &lo, &hi);
    op.data.fill(lo, hi, code);
  }
  if (observer_ != nullptr) {
    observer_->check(access, op.data.code);
  }
  return op.data.code != kCheckDenied;
}

bool Machine::transfer_allowed(const DecodedOp& op, std::uint32_t target) {
  if (policy_ == nullptr) {
    return true;
  }
  if (!op.transfer.covers(target)) {
    if (!op.cached) {
      return policy_->allows_transfer(op.pc, target);
    }
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    const bool allowed = policy_->allows_transfer_span(op.pc, target, &lo, &hi);
    op.transfer.fill(lo, hi, allowed ? 1 : 0);
  }
  return op.transfer.code != 0;
}

template <typename RawAccess>
bool Machine::guest_access(const DecodedOp& op, std::uint32_t addr, Access access,
                           RawAccess raw) {
  if (!check_data(op, addr, access)) {
    raise_fault({FaultType::kMpuData, op.pc, addr, access});
    return false;
  }
  charge(costs_.mem_access);
  if (!raw()) {
    raise_fault({FaultType::kBusError, op.pc, addr, access});
    return false;
  }
  return true;
}

bool Machine::guest_read32(const DecodedOp& op, std::uint32_t addr, std::uint32_t* out) {
  return guest_access(op, addr, Access::kRead, [&] { return raw_read32(addr, out); });
}

bool Machine::guest_write32(const DecodedOp& op, std::uint32_t addr, std::uint32_t value) {
  return guest_access(op, addr, Access::kWrite, [&] { return raw_write32(addr, value); });
}

bool Machine::guest_read8(const DecodedOp& op, std::uint32_t addr, std::uint8_t* out) {
  return guest_access(op, addr, Access::kRead, [&] { return raw_read8(addr, out); });
}

bool Machine::guest_write8(const DecodedOp& op, std::uint32_t addr, std::uint8_t value) {
  return guest_access(op, addr, Access::kWrite, [&] { return raw_write8(addr, value); });
}

bool Machine::guest_push32(const DecodedOp& op, std::uint32_t value) {
  const std::uint32_t sp = cpu_.sp() - 4;
  if (!guest_write32(op, sp, value)) {
    return false;
  }
  cpu_.set_sp(sp);
  return true;
}

bool Machine::guest_pop32(const DecodedOp& op, std::uint32_t* out) {
  if (!guest_read32(op, cpu_.sp(), out)) {
    return false;
  }
  cpu_.set_sp(cpu_.sp() + 4);
  return true;
}

bool Machine::guest_transfer(const DecodedOp& op, std::uint32_t target) {
  if (!transfer_allowed(op, target)) {
    cpu_.eip = op.pc;  // a denied transfer faults at the branching instruction
    raise_fault({FaultType::kMpuTransfer, op.pc, target, Access::kExecute});
    return false;
  }
  charge(costs_.branch_taken);
  cpu_.eip = target;
  return true;
}

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
  if (dispatch_ == DispatchMode::kCached) {
    if (const DecodedOp* op = next_cached_op()) {
      run_cached_op(*op);
      return halted() ? StepOutcome::kHalted : StepOutcome::kOk;
    }
  }
  const auto fw = firmware_.find(cpu_.eip);
  if (fw != firmware_.end()) {
    ++fw_invocations_;
    if (observer_ != nullptr) {
      observer_->firmware(cycles_, cpu_.eip, fw->second.name);
    }
    fw->second.handler(*this);
    return halted() ? StepOutcome::kHalted : StepOutcome::kOk;
  }
  if (dispatch_ == DispatchMode::kCached && execute_one_cached()) {
    return halted() ? StepOutcome::kHalted : StepOutcome::kOk;
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

const DecodedOp* Machine::next_cached_op() {
  // Cursor hit: the cursor points at the next op of a live block and EIP
  // agrees — skip fetch, decode, the EA-MPU walk, and the firmware map
  // probe (blocks never contain firmware addresses, and register_firmware
  // invalidates).  Liveness is checked BEFORE the block pointer is
  // dereferenced: any invalidation freed it.  The op is returned by
  // address, not copied: a self-modifying store can only *graveyard* the
  // block (deferred free), never destroy it mid-instruction.
  if (cur_block_ != nullptr && dcache_.live(cur_gen_, policy_) &&
      cur_idx_ < cur_block_->ops.size() && cur_block_->ops[cur_idx_].pc == cpu_.eip) {
    return &cur_block_->ops[cur_idx_++];
  }
  // Block-head LUT hit: a branch landed on a block head this machine has
  // activated before — chain straight into it without the firmware map
  // probe or the hash lookup.  Safe for the same reason as the cursor: a
  // cached head is never a firmware entry, and the entry's generation
  // stamp dies with any invalidation (live() also rechecks the policy
  // configuration epoch) — checked before the block is read.
  const BlockLutEntry& lut = block_lut_[lut_index(cpu_.eip)];
  if (dcache_.live(lut.gen, policy_) && lut.block->start == cpu_.eip) {
    cur_block_ = lut.block;
    cur_gen_ = lut.gen;
    cur_idx_ = 1;
    dcache_.note_fast_hit();
    return &lut.block->ops[0];
  }
  return nullptr;
}

HaltReason Machine::run(std::uint64_t cycle_limit) {
  run_limit_ = cycle_limit;
  while (!halted() && cycles_ < cycle_limit) {
    step();
    if (dispatch_ == DispatchMode::kCached) {
      if (observer_ == nullptr) {
        run_chained<Watch::kNone>(cycle_limit);
      } else if (observer_->tracer == nullptr) {
        run_chained<Watch::kHeat>(cycle_limit);
      } else {
        run_chained<Watch::kTrace>(cycle_limit);
      }
    }
  }
  run_limit_ = 0;
  return halted() ? halt_reason_ : HaltReason::kCycleLimit;
}

template <Machine::Watch kWatch>
void Machine::run_chained(std::uint64_t limit) {
  // Heat alone is counted per segment: seg_n ops ran in sequence from
  // seg_pc, and the recorder gets them in one call once the next op does
  // not follow them or the chain stops.  Per op only the opcode and the
  // execute check are counted, and a countdown finds the op the sample
  // stride lands on, which runs alone between two clock reads.
  [[maybe_unused]] obs::HeatRecorder* const recorder = kWatch == Watch::kHeat ? heat() : nullptr;
  [[maybe_unused]] std::uint32_t seg_pc = 0;
  [[maybe_unused]] std::uint32_t seg_n = 0;
  [[maybe_unused]] std::uint64_t until_timed = 0;
  if constexpr (kWatch == Watch::kHeat) {
    until_timed = recorder->until_sample();
  }
  // Each pass stands in for one step() whose top would tick no device
  // (clock below the next tick, timing epoch unchanged), take no IRQ, and
  // stay inside run(): exactly the state in which step() only sets the
  // device latch and dispatches next_cached_op().
  while (!halted() && (pending_ == 0 || !cpu_.flag(isa::kFlagIF)) &&
         bus_.timing_epoch() == device_timing_epoch_) {
    const std::uint64_t horizon = std::min(limit, next_device_tick_);
    if (cycles_ >= horizon) {
      break;
    }
    const DecodedOp* op = next_cached_op();
    if (op == nullptr) {
      break;
    }
    if constexpr (kWatch == Watch::kHeat) {
      if (op->pc != seg_pc + 4 * seg_n) {
        if (seg_n != 0) {
          recorder->on_segment(seg_pc, seg_n);
        }
        seg_pc = op->pc;
        seg_n = 0;
      }
    }
    // A quiet op cannot halt, fault, raise or unmask an IRQ, reach a device
    // or memory (so no block dies and no schedule moves), or leave EIP
    // anywhere but the next op of its block: after one, only the clock and
    // the block's end can stop the chain.
    for (;;) {
      if (op->quiet_run != 0 && cycles_ + op->quiet_cycles < horizon &&
          (kWatch != Watch::kHeat || op->quiet_run < until_timed)) {
        // The whole quiet run fits below the horizon, so stepping would run
        // every op of it and the op after it: one compare stands in for the
        // per-op ones.  Each op still charges its own cycles (rdcyc reads
        // the exact clock) after the observer saw it at its own step top,
        // and the device latch ends at the last op's top.
        const std::size_t run = op->quiet_run;
        const DecodedOp* const end = op + run;
        for (; op != end; ++op) {
          if constexpr (kWatch == Watch::kTrace) {
            // run_cached_op's body: the observer stays set for the chain.
            observer_->fetch(cycles_, op->pc, op->word, op->fetch_class);
            dispatch_observed(*op);
          } else {
            if constexpr (kWatch == Watch::kHeat) {
              recorder->count_dispatch(static_cast<std::uint8_t>(op->instr.opcode),
                                       op->fetch_bucket);
            }
            cycles_ += op->base_cycles;
            execute_op(*op);
          }
        }
        if constexpr (kWatch != Watch::kTrace) {
          instructions_ += run;
        }
        if constexpr (kWatch == Watch::kHeat) {
          seg_n += static_cast<std::uint32_t>(run);
          until_timed -= run;
        }
        step_top_cycles_ = cycles_ - end[-1].base_cycles;
        device_time_dirty_ = true;
        cur_idx_ += run - 1;  // the cursor was already past the run's first op
        if (cur_idx_ == cur_block_->ops.size()) {
          break;
        }
        op = &cur_block_->ops[cur_idx_++];  // not quiet: the run is maximal
      }
      step_top_cycles_ = cycles_;
      device_time_dirty_ = true;
      if constexpr (kWatch == Watch::kHeat) {
        recorder->count_dispatch(static_cast<std::uint8_t>(op->instr.opcode), op->fetch_bucket);
        ++seg_n;
        charge(op->base_cycles);
        ++instructions_;
        if (--until_timed == 0) {
          until_timed = obs::HeatRecorder::kSampleStride;
          execute_timed(*op, *recorder);
        } else {
          execute_op(*op);
        }
      } else {
        run_cached_op(*op);
      }
      if (op->quiet_run == 0 || cycles_ >= horizon || cur_idx_ == cur_block_->ops.size()) {
        break;
      }
      op = &cur_block_->ops[cur_idx_++];
    }
  }
  if constexpr (kWatch == Watch::kHeat) {
    if (seg_n != 0) {
      recorder->on_segment(seg_pc, seg_n);
    }
  }
}

std::uint64_t Machine::fast_forward_spin(std::uint64_t pass_cycles) {
  if (run_limit_ == 0 || pass_cycles == 0 || dispatch_ == DispatchMode::kInterpreter ||
      tracer() != nullptr || pending_ != 0 || !cpu_.flag(isa::kFlagIF) ||
      bus_.timing_epoch() != device_timing_epoch_) {
    return 0;
  }
  // Every pass top before the horizon is a step top at which stepping would
  // tick no device, take no IRQ, and stay inside run(): none of them can
  // differ from the pass just charged.  The first top at or after the
  // horizon is where stepping resumes observable work, and where k lands.
  const std::uint64_t now = cycles_;
  const std::uint64_t horizon = std::min(run_limit_, next_device_tick_);
  if (now >= horizon) {
    return 0;
  }
  const std::uint64_t k = (horizon - now - 1) / pass_cycles + 1;
  cycles_ += k * pass_cycles;
  fw_invocations_ += k;
  step_top_cycles_ = now + (k - 1) * pass_cycles;
  device_time_dirty_ = true;
  return k;
}

inline void Machine::dispatch_observed(const DecodedOp& op) {
  charge(op.base_cycles);
  ++instructions_;
  obs::HeatRecorder* const recorder = heat();
  if (recorder == nullptr ||  // hot path: heat off
      !recorder->on_instruction(op.pc, static_cast<std::uint8_t>(op.instr.opcode))) {
    execute_op(op);
    return;
  }
  execute_timed(op, *recorder);
}

void Machine::execute_timed(const DecodedOp& op, obs::HeatRecorder& recorder) {
  // Sampled dispatch: attribute host nanoseconds to this opcode.  Host
  // clocks never feed back into simulated state, so cycle counts stay
  // bit-identical with the observatory on or off.
  const auto t0 = std::chrono::steady_clock::now();
  execute_op(op);
  const auto t1 = std::chrono::steady_clock::now();
  recorder.attribute(
      static_cast<std::uint8_t>(op.instr.opcode),
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
}

void Machine::execute_one() {
  const std::uint32_t pc = cpu_.eip;
  const int code = classify(pc, pc, Access::kExecute);
  const std::optional<std::uint32_t> word =
      is_mmio(pc) || !memory_.in_bounds(pc, 4) ? std::nullopt : std::optional(memory_.read32(pc));
  if (observer_ != nullptr) {
    // The fetch check's own verdict, observed before any fault it raises.
    observer_->fetch(cycles_, pc, word, code);
  }
  if (code == kCheckDenied || !word) {
    raise_fault({code == kCheckDenied ? FaultType::kMpuFetch : FaultType::kBusError, pc, pc,
                 Access::kExecute});
    return;
  }
  const auto decoded = isa::decode(*word);
  if (!decoded) {
    raise_fault({FaultType::kBadOpcode, pc, pc, Access::kExecute});
    return;
  }
  // Transient decoded op: same OpVariant handler the cache dispatches, with
  // nothing memoized (data, transfer and fetch verdicts resolved live).
  dispatch_observed(decoded_op(pc, *word, *decoded));
}

void Machine::run_cached_op(const DecodedOp& op) {
  if (observer_ != nullptr) {
    // The word and fetch verdict memoized at block build: the interpreter's
    // observation without its policy walk (a denied fetch never enters a
    // block, and a policy change drops the block).
    observer_->fetch(cycles_, op.pc, op.word, op.fetch_class);
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
  block_lut_[lut_index(cpu_.eip)] = {cur_gen_, block};
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
    const int fetch_class = classify(p, p, Access::kExecute);
    if (fetch_class == kCheckDenied) {
      break;
    }
    const std::uint32_t word = memory_.read32(p);
    const auto decoded = isa::decode(word);
    if (!decoded) {
      break;
    }
    DecodedOp op = decoded_op(p, word, *decoded);
    op.fetch_class = fetch_class;
    op.fetch_bucket = static_cast<std::uint8_t>(obs::HeatProfile::bucket_for(fetch_class));
    op.cached = true;
    const std::uint32_t next = p + isa::kInstrSize;
    // Jumps, calls, interrupts and stops end the block: EIP never moves on
    // sequentially.  Conditional branches do not: they stay inside the
    // block, and the taken path re-enters through the cursor-miss lookup.
    const isa::FlowClass flow = isa::opcode_info(op.instr.opcode).flow;
    const bool terminator =
        flow != isa::FlowClass::kNext && flow != isa::FlowClass::kCondBranch;
    block.ops.push_back(op);
    p = next;
    if (terminator) {
      break;
    }
  }
  block.end = p;
  // Fold each maximal run of quiet ops into every op of it: the ops left in
  // the run and their cycle sum (run_chained's budget).
  std::uint8_t run = 0;
  std::uint16_t run_cycles = 0;
  for (auto op = block.ops.rbegin(); op != block.ops.rend(); ++op) {
    if (op_table()[static_cast<std::size_t>(op->instr.opcode)].quiet) {
      run_cycles = static_cast<std::uint16_t>(run_cycles + op->base_cycles);
      op->quiet_run = ++run;
      op->quiet_cycles = run_cycles;
    } else {
      run = 0;
      run_cycles = 0;
    }
  }
  return block;
}

void Machine::execute_op(const DecodedOp& op) {
  cpu_.eip = op.pc + isa::kInstrSize;  // default; branch handlers overwrite
  op.exec(*this, op);
}

}  // namespace tytan::sim
