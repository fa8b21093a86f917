#include "core/int_mux.h"

#include "common/bytes.h"
#include "common/log.h"
#include "isa/isa.h"

namespace tytan::core {

using rtos::Tcb;
using rtos::TaskHandle;

void IntMux::set_vector_handler(std::uint8_t vector, std::uint32_t fw_addr) {
  vector_handlers_[vector] = fw_addr;
}

// ---------------------------------------------------------------------------
// Shadow TCBs
// ---------------------------------------------------------------------------

Status IntMux::register_secure_task(const Tcb& tcb) {
  if (shadow_.contains(tcb.handle)) {
    return make_error(Err::kAlreadyExists, "shadow TCB already registered");
  }
  const auto slot_index = static_cast<std::uint32_t>(shadow_.size());
  const std::uint32_t slot_addr = kShadowTcbBase + slot_index * kShadowSlotSize;
  if (slot_addr + kShadowSlotSize > kShadowTcbBase + kShadowTcbSize) {
    return make_error(Err::kOutOfMemory, "shadow TCB area exhausted");
  }
  ShadowIndex index{.region_base = tcb.region_base,
                    .region_size = tcb.region_size,
                    .entry = tcb.entry,
                    .stack_top = tcb.stack_top,
                    .slot_addr = slot_addr};
  // The slot record: flags, saved SP, message resume SP, message had-context.
  if (Status s = machine_.fw_write_block(kIdent, slot_addr + kOffFlags,
                                         le_words(kFlagValid, tcb.stack_top, 0, 0), 4);
      !s.is_ok()) {
    return s;
  }
  shadow_[tcb.handle] = index;
  return Status::ok();
}

Status IntMux::unregister_secure_task(TaskHandle handle) {
  const auto it = shadow_.find(handle);
  if (it == shadow_.end()) {
    return Status::ok();
  }
  if (Status s = machine_.fw_write32(kIdent, it->second.slot_addr + kOffFlags, 0); !s.is_ok()) {
    return s;
  }
  shadow_.erase(it);
  return Status::ok();
}

Result<std::uint32_t> IntMux::shadow_sp(TaskHandle handle) const {
  const auto it = shadow_.find(handle);
  if (it == shadow_.end()) {
    return make_error(Err::kNotFound, "no shadow TCB");
  }
  return machine_.fw_read32(kIdent, it->second.slot_addr + kOffSavedSp);
}

// ---------------------------------------------------------------------------
// First-level interrupt entry
// ---------------------------------------------------------------------------

void IntMux::on_interrupt() {
  const std::uint32_t origin = machine_.int_origin_eip();
  const std::uint8_t vector = machine_.int_vector();
  const sim::CostModel& costs = machine_.costs();

  save_stats_ = SaveStats{};
  const std::uint64_t t0 = machine_.cycles();

  Tcb* tcb = task_lookup_ ? task_lookup_(origin) : nullptr;
  if (tcb != nullptr && tcb->kind == rtos::TaskKind::kGuest) {
    // CPU-time accounting: everything since the last dispatch belongs to the
    // interrupted task (basis for the §5 execution-time bounding).
    const std::uint64_t consumed = machine_.cycles() - tcb->dispatch_cycle;
    tcb->cpu_cycles += consumed;
    tcb->budget_used += consumed;
    const bool saved = (tcb->secure && shadow_.contains(tcb->handle))
                           ? save_secure(*tcb)
                           : save_normal(*tcb);
    if (!saved) {
      // The task's stack pointer leads outside writable memory: the context
      // cannot be preserved.  Contain it; the fault handler kills the task.
      contain(origin, machine_.cpu().sp(), sim::Access::kWrite);
      return;
    }
  }
  // Firmware tasks and unknown origins keep their state host-side; nothing to
  // save beyond the hardware-pushed frame.

  const std::uint64_t before_branch = machine_.cycles();
  machine_.charge(costs.intmux_branch);
  save_stats_.branch = machine_.cycles() - before_branch;
  save_stats_.total = machine_.cycles() - t0;

  if (tcb != nullptr && tcb->kind == rtos::TaskKind::kGuest) {
    machine_.obs().emit(obs::EventKind::kCtxSave, tcb->handle,
                        static_cast<std::uint32_t>(save_stats_.total),
                        save_stats_.secure ? 1u : 0u);
    if (save_stats_.secure) {
      machine_.obs().emit(obs::EventKind::kCtxWipe, tcb->handle,
                          static_cast<std::uint32_t>(save_stats_.wipe));
    }
  }

  const auto handler = vector_handlers_.find(vector);
  if (handler == vector_handlers_.end()) {
    TYTAN_CLOG(machine_.log(), LogLevel::kError, "intmux") << "no handler for vector " << int(vector);
    machine_.halt(sim::HaltReason::kDoubleFault);
    return;
  }
  machine_.cpu().eip = handler->second;
}

bool IntMux::save_secure(Tcb& tcb) {
  const sim::CostModel& costs = machine_.costs();
  auto& cpu = machine_.cpu();
  const std::uint64_t t0 = machine_.cycles();

  // Store r0..r6 onto the task's stack (below the hardware frame).
  std::uint32_t sp = cpu.sp();
  for (unsigned i = 0; i < 7; ++i) {
    sp -= 4;
    machine_.charge(costs.intmux_store_reg);
    const Status s = machine_.fw_write32(kIdent, sp, cpu.regs[i]);
    if (!s.is_ok()) {
      return false;  // wild SP — caller contains the task
    }
  }
  // SP goes to the shadow TCB, not anywhere the OS can see.
  machine_.charge(costs.intmux_store_shadow);
  const ShadowIndex& index = shadow_.at(tcb.handle);
  if (!machine_.fw_write32(kIdent, index.slot_addr + kOffSavedSp, sp).is_ok()) {
    return false;  // the context cannot be preserved — contained like a wild SP
  }
  save_stats_.store = machine_.cycles() - t0;

  // Wipe the register file (7 GPRs + SP + arithmetic flags).
  const std::uint64_t t1 = machine_.cycles();
  for (unsigned i = 0; i < isa::kNumGprs; ++i) {
    machine_.charge(costs.intmux_wipe_reg);
    cpu.regs[i] = 0;
  }
  cpu.eflags &= isa::kFlagIF;  // clear Z/C/N/V; IF already cleared by dispatch
  save_stats_.wipe = machine_.cycles() - t1;
  save_stats_.secure = true;

  tcb.context_saved = true;
  return true;
}

bool IntMux::save_normal(Tcb& tcb) {
  // Unmodified-FreeRTOS path: the interrupt handler stores the registers to
  // the task stack; the OS may read them (normal tasks are OS-accessible).
  const sim::CostModel& costs = machine_.costs();
  auto& cpu = machine_.cpu();
  const std::uint64_t t0 = machine_.cycles();
  machine_.charge(costs.ctx_save_normal);
  std::uint32_t sp = cpu.sp();
  for (unsigned i = 0; i < 7; ++i) {
    sp -= 4;
    const Status s = machine_.fw_write32(kIdent, sp, cpu.regs[i]);
    if (!s.is_ok()) {
      return false;  // wild SP — caller contains the task
    }
  }
  cpu.set_sp(sp);
  tcb.saved_sp = sp;
  tcb.context_saved = true;
  save_stats_.store = machine_.cycles() - t0;
  save_stats_.secure = false;
  return true;
}

// ---------------------------------------------------------------------------
// Resume services
// ---------------------------------------------------------------------------

Status IntMux::resume_secure(Tcb& tcb) {
  const auto it = shadow_.find(tcb.handle);
  if (it == shadow_.end()) {
    return make_error(Err::kNotFound, "resume_secure: no shadow TCB");
  }
  if (!tcb.context_saved) {
    return make_error(Err::kInvalidArgument, "resume_secure: no saved context");
  }
  const sim::CostModel& costs = machine_.costs();
  resume_stats_ = ResumeStats{};
  const std::uint64_t t0 = machine_.cycles();
  machine_.charge(costs.resume_branch);
  resume_stats_.branch = machine_.cycles() - t0;

  auto sp = machine_.fw_read32(kIdent, it->second.slot_addr + kOffSavedSp);
  if (!sp.is_ok()) {
    return sp.status();
  }
  auto& cpu = machine_.cpu();
  cpu.set_sp(*sp);
  cpu.regs[1] = kReasonRestore;
  cpu.eflags = isa::kFlagIF;
  cpu.eip = it->second.entry;

  // Calibrated cost of the entry routine's restore path on the modeled core
  // (reason check, seven pops, iret); the guest instructions also execute.
  const std::uint64_t t1 = machine_.cycles();
  machine_.charge(costs.resume_entry_check + 7 * costs.resume_pop_reg + costs.resume_iret);
  resume_stats_.restore = machine_.cycles() - t1;
  resume_stats_.total = machine_.cycles() - t0;

  tcb.context_saved = false;
  tcb.dispatch_cycle = machine_.cycles();
  machine_.obs().emit(obs::EventKind::kCtxRestore, tcb.handle,
                      static_cast<std::uint32_t>(resume_stats_.total),
                      obs::kRestoreResume);
  return Status::ok();
}

Status IntMux::start_secure(Tcb& tcb) {
  const auto it = shadow_.find(tcb.handle);
  if (it == shadow_.end()) {
    return make_error(Err::kNotFound, "start_secure: no shadow TCB");
  }
  machine_.charge(machine_.costs().resume_branch);
  if (Status s = machine_.fw_write32(kIdent, it->second.slot_addr + kOffSavedSp,
                                     it->second.stack_top);
      !s.is_ok()) {
    return s;
  }
  auto& cpu = machine_.cpu();
  cpu.regs.fill(0);
  cpu.set_sp(it->second.stack_top);
  cpu.regs[1] = kReasonStart;
  cpu.eflags = isa::kFlagIF;
  cpu.eip = it->second.entry;
  tcb.started = true;
  tcb.dispatch_cycle = machine_.cycles();
  machine_.obs().emit(obs::EventKind::kCtxRestore, tcb.handle, 0,
                      obs::kRestoreStart);
  return Status::ok();
}

Status IntMux::enter_message(Tcb& tcb) {
  const auto it = shadow_.find(tcb.handle);
  if (it == shadow_.end()) {
    return make_error(Err::kNotFound, "enter_message: no shadow TCB");
  }
  const std::uint32_t slot = it->second.slot_addr;
  auto flags = machine_.fw_read32(kIdent, slot + kOffFlags);
  if (!flags.is_ok()) {
    return flags.status();
  }
  if ((*flags & kFlagMsgActive) != 0) {
    return make_error(Err::kUnavailable, "task already inside its message handler");
  }
  auto saved_sp = machine_.fw_read32(kIdent, slot + kOffSavedSp);
  if (!saved_sp.is_ok()) {
    return saved_sp.status();
  }
  const std::uint32_t sp = tcb.context_saved ? *saved_sp : it->second.stack_top;
  if (Status s = machine_.fw_write_block(
          kIdent, slot + kOffMsgResumeSp,
          le_words(*saved_sp, tcb.context_saved ? 1 : 0), 4);
      !s.is_ok()) {
    return s;
  }
  if (Status s = machine_.fw_write32(kIdent, slot + kOffFlags, *flags | kFlagMsgActive);
      !s.is_ok()) {
    return s;
  }

  machine_.charge(machine_.costs().resume_branch);
  auto& cpu = machine_.cpu();
  cpu.regs.fill(0);
  cpu.set_sp(sp);
  cpu.regs[1] = kReasonMessage;
  cpu.eflags = isa::kFlagIF;
  cpu.eip = it->second.entry;
  tcb.started = true;
  tcb.dispatch_cycle = machine_.cycles();
  // The message handler runs as a nested activation; a pre-message frame (if
  // any) stays intact above the handler's stack usage.
  tcb.context_saved = false;
  machine_.obs().emit(obs::EventKind::kCtxRestore, tcb.handle, 0,
                      obs::kRestoreMessage);
  return Status::ok();
}

Result<bool> IntMux::finish_message(Tcb& tcb) {
  const auto it = shadow_.find(tcb.handle);
  if (it == shadow_.end()) {
    return make_error(Err::kNotFound, "finish_message: no shadow TCB");
  }
  const std::uint32_t slot = it->second.slot_addr;
  auto flags = machine_.fw_read32(kIdent, slot + kOffFlags);
  if (!flags.is_ok()) {
    return flags.status();
  }
  if ((*flags & kFlagMsgActive) == 0) {
    return make_error(Err::kInvalidArgument, "finish_message: no message active");
  }
  // Message resume SP and had-context in, then flags and saved SP out.
  std::array<std::uint8_t, 8> resume{};
  if (Status s = machine_.fw_read_block(kIdent, slot + kOffMsgResumeSp, resume, 4);
      !s.is_ok()) {
    return s;
  }
  const std::uint32_t resume_sp = load_le32(resume.data());
  if (Status s = machine_.fw_write_block(kIdent, slot + kOffFlags,
                                         le_words(*flags & ~kFlagMsgActive, resume_sp), 4);
      !s.is_ok()) {
    return s;
  }
  tcb.context_saved = load_le32(resume.data() + 4) != 0;
  return tcb.context_saved;
}

bool IntMux::message_active(TaskHandle handle) const {
  const auto it = shadow_.find(handle);
  if (it == shadow_.end()) {
    return false;
  }
  auto flags = machine_.fw_read32(kIdent, it->second.slot_addr + kOffFlags);
  return flags.is_ok() && (*flags & kFlagMsgActive) != 0;
}

// ---------------------------------------------------------------------------
// Saved-frame access
// ---------------------------------------------------------------------------

std::uint32_t IntMux::saved_frame_base(const Tcb& tcb) const {
  if (tcb.secure) {
    const auto it = shadow_.find(tcb.handle);
    TYTAN_CHECK(it != shadow_.end(), "saved_frame_base: no shadow TCB");
    auto sp = machine_.fw_read32(kIdent, it->second.slot_addr + kOffSavedSp);
    TYTAN_CHECK(sp.is_ok(), "saved_frame_base: shadow read failed");
    return *sp;
  }
  return tcb.saved_sp;
}

void IntMux::contain(std::uint32_t eip, std::uint32_t addr, sim::Access access) {
  machine_.record_fault({sim::FaultType::kStackFault, eip, addr, access});
  const auto fault_handler = vector_handlers_.find(sim::kVecFault);
  if (fault_handler == vector_handlers_.end()) {
    machine_.halt(sim::HaltReason::kDoubleFault);
    return;
  }
  machine_.charge(machine_.costs().intmux_branch);
  machine_.cpu().eip = fault_handler->second;
}

void IntMux::contain_frame(const Tcb& tcb, unsigned reg, sim::Access access) {
  contain(machine_.int_origin_eip(), saved_frame_base(tcb) + (6 - reg) * 4, access);
}

bool IntMux::reply(const Tcb& tcb, std::uint32_t value) {
  if (!poke_saved_reg(tcb, 0, value).is_ok()) {
    contain_frame(tcb, 0, sim::Access::kWrite);
    return false;
  }
  return true;
}

bool IntMux::read_saved_regs(const Tcb& tcb, std::span<std::uint32_t> regs) {
  for (unsigned reg = 0; reg < regs.size(); ++reg) {
    auto value = peek_saved_reg(tcb, reg);
    if (!value.is_ok()) {
      contain_frame(tcb, reg, sim::Access::kRead);
      return false;
    }
    regs[reg] = *value;
  }
  return true;
}

Status IntMux::poke_saved_reg(const Tcb& tcb, unsigned reg, std::uint32_t value) {
  if (!tcb.context_saved) {
    return make_error(Err::kInvalidArgument, "poke_saved_reg: no saved context");
  }
  if (reg > 6) {
    return make_error(Err::kOutOfRange, "poke_saved_reg: r0..r6 only");
  }
  // Frame layout: [sp]=r6 ... [sp+24]=r0.
  const std::uint32_t addr = saved_frame_base(tcb) + (6 - reg) * 4;
  return machine_.fw_write32(kIdent, addr, value);
}

Result<std::uint32_t> IntMux::peek_saved_reg(const Tcb& tcb, unsigned reg) const {
  if (!tcb.context_saved) {
    return make_error(Err::kInvalidArgument, "peek_saved_reg: no saved context");
  }
  if (reg > 6) {
    return make_error(Err::kOutOfRange, "peek_saved_reg: r0..r6 only");
  }
  const std::uint32_t addr = saved_frame_base(tcb) + (6 - reg) * 4;
  return machine_.fw_read32(kIdent, addr);
}

// ---------------------------------------------------------------------------
// Normal-task restore (FreeRTOS baseline)
// ---------------------------------------------------------------------------

Status IntMux::resume_normal(Tcb& tcb) {
  if (!tcb.context_saved) {
    return make_error(Err::kInvalidArgument, "resume_normal: no saved context");
  }
  const sim::CostModel& costs = machine_.costs();
  resume_stats_ = ResumeStats{};
  const std::uint64_t t0 = machine_.cycles();
  machine_.charge(costs.resume_normal);

  auto& cpu = machine_.cpu();
  const std::uint32_t sp = tcb.saved_sp;
  // Frame: [sp]=r6 ... [sp+24]=r0, [sp+28]=EIP, [sp+32]=EFLAGS.
  std::array<std::uint8_t, kFrameSize> frame{};
  if (Status s = machine_.fw_read_block(sim::kFwOsKernel, sp, frame, 4); !s.is_ok()) {
    return s;
  }
  for (unsigned i = 0; i < 7; ++i) {
    cpu.regs[6 - i] = load_le32(frame.data() + i * 4);
  }
  cpu.set_sp(sp + kFrameSize);
  cpu.eflags = load_le32(frame.data() + kFrameEflagsOffset) | isa::kFlagIF;
  cpu.eip = load_le32(frame.data() + kFrameEipOffset);
  tcb.context_saved = false;
  tcb.dispatch_cycle = machine_.cycles();
  resume_stats_.restore = machine_.cycles() - t0;
  resume_stats_.total = resume_stats_.restore;
  machine_.obs().emit(obs::EventKind::kCtxRestore, tcb.handle,
                      static_cast<std::uint32_t>(resume_stats_.total),
                      obs::kRestoreNormal);
  return Status::ok();
}

Status IntMux::state(snap::Io& io) {
  io.entries(vector_handlers_, [&io](std::uint8_t& vector, std::uint32_t& handler) {
    io.u8(vector);
    io.u32(handler);
  });
  io.entries(shadow_, [&io](rtos::TaskHandle& handle, ShadowIndex& index) {
    io.i32(handle);
    io.u32(index.region_base);
    io.u32(index.region_size);
    io.u32(index.entry);
    io.u32(index.stack_top);
    io.u32(index.slot_addr);
  });
  io.u64(save_stats_.store);
  io.u64(save_stats_.wipe);
  io.u64(save_stats_.branch);
  io.u64(save_stats_.total);
  io.boolean(save_stats_.secure);
  io.u64(resume_stats_.branch);
  io.u64(resume_stats_.restore);
  io.u64(resume_stats_.total);
  return Status::ok();
}

}  // namespace tytan::core
