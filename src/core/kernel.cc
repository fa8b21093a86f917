#include "core/kernel.h"

#include "common/bytes.h"
#include "common/log.h"
#include "core/secure_storage.h"
#include "fault/fault.h"

namespace tytan::core {

using rtos::BlockReason;
using rtos::TaskHandle;
using rtos::TaskKind;
using rtos::TaskState;
using rtos::Tcb;

Kernel::Kernel(sim::Machine& machine, rtos::Scheduler& scheduler, IntMux& int_mux)
    : machine_(machine), scheduler_(scheduler), int_mux_(int_mux) {}

void Kernel::install() {
  machine_.register_firmware(kIdent + kTickHandlerOff, "os-tick",
                             [this](sim::Machine&) { on_tick(); });
  machine_.register_firmware(kIdent + kSyscallHandlerOff, "os-syscall",
                             [this](sim::Machine&) { on_syscall(); });
  machine_.register_firmware(sim::kFwFaultHandler, "os-fault",
                             [this](sim::Machine&) { on_fault(); });
  machine_.register_firmware(kIdent + kDeviceIrqHandlerOff, "os-device-irq",
                             [this](sim::Machine&) { on_device_irq(); });
  int_mux_.set_vector_handler(sim::kVecTimer, kIdent + kTickHandlerOff);
  int_mux_.set_vector_handler(sim::kVecSyscall, kIdent + kSyscallHandlerOff);
  int_mux_.set_vector_handler(sim::kVecFault, sim::kFwFaultHandler);
  int_mux_.set_task_lookup([this](std::uint32_t addr) -> Tcb* {
    for (const TaskHandle handle : scheduler_.handles()) {
      Tcb* tcb = scheduler_.get(handle);
      if (tcb != nullptr && tcb->kind == TaskKind::kGuest && addr >= tcb->region_base &&
          addr - tcb->region_base < tcb->region_size) {
        return tcb;
      }
    }
    return nullptr;
  });
}

Result<TaskHandle> Kernel::create_firmware_task(const std::string& name, unsigned priority) {
  auto handle = scheduler_.create(
      {.name = name, .priority = priority, .secure = false, .kind = TaskKind::kFirmware});
  if (!handle.is_ok()) {
    return handle;
  }
  Tcb* tcb = scheduler_.get(*handle);

  // A small stack for hardware interrupt frames.
  auto stack = loader_->arena().alloc(256);
  if (!stack.is_ok()) {
    scheduler_.destroy(*handle);
    return stack.status();
  }
  tcb->region_base = *stack;
  tcb->region_size = 256;
  tcb->stack_top = *stack + 256;

  tcb->entry = kIdent + next_fw_entry_;
  next_fw_entry_ += kFwTaskEntryStride;
  register_firmware_entry(*tcb);
  return *handle;
}

void Kernel::register_firmware_entry(const Tcb& tcb) {
  if (!machine_.is_firmware(tcb.entry)) {
    machine_.register_firmware(tcb.entry, "fwtask:" + tcb.name,
                               [this](sim::Machine&) { run_firmware_quantum(); });
  }
}

Status Kernel::start(std::uint32_t tick_period_cycles) {
  TYTAN_CHECK(loader_ != nullptr, "kernel: loader not wired");
  auto idle = create_firmware_task("idle", rtos::kIdlePriority);
  if (!idle.is_ok()) {
    return idle.status();
  }
  idle_task_ = *idle;
  scheduler_.make_ready(idle_task_);

  auto loader_task = create_firmware_task("loader", /*priority=*/1);
  if (!loader_task.is_ok()) {
    return loader_task.status();
  }
  loader_task_ = *loader_task;
  // The loader parks until a job arrives.

  if (timer_ != nullptr && tick_period_cycles != 0) {
    timer_->write32(sim::TimerDevice::kPeriod, tick_period_cycles);
    timer_->write32(sim::TimerDevice::kCtrl, 1);
  }
  reschedule();
  return Status::ok();
}

void Kernel::kick_loader() {
  Tcb* tcb = scheduler_.get(loader_task_);
  if (tcb != nullptr && (tcb->state == TaskState::kBlocked ||
                         tcb->state == TaskState::kSuspended)) {
    scheduler_.make_ready(loader_task_);
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void Kernel::reschedule() {
  machine_.charge(machine_.costs().sched_pick);
  Tcb* tcb = nullptr;
  while (true) {
    const TaskHandle next = scheduler_.pick_next();
    TYTAN_CHECK(next != rtos::kNoTask, "kernel: no ready task (idle missing?)");
    tcb = scheduler_.get(next);
    // Execution-time bounding (paper §5): a task that exhausted its CPU
    // budget for this tick window is deferred to the next tick.
    if (tcb->kind == TaskKind::kGuest && tcb->budget_per_tick != 0 &&
        tcb->budget_used >= tcb->budget_per_tick) {
      ++tcb->throttle_events;
      scheduler_.delay_until(next, scheduler_.tick_count() + 1);
      continue;
    }
    // Fault injection: wedge the task on the edge of its dispatch.  It stays
    // blocked as kStalled — nothing but the watchdog (on_tick) wakes it.
    if (tcb->kind == TaskKind::kGuest && !tcb->stalled) {
      if (fault::FaultEngine* engine = machine_.faults();
          engine != nullptr &&
          engine->on_task_dispatch(tcb->name, machine_.cycles())) {
        tcb->stalled = true;
        tcb->stall_since_tick = scheduler_.tick_count();
        machine_.obs().emit(obs::EventKind::kFaultInject, next,
                            static_cast<std::uint32_t>(fault::FaultClass::kTaskStall));
        TYTAN_CLOG(machine_.log(), LogLevel::kWarn, "kernel")
            << "fault injection: task '" << tcb->name << "' stalled";
        scheduler_.block(next, rtos::BlockReason::kStalled);
        continue;
      }
    }
    const Status s = scheduler_.dispatch(next);
    TYTAN_CHECK(s.is_ok(), "kernel: dispatch failed: " + s.to_string());
    break;
  }

  if (tcb->kind == TaskKind::kFirmware) {
    auto& cpu = machine_.cpu();
    cpu.set_sp(tcb->stack_top);
    cpu.eflags = isa::kFlagIF;
    cpu.eip = tcb->entry;
    return;
  }
  dispatch_guest(*tcb);
}

void Kernel::dispatch_guest(Tcb& tcb) {
  if (tcb.secure) {
    Status s;
    if (tcb.context_saved) {
      s = int_mux_.resume_secure(tcb);
    } else if (tcb.message_pending) {
      tcb.message_pending = false;
      machine_.charge(machine_.costs().ipc_receiver_entry);
      s = int_mux_.enter_message(tcb);
    } else {
      s = int_mux_.start_secure(tcb);
    }
    TYTAN_CHECK(s.is_ok(), "kernel: secure dispatch failed: " + s.to_string());
    return;
  }
  // Normal task: the OS restores the context itself (FreeRTOS behaviour).
  const Status s = int_mux_.resume_normal(tcb);
  TYTAN_CHECK(s.is_ok(), "kernel: normal dispatch failed: " + s.to_string());
}

Status Kernel::resume_specific(TaskHandle handle) {
  Tcb* tcb = scheduler_.get(handle);
  if (tcb == nullptr) {
    return make_error(Err::kNotFound, "resume_specific: no such task");
  }
  if (scheduler_.current_handle() == handle) {
    // Still the running task (e.g. returning from a syscall).  Yield only if
    // something more urgent became ready meanwhile.
    if (scheduler_.higher_priority_ready()) {
      scheduler_.preempt_current();
      reschedule();
      return Status::ok();
    }
    if (tcb->kind == TaskKind::kFirmware) {
      auto& cpu = machine_.cpu();
      cpu.set_sp(tcb->stack_top);
      cpu.eflags = isa::kFlagIF;
      cpu.eip = tcb->entry;
    } else {
      dispatch_guest(*tcb);
    }
    return Status::ok();
  }
  scheduler_.make_ready(handle);
  reschedule();
  return Status::ok();
}

Status Kernel::activate_message(TaskHandle handle) {
  Tcb* tcb = scheduler_.get(handle);
  if (tcb == nullptr || !tcb->secure) {
    return make_error(Err::kNotFound, "activate_message: no such secure task");
  }
  machine_.charge(machine_.costs().ipc_receiver_entry);
  if (Status s = int_mux_.enter_message(*tcb); !s.is_ok()) {
    return s;
  }
  // The receiver becomes the running task.
  scheduler_.make_ready(handle);
  scheduler_.dispatch(handle);
  tcb->message_pending = false;
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

void Kernel::route_device_irq(std::uint8_t vector) {
  // The IDT entry itself (vector -> Int Mux) is installed by secure boot and
  // locked; the kernel only chooses the second-level handler.
  int_mux_.set_vector_handler(vector, kIdent + kDeviceIrqHandlerOff);
  routed_irqs_.insert(vector);
}

void Kernel::on_device_irq() {
  machine_.charge(machine_.costs().syscall_base);
  const std::uint8_t vector = machine_.int_vector();
  // Wake every task parked on this vector (edge-triggered wake).
  auto& waiters = irq_waiters_[vector];
  for (const TaskHandle handle : waiters) {
    Tcb* tcb = scheduler_.get(handle);
    if (tcb != nullptr && tcb->state == TaskState::kBlocked &&
        tcb->block_reason == BlockReason::kIrq) {
      scheduler_.make_ready(handle);
    }
  }
  waiters.clear();
  if (scheduler_.current() != nullptr) {
    scheduler_.preempt_current();
  }
  reschedule();
}

void Kernel::on_tick() {
  machine_.charge(machine_.costs().sched_tick);
  scheduler_.tick();
  timers_.advance(scheduler_.tick_count());
  // Execution-time budgets refill as a leaky bucket: each tick drains one
  // budget quantum, so a task that used a whole window pays it back over the
  // following windows — long-run CPU share converges to budget/tick_period.
  for (const TaskHandle handle : scheduler_.handles()) {
    if (Tcb* tcb = scheduler_.get(handle); tcb != nullptr) {
      if (tcb->budget_per_tick == 0) {
        tcb->budget_used = 0;
      } else {
        tcb->budget_used = tcb->budget_used > tcb->budget_per_tick
                               ? tcb->budget_used - tcb->budget_per_tick
                               : 0;
      }
    }
  }
  // Watchdog: restart tasks wedged longer than the stall timeout.  This is
  // the recovery path for task-stall injection — the restart count feeds
  // telemetry so the fleet can tell flaky tasks from healthy ones.
  for (const TaskHandle handle : scheduler_.handles()) {
    Tcb* tcb = scheduler_.get(handle);
    if (tcb == nullptr || !tcb->stalled) {
      continue;
    }
    if (scheduler_.tick_count() - tcb->stall_since_tick < watchdog_ticks_) {
      continue;
    }
    tcb->stalled = false;
    ++tcb->watchdog_restarts;
    ++watchdog_restarts_;
    if (fault::FaultEngine* engine = machine_.faults(); engine != nullptr) {
      engine->note_recovery(fault::FaultClass::kTaskStall);
    }
    machine_.obs().emit(obs::EventKind::kFaultRecover, handle,
                        static_cast<std::uint32_t>(fault::RecoveryKind::kTaskRestart),
                        static_cast<std::uint32_t>(tcb->watchdog_restarts));
    TYTAN_CLOG(machine_.log(), LogLevel::kInfo, "kernel")
        << "watchdog restarted task '" << tcb->name << "' (restart "
        << tcb->watchdog_restarts << ")";
    scheduler_.make_ready(handle);
  }
  if (scheduler_.current() != nullptr) {
    scheduler_.preempt_current();
  }
  reschedule();
}

std::uint32_t Kernel::saved_reg(const Tcb& tcb, unsigned reg) {
  auto value = int_mux_.peek_saved_reg(tcb, reg);
  return value.is_ok() ? *value : 0;
}

void Kernel::syscall_result(Tcb& tcb, std::uint32_t value) {
  int_mux_.poke_saved_reg(tcb, 0, value);
}

void Kernel::on_syscall() {
  ++syscalls_;
  machine_.charge(machine_.costs().syscall_base);
  Tcb* tcb = scheduler_.current();
  if (tcb == nullptr || tcb->kind != TaskKind::kGuest) {
    // Spurious syscall (e.g. from firmware) — ignore and reschedule.
    reschedule();
    return;
  }
  const std::uint32_t number = saved_reg(*tcb, 0);
  machine_.obs().emit(obs::EventKind::kSyscall, tcb->handle, number);
  const std::uint32_t a1 = saved_reg(*tcb, 1);
  const std::uint32_t a2 = saved_reg(*tcb, 2);
  const std::uint32_t a3 = saved_reg(*tcb, 3);
  // The common exit: hand `value` back in r0 and resume the caller.
  const auto reply = [&](std::uint32_t value) {
    syscall_result(*tcb, value);
    resume_specific(tcb->handle);
  };

  switch (number) {
    case kSysYield:
      syscall_result(*tcb, kSysOk);
      scheduler_.yield_current();
      reschedule();
      return;
    case kSysDelay: {
      syscall_result(*tcb, kSysOk);
      scheduler_.delay_until(tcb->handle, scheduler_.tick_count() + std::max(1u, a1));
      reschedule();
      return;
    }
    case kSysExit: {
      const TaskHandle handle = tcb->handle;
      if (loader_ != nullptr) {
        loader_->unload(handle);
      } else {
        scheduler_.destroy(handle);
      }
      reschedule();
      return;
    }
    case kSysPutchar: {
      if (serial_ != nullptr) {
        serial_->write32(sim::SerialConsole::kData, a1);
      }
      return reply(kSysOk);
    }
    case kSysGetTick:
      return reply(static_cast<std::uint32_t>(scheduler_.tick_count()));
    case kSysWaitMsg: {
      if (!tcb->secure) {
        return reply(kSysErr);
      }
      if (tcb->message_pending) {
        // Deliver immediately: discard the wait frame and run the handler.
        tcb->context_saved = false;
        scheduler_.block(tcb->handle, BlockReason::kMessage);
        scheduler_.make_ready(tcb->handle);
        activate_message(tcb->handle);
        return;
      }
      tcb->context_saved = false;  // parked; next activation is a fresh entry
      scheduler_.block(tcb->handle, BlockReason::kMessage);
      reschedule();
      return;
    }
    case kSysMsgDone: {
      if (!tcb->secure) {
        return reply(kSysErr);
      }
      auto had_ctx = int_mux_.finish_message(*tcb);
      if (!had_ctx.is_ok()) {
        return reply(kSysErr);
      }
      if (*had_ctx) {
        // Resume the pre-message context.
        scheduler_.yield_current();
        scheduler_.make_ready(tcb->handle);
        reschedule();
      } else {
        scheduler_.block(tcb->handle, BlockReason::kMessage);
        reschedule();
      }
      return;
    }
    case kSysSealStore:
    case kSysSealLoad: {
      if (storage_ == nullptr) {
        return reply(kSysErr);
      }
      const std::uint32_t result =
          (number == kSysSealStore)
              ? storage_->store_from_guest(*tcb, a1, a2, a3)
              : storage_->load_to_guest(*tcb, a1, a2, a3);
      return reply(result);
    }
    case kSysQueueSend:
    case kSysQueueRecv: {
      if (tcb->secure) {
        // Secure tasks use the authenticated IPC proxy, not OS queues (the
        // OS would have to touch their memory to copy the payload).
        return reply(kSysErr);
      }
      const auto queue = static_cast<rtos::QueueHandle>(a1);
      // The four-word item moves between the queue and the buffer at a2.
      bool ok = false;
      if (number == kSysQueueSend) {
        std::array<std::uint8_t, 16> bytes{};
        if (machine_.fw_read_block(kIdent, a2, bytes, 4).is_ok()) {
          ok = queues_.send(queue, {load_le32(&bytes[0]), load_le32(&bytes[4]),
                                    load_le32(&bytes[8]), load_le32(&bytes[12])})
                   .is_ok();
        }
      } else if (auto item = queues_.receive(queue); item.is_ok()) {
        const rtos::QueueItem& words = *item;
        ok = machine_.fw_write_block(kIdent, a2,
                                     le_words(words[0], words[1], words[2], words[3]), 4)
                 .is_ok();
      }
      return reply(ok ? kSysOk : kSysErr);
    }
    case kSysWaitIrq: {
      const auto vector = static_cast<std::uint8_t>(a1 & 0x3F);
      if (!routed_irqs_.contains(vector)) {
        // Only device vectors routed through the kernel are waitable; a task
        // must not park on the syscall/IPC/tick vectors.
        return reply(kSysErr);
      }
      syscall_result(*tcb, kSysOk);
      irq_waiters_[vector].push_back(tcb->handle);
      scheduler_.block(tcb->handle, BlockReason::kIrq);
      reschedule();
      return;
    }
    case kSysGetId: {
      // The RTM (sole owner of identities) writes the caller's id_t into the
      // caller-supplied buffer; its background rule reaches task memory.
      if (rtm_ == nullptr || !tcb->measured) {
        return reply(kSysErr);
      }
      const bool ok = machine_.fw_write_block(Rtm::kIdent, a1, tcb->identity, 1).is_ok();
      return reply(ok ? kSysOk : kSysErr);
    }
    case kSysLocalAttest: {
      // Local attestation (paper §3): verify that a task with the given id_t
      // is currently loaded, by consulting the RTM registry.
      if (rtm_ == nullptr) {
        return reply(kSysErr);
      }
      rtos::TaskIdentity id{};
      const bool ok = machine_.fw_read_block(Rtm::kIdent, a1, id, 1).is_ok();
      return reply(ok && rtm_->find_by_identity(id) != nullptr ? kSysOk : kSysErr);
    }
    default:
      return reply(kSysErr);
  }
}

void Kernel::on_fault() {
  const sim::FaultInfo& fault = machine_.last_fault();
  Tcb* tcb = scheduler_.current();
  TYTAN_CLOG(machine_.log(), LogLevel::kWarn, "kernel")
      << "fault: " << fault.to_string() << " current="
      << (tcb != nullptr ? tcb->name : std::string("<none>"));
  if (tcb != nullptr && tcb->kind == TaskKind::kGuest) {
    ++fault_kills_;
    const TaskHandle handle = tcb->handle;
    if (loader_ != nullptr) {
      loader_->unload(handle);
    } else {
      scheduler_.destroy(handle);
    }
    reschedule();
    return;
  }
  // Fault without a guest task: stop the machine, something is wrong with
  // the platform configuration itself.
  machine_.halt(sim::HaltReason::kDoubleFault);
}

// ---------------------------------------------------------------------------
// Firmware task execution
// ---------------------------------------------------------------------------

void Kernel::run_firmware_quantum() {
  Tcb* tcb = scheduler_.current();
  if (tcb == nullptr || tcb->kind != TaskKind::kFirmware ||
      machine_.cpu().eip != tcb->entry) {
    // Stale entry (task switched away mid-quantum) — just reschedule.
    reschedule();
    return;
  }
  const std::uint64_t t0 = machine_.cycles();
  bool more = true;
  if (tcb->handle == idle_task_) {
    // One pass, then every further pass stepping would repeat before the
    // next event (a no-op outside Machine::run or in the interpreter).
    machine_.charge(kIdlePassCycles);
    machine_.fast_forward_spin(kIdlePassCycles);
  } else {
    more = loader_->load_quantum();
  }
  tcb->cpu_cycles += machine_.cycles() - t0;
  if (!more) {
    scheduler_.block(tcb->handle, BlockReason::kQueueRecv);
    reschedule();
  }
  // Otherwise EIP stays at the task entry: the next machine step re-invokes
  // the quantum, and pending interrupts can preempt in between.
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

Status Kernel::state(snap::Io& io) {
  if (Status s = queues_.state(io); !s.is_ok()) {
    return s;
  }
  io.i32(idle_task_);
  io.i32(loader_task_);
  io.u32(next_fw_entry_);
  io.u64(syscalls_);
  io.u64(fault_kills_);
  io.u64(watchdog_ticks_);
  io.u64(watchdog_restarts_);
  io.entries(irq_waiters_, [&io](std::uint8_t& vector, std::vector<TaskHandle>& waiters) {
    io.u8(vector);
    io.sequence(waiters, [&io](TaskHandle& task) { io.i32(task); });
  });
  std::vector<std::uint8_t> routed(routed_irqs_.begin(), routed_irqs_.end());
  io.sequence(routed, [&io](std::uint8_t& vector) { io.u8(vector); });
  if (io.loading()) {
    routed_irqs_ = {routed.begin(), routed.end()};
    timers_.clear();  // snapshots are only taken with no timers active
    // The scheduler's task table (SCHD) is already restored.  Its firmware
    // tasks must be this kernel's idle and loader; their machine entries are
    // wiring, re-registered when restoring into a platform that never booted
    // (Platform::clone, replay tooling).
    for (const TaskHandle handle : scheduler_.handles()) {
      const Tcb* tcb = scheduler_.get(handle);
      if (tcb->kind != TaskKind::kFirmware) {
        continue;
      }
      if (handle != idle_task_ && handle != loader_task_) {
        return make_error(Err::kCorrupt, "snapshot firmware task '" + tcb->name +
                                             "' is neither the idle nor the loader task");
      }
      register_firmware_entry(*tcb);
    }
  }
  return Status::ok();
}

}  // namespace tytan::core
