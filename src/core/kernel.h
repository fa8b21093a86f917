// The (untrusted) operating-system kernel: the FreeRTOS port of the paper,
// extended with secure-task support.
//
// The kernel runs as firmware in the OS window.  It is *not* part of the
// trusted computing base with respect to secure tasks: every access it makes
// goes through the EA-MPU under the OS identity, so it can manage normal
// tasks (their regions are os_accessible) but cannot read or write a secure
// task's memory, stack, or saved context — resuming a secure task is
// delegated to the trusted Int Mux.
//
// Second-level interrupt handlers (the Int Mux branches here):
//   kFwOsKernel + kTickHandlerOff    timer tick -> scheduler
//   kFwOsKernel + kSyscallHandlerOff INT kVecSyscall dispatch
//   kFwFaultHandler                  EA-MPU / CPU fault -> kill offending task
//
// The two firmware-backed tasks, idle and loader, execute one bounded quantum
// per machine step, so they are preemptible by design.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "core/int_mux.h"
#include "core/task_loader.h"
#include "rtos/queue.h"
#include "rtos/scheduler.h"
#include "rtos/timers.h"
#include "sim/devices.h"

namespace tytan::core {

class SecureStorage;
class Rtm;

class Kernel {
 public:
  static constexpr std::uint32_t kIdent = sim::kFwOsKernel;
  static constexpr std::uint32_t kTickHandlerOff = 0x00;
  static constexpr std::uint32_t kSyscallHandlerOff = 0x10;
  static constexpr std::uint32_t kDeviceIrqHandlerOff = 0x20;
  /// Firmware-task entries are handed out from this offset upward.
  static constexpr std::uint32_t kFwTaskEntryOff = 0x100;
  static constexpr std::uint32_t kFwTaskEntryStride = 0x20;
  /// Cycles one pass of the idle task burns.  An idle pass changes nothing
  /// else: it is a constant-cost spin, re-entered every machine step while
  /// idle_task() runs.
  static constexpr std::uint64_t kIdlePassCycles = 20;

  Kernel(sim::Machine& machine, rtos::Scheduler& scheduler, IntMux& int_mux);

  // -- wiring (Platform) -------------------------------------------------------
  void set_loader(TaskLoader* loader) { loader_ = loader; }
  void set_storage(SecureStorage* storage) { storage_ = storage; }
  void set_rtm(Rtm* rtm) { rtm_ = rtm; }
  void set_serial(sim::SerialConsole* serial) { serial_ = serial; }
  void set_timer(sim::TimerDevice* timer) { timer_ = timer; }

  /// Register the kernel's firmware handlers and the Int Mux vector table.
  void install();

  /// Create the idle and loader firmware tasks, program the tick timer, and
  /// dispatch the first task.  `tick_period_cycles` is the RTOS tick period.
  Status start(std::uint32_t tick_period_cycles);

  // -- scheduling services ----------------------------------------------------------
  /// Pick and dispatch the highest-priority ready task (idle always exists).
  void reschedule();
  /// Dispatch a specific ready task immediately (IPC fast resume).
  Status resume_specific(rtos::TaskHandle handle);
  /// Activate a secure task's entry routine for message delivery.
  Status activate_message(rtos::TaskHandle handle);
  /// Wake the loader task (a load job was queued).
  void kick_loader();

  // -- handlers (invoked via firmware dispatch) ----------------------------------------
  void on_tick();
  void on_syscall();
  void on_fault();
  void on_device_irq();

  /// Route a device interrupt vector through the kernel so guest tasks can
  /// park on it with kSysWaitIrq (paper §4: tasks are interrupted "to react
  /// to an event like an arriving network package").
  void route_device_irq(std::uint8_t vector);

  // -- observability --------------------------------------------------------------------
  [[nodiscard]] std::uint64_t tick_count() const { return scheduler_.tick_count(); }
  [[nodiscard]] std::uint64_t syscall_count() const { return syscalls_; }
  [[nodiscard]] std::uint64_t fault_kills() const { return fault_kills_; }

  /// Stall watchdog: a task wedged (BlockReason::kStalled) for this many
  /// ticks is made ready again on the next tick boundary.
  void set_watchdog_ticks(std::uint64_t ticks) { watchdog_ticks_ = ticks; }
  [[nodiscard]] std::uint64_t watchdog_ticks() const { return watchdog_ticks_; }
  [[nodiscard]] std::uint64_t watchdog_restarts() const { return watchdog_restarts_; }
  [[nodiscard]] rtos::TaskHandle idle_task() const { return idle_task_; }
  [[nodiscard]] rtos::TaskHandle loader_task() const { return loader_task_; }
  [[nodiscard]] rtos::QueueSet& queues() { return queues_; }
  [[nodiscard]] rtos::TimerService& timers() { return timers_; }

  // -- snapshots ----------------------------------------------------------------
  /// Serialize / overwrite the kernel's own state: queues, task handles,
  /// firmware-entry cursor, counters, IRQ routing.  The scheduler's task
  /// table is a separate section, restored first; restore rejects a firmware
  /// task that is neither idle nor loader (kCorrupt).  Software timers hold
  /// closures and cannot travel; Platform::save refuses while any are
  /// active, and restore resets the timer service to empty.
  void save_state(snap::Writer& w) const;
  Status restore_state(snap::Reader& r);

 private:
  /// Create one of the two host-backed tasks (start() is the only caller)
  /// and register its machine firmware entry.
  Result<rtos::TaskHandle> create_firmware_task(const std::string& name, unsigned priority);
  /// Register `tcb`'s firmware entry with the machine unless it already is.
  void register_firmware_entry(const rtos::Tcb& tcb);
  /// One quantum of the running firmware task: an idle pass
  /// (kIdlePassCycles) or one loader step; a finished loader parks.
  void run_firmware_quantum();
  void dispatch_guest(rtos::Tcb& tcb);
  void syscall_result(rtos::Tcb& tcb, std::uint32_t value);
  [[nodiscard]] std::uint32_t saved_reg(const rtos::Tcb& tcb, unsigned reg);

  sim::Machine& machine_;
  rtos::Scheduler& scheduler_;
  IntMux& int_mux_;
  TaskLoader* loader_ = nullptr;
  SecureStorage* storage_ = nullptr;
  Rtm* rtm_ = nullptr;
  sim::SerialConsole* serial_ = nullptr;
  sim::TimerDevice* timer_ = nullptr;

  rtos::QueueSet queues_;
  rtos::TimerService timers_;

  rtos::TaskHandle idle_task_ = rtos::kNoTask;
  rtos::TaskHandle loader_task_ = rtos::kNoTask;
  std::uint32_t next_fw_entry_ = kFwTaskEntryOff;
  std::uint64_t syscalls_ = 0;
  std::uint64_t fault_kills_ = 0;
  std::uint64_t watchdog_ticks_ = 8;
  std::uint64_t watchdog_restarts_ = 0;
  std::map<std::uint8_t, std::vector<rtos::TaskHandle>> irq_waiters_;
  std::set<std::uint8_t> routed_irqs_;
};

}  // namespace tytan::core
