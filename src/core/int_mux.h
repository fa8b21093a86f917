// Trusted interrupt multiplexer (paper §4, "Interrupting secure tasks").
//
// All interrupt vectors point here (first-level handler).  On entry the
// hardware exception engine has already pushed EIP and EFLAGS onto the
// interrupted task's stack and latched the interrupt origin and vector.
// The Int Mux then:
//   1. identifies the interrupted code by the latched origin EIP,
//   2. for a *secure* task: saves the remaining CPU registers to the task's
//      own stack, records the resulting SP in the shadow TCB (a trusted
//      region the OS cannot read), and wipes the register file so the
//      untrusted handler learns nothing about the task's state,
//   3. for a *normal* task: saves the registers without wiping (this is the
//      unmodified-FreeRTOS behaviour the paper compares against in Table 2),
//   4. branches to the second-level handler registered for the vector.
//
// It also implements the trusted resume services (Table 3) and message
// delivery entry used by the IPC proxy.
#pragma once

#include <functional>
#include <map>
#include <span>

#include "common/status.h"
#include "core/layout.h"
#include "rtos/task.h"
#include "sim/machine.h"

namespace tytan::core {

class IntMux {
 public:
  /// Cycle breakdown of the last context save (bench for Table 2).
  struct SaveStats {
    std::uint64_t store = 0;
    std::uint64_t wipe = 0;
    std::uint64_t branch = 0;
    std::uint64_t total = 0;
    bool secure = false;
  };

  /// Cycle breakdown of the last resume request (bench for Table 3).
  struct ResumeStats {
    std::uint64_t branch = 0;
    std::uint64_t restore = 0;
    std::uint64_t total = 0;
  };

  explicit IntMux(sim::Machine& machine) : machine_(machine) {}

  /// Execution identity of this component (EA-MPU code region).
  static constexpr std::uint32_t kIdent = sim::kFwIntMux;

  // -- wiring -------------------------------------------------------------------
  /// Second-level handler (a firmware address) for an interrupt vector.
  void set_vector_handler(std::uint8_t vector, std::uint32_t fw_addr);
  /// Resolver mapping a code address to the guest task executing there.
  void set_task_lookup(std::function<rtos::Tcb*(std::uint32_t)> lookup) {
    task_lookup_ = std::move(lookup);
  }

  // -- shadow TCBs ----------------------------------------------------------------
  Status register_secure_task(const rtos::Tcb& tcb);
  /// Clears the slot's valid flag; on a failed write the shadow TCB stays
  /// registered and the failure is returned.
  Status unregister_secure_task(rtos::TaskHandle handle);
  /// Saved SP of a secure task (trusted read; tests use it to validate the
  /// frame the OS cannot see).
  Result<std::uint32_t> shadow_sp(rtos::TaskHandle handle) const;

  // -- first-level interrupt entry (registered at kIdent) ---------------------------
  void on_interrupt();

  // -- trusted services for the kernel / IPC proxy ----------------------------------
  /// Resume an interrupted secure task: SP from the shadow TCB, reason code
  /// in r1, branch to the dedicated entry point whose routine restores the
  /// context and irets (paper §4, "(Re)starting secure tasks").
  Status resume_secure(rtos::Tcb& tcb);
  /// First activation of a secure task (reason kReasonStart).
  Status start_secure(rtos::Tcb& tcb);
  /// Branch into a secure task's entry routine for message delivery
  /// (reason kReasonMessage).  Remembers the pre-message context so
  /// msg_done can restore it.
  Status enter_message(rtos::Tcb& tcb);
  /// End-of-message bookkeeping: restore the pre-message shadow SP.
  /// Returns true if a pre-message context exists (task should be resumed),
  /// false if the task should park until its next activation.
  Result<bool> finish_message(rtos::Tcb& tcb);
  /// True while the task is executing its message handler.
  [[nodiscard]] bool message_active(rtos::TaskHandle handle) const;

  /// Hand `value` back in a syscall or IPC caller's saved r0.  False when
  /// the frame cannot be written: the caller is then contained (see
  /// read_saved_regs) and must not be resumed.
  [[nodiscard]] bool reply(const rtos::Tcb& tcb, std::uint32_t value);
  /// Read r0..r(regs.size()-1) of a syscall or IPC caller's saved frame into
  /// `regs`.  False when a slot cannot be read: the caller is then
  /// contained, never served with made-up arguments — the way on_interrupt
  /// contains a context it cannot save: a kStackFault at the interrupt
  /// origin on that frame word, and a branch to the fault handler, which
  /// kills the task.
  [[nodiscard]] bool read_saved_regs(const rtos::Tcb& tcb, std::span<std::uint32_t> regs);

  // -- normal-task context ops (the OS-visible path) --------------------------------
  /// Restore a normal task's context from its stack (FreeRTOS behaviour;
  /// exposed here so kernel and benches share one implementation).
  Status resume_normal(rtos::Tcb& tcb);

  [[nodiscard]] const SaveStats& last_save() const { return save_stats_; }
  [[nodiscard]] const ResumeStats& last_resume() const { return resume_stats_; }

  // -- snapshots ----------------------------------------------------------------
  /// Walk the shadow-TCB index, vector handler table, and last save/resume
  /// stats (snap::Io).  The authoritative shadow slot *contents* live in
  /// trusted physical memory and travel with the memory section.
  Status state(snap::Io& io);

 private:
  struct ShadowIndex {
    std::uint32_t region_base = 0;
    std::uint32_t region_size = 0;
    std::uint32_t entry = 0;
    std::uint32_t stack_top = 0;
    std::uint32_t slot_addr = 0;  ///< address of the entry in trusted memory
  };

  /// Shadow slot field offsets (trusted memory, kShadowTcbBase).
  static constexpr std::uint32_t kShadowSlotSize = 20;
  static constexpr std::uint32_t kOffFlags = 0;
  static constexpr std::uint32_t kOffSavedSp = 4;
  static constexpr std::uint32_t kOffMsgResumeSp = 8;
  static constexpr std::uint32_t kOffMsgHadCtx = 12;
  static constexpr std::uint32_t kFlagValid = 1u << 0;
  static constexpr std::uint32_t kFlagMsgActive = 1u << 1;

  [[nodiscard]] std::uint32_t saved_frame_base(const rtos::Tcb& tcb) const;
  /// Record a kStackFault at `eip` on `addr` and branch to the fault handler
  /// (a kDoubleFault halt without one).
  void contain(std::uint32_t eip, std::uint32_t addr, sim::Access access);
  /// contain() the current task after `access` to saved-frame slot `reg`
  /// failed.
  void contain_frame(const rtos::Tcb& tcb, unsigned reg, sim::Access access);
  /// One register slot of a task's saved frame, r0..r6.
  [[nodiscard]] Status poke_saved_reg(const rtos::Tcb& tcb, unsigned reg, std::uint32_t value);
  [[nodiscard]] Result<std::uint32_t> peek_saved_reg(const rtos::Tcb& tcb, unsigned reg) const;

  /// Return false if the task's stack is not writable (wild SP); the caller
  /// routes to the fault handler instead of crashing the TCB.
  bool save_secure(rtos::Tcb& tcb);
  bool save_normal(rtos::Tcb& tcb);

  sim::Machine& machine_;
  std::function<rtos::Tcb*(std::uint32_t)> task_lookup_;
  std::map<std::uint8_t, std::uint32_t> vector_handlers_;
  std::map<rtos::TaskHandle, ShadowIndex> shadow_;
  SaveStats save_stats_;
  ResumeStats resume_stats_;
};

}  // namespace tytan::core
