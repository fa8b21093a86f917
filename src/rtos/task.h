// Task control blocks for the FreeRTOS-like kernel.
//
// The paper ports FreeRTOS to Siskiyou Peak and extends it with dynamic
// handling of secure tasks (§4).  This module is the *scheduler* half: pure
// data structures and policy, no machine access — the platform wiring
// (context switching through the Int Mux, syscalls, loading) lives in
// src/core.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace tytan::rtos {

using TaskHandle = int;
inline constexpr TaskHandle kNoTask = -1;

/// Priorities: 0 = lowest (idle); larger = more urgent.
inline constexpr unsigned kNumPriorities = 8;
inline constexpr unsigned kIdlePriority = 0;

enum class TaskState : std::uint8_t {
  kReady,      ///< runnable, waiting for the CPU
  kRunning,    ///< currently executing
  kBlocked,    ///< waiting for a tick deadline, queue, or message
  kSuspended,  ///< explicitly suspended ("loaded but should not execute")
  kDead,       ///< unloaded; TCB pending reuse
};

const char* task_state_name(TaskState s);

/// What backs the task's execution.
enum class TaskKind : std::uint8_t {
  kGuest,     ///< guest code on the simulated CPU
  kFirmware,  ///< host-implemented kernel task (idle, loader)
};

/// Why a task is blocked (for diagnostics and wake filtering).
enum class BlockReason : std::uint8_t {
  kNone,
  kDelay,        ///< vTaskDelay-style timed block
  kQueueSend,    ///< waiting for queue space
  kQueueRecv,    ///< waiting for queue data
  kMessage,      ///< waiting for secure IPC delivery
  kIrq,          ///< waiting for a bound device interrupt
  kStalled,      ///< wedged (fault injection); only the watchdog wakes it
};

/// 64-bit task identity: the first 64 bits of the SHA-1 over the
/// de-relocated binary (paper footnote 9).
using TaskIdentity = std::array<std::uint8_t, 8>;

struct Tcb {
  TaskHandle handle = kNoTask;
  std::string name;
  unsigned priority = 1;
  TaskState state = TaskState::kReady;
  TaskKind kind = TaskKind::kGuest;
  bool secure = false;

  // -- memory layout (absolute addresses; guest tasks) -----------------------
  std::uint32_t region_base = 0;
  std::uint32_t region_size = 0;
  std::uint32_t entry = 0;        ///< absolute entry address
  std::uint32_t msg_handler = 0;  ///< absolute message-handler address (secure)
  std::uint32_t mailbox = 0;      ///< absolute mailbox address (secure)
  std::uint32_t stack_top = 0;    ///< initial SP (top of stack region)
  std::uint32_t image_size = 0;   ///< bytes of loaded image (for measurement)

  // -- saved context (normal tasks; secure tasks use the Int Mux shadow) -----
  std::uint32_t saved_sp = 0;
  bool context_saved = false;  ///< has a full frame on its stack
  bool started = false;        ///< has run at least once

  // -- blocking ----------------------------------------------------------------
  BlockReason block_reason = BlockReason::kNone;
  std::uint64_t wake_tick = 0;  ///< for kDelay
  int wait_object = -1;         ///< queue handle for queue blocks

  // -- secure IPC ---------------------------------------------------------------
  bool message_pending = false;  ///< async message sitting in the mailbox

  // -- identity -----------------------------------------------------------------
  TaskIdentity identity{};   ///< set by the RTM after measurement
  bool measured = false;

  // -- platform bookkeeping -------------------------------------------------------
  int exec_region_idx = -1;  ///< EA-MPU execution-region descriptor
  int mpu_slot = -1;         ///< EA-MPU rule slot for the task region

  // -- accounting --------------------------------------------------------------------
  std::uint64_t activations = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t cpu_cycles = 0;      ///< total cycles of CPU time consumed
  std::uint64_t dispatch_cycle = 0;  ///< clock value at the last dispatch

  // -- execution-time bounding (paper §5: tasks are "bound in their use of
  // system resources (e.g., execution time or memory)") ------------------------
  std::uint64_t budget_per_tick = 0;  ///< max CPU cycles per tick (0 = unlimited)
  std::uint64_t budget_used = 0;      ///< consumed within the current tick window
  std::uint64_t throttle_events = 0;  ///< times the kernel deferred this task

  // -- watchdog ----------------------------------------------------------------
  bool stalled = false;                 ///< wedged; see BlockReason::kStalled
  std::uint64_t stall_since_tick = 0;   ///< tick the stall began
  std::uint64_t watchdog_restarts = 0;  ///< times the watchdog revived this task
};

}  // namespace tytan::rtos
