// Typed, cycle-stamped platform events — the vocabulary of the observability
// layer (tytan_obs).
//
// Every event is a small POD: no strings, no allocation on the emit path.
// Task names are registered once in the EventBus side table; the two payload
// words `a`/`b` carry kind-specific detail (documented per kind below and in
// docs/OBSERVABILITY.md).  The layer never charges simulated cycles: enabling
// or disabling tracing must leave every cycle count in Tables 1-8 bit-identical.
#pragma once

#include <cstdint>
#include <string_view>

namespace tytan::obs {

enum class EventKind : std::uint8_t {
  // Scheduler (src/rtos).
  kSchedDispatch = 0,  ///< a = task kind (0 guest, 1 firmware), b = priority
  kSchedPreempt,       ///< running task forced back to its ready queue
  kSchedYield,         ///< running task voluntarily yielded
  kSchedBlock,         ///< a = BlockReason
  kSchedWake,          ///< task became ready
  kSchedTick,          ///< a = tick count (low 32 bits)
  kTaskCreate,         ///< a = priority, b = kind
  kTaskDestroy,

  // Exception engine (src/sim).
  kIrqEnter,           ///< a = vector, b = origin EIP
  kFault,              ///< a = FaultType, b = faulting EIP

  // Int Mux context switching (src/core/int_mux).
  kCtxSave,            ///< a = total save cycles, b = 1 secure / 0 normal
  kCtxWipe,            ///< a = register-wipe cycles (secure path only)
  kCtxRestore,         ///< a = restore cycles, b = reason (0 restore, 1 start,
                       ///<                                 2 message, 3 normal)

  // Authenticated IPC (src/core/ipc_proxy).
  kIpcSend,            ///< task = sender, a = receiver handle, b = 1 sync / 0 async
  kIpcDeliver,         ///< task = receiver
  kIpcReject,          ///< task = sender (or -1)
  kIpcShmGrant,        ///< task = sender, a = window base, b = window size

  // EA-MPU driver (src/core/eampu_driver).
  kMpuConfig,          ///< a = slot, b = total configure cycles
  kMpuReject,          ///< a = reason (0 no free slot, 1 policy overlap)
  kMpuClear,           ///< a = slot

  // RTM measurement (src/core/rtm).
  kRtmBegin,           ///< a = image bytes
  kRtmHashBlock,       ///< a = blocks hashed so far
  kRtmDone,            ///< a = total measurement cycles

  // Dynamic loader (src/core/task_loader).
  kLoadBegin,          ///< a = image bytes, b = 1 secure / 0 normal
  kLoadPhase,          ///< a = new phase index (TaskLoader::Phase)
  kLoadDone,           ///< a = total load cycles

  // Secure storage (src/core/secure_storage).
  kSealStore,          ///< a = plaintext bytes
  kSealUnseal,         ///< a = sealed bytes

  // OS kernel (src/core/kernel).
  kSyscall,            ///< a = syscall number

  // Remote attestation (src/core/remote_attest).
  kAttest,             ///< task = attested handle, a = round-trip cycles

  // Fault injection (src/fault) and the recovery paths it exercises.
  kFaultInject,        ///< a = fault::FaultClass, b = detail (bit/slot/round)
  kFaultRecover,       ///< a = fault::RecoveryKind, b = detail (attempt/count)

  kNumKinds,           // sentinel — keep last
};

inline constexpr std::size_t kNumEventKinds = static_cast<std::size_t>(EventKind::kNumKinds);

/// kCtxRestore `b` payload: which restore path ran.
inline constexpr std::uint32_t kRestoreResume = 0;   ///< secure resume (Table 3)
inline constexpr std::uint32_t kRestoreStart = 1;    ///< first secure activation
inline constexpr std::uint32_t kRestoreMessage = 2;  ///< IPC message delivery entry
inline constexpr std::uint32_t kRestoreNormal = 3;   ///< FreeRTOS-baseline restore

/// Stable textual name ("sched-dispatch", "ctx-save", ...); used by the
/// exporters and the tytan-trace filter syntax.  The artifact readers map
/// names back (json::Io::name).
std::string_view kind_name(EventKind kind);

/// One structured event.  `task` is the rtos::TaskHandle the event concerns
/// (-1 when none applies).
struct Event {
  std::uint64_t cycle = 0;
  EventKind kind = EventKind::kNumKinds;
  std::int32_t task = -1;
  std::uint32_t a = 0;
  std::uint32_t b = 0;

  bool operator==(const Event&) const = default;
};

}  // namespace tytan::obs
