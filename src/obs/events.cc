#include "obs/events.h"

#include <array>

namespace tytan::obs {

namespace {
constexpr std::array<std::string_view, kNumEventKinds> kNames = {
    "sched-dispatch", "sched-preempt", "sched-yield",  "sched-block",
    "sched-wake",     "sched-tick",    "task-create",  "task-destroy",
    "irq-enter",      "fault",         "ctx-save",     "ctx-wipe",
    "ctx-restore",    "ipc-send",      "ipc-deliver",  "ipc-reject",
    "ipc-shm-grant",  "mpu-config",    "mpu-reject",   "mpu-clear",
    "rtm-begin",      "rtm-hash-block", "rtm-done",    "load-begin",
    "load-phase",     "load-done",     "seal-store",   "seal-unseal",
    "syscall",        "attest",       "fault-inject",  "fault-recover",
};
}  // namespace

std::string_view kind_name(EventKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < kNames.size() ? kNames[i] : std::string_view{"?"};
}

}  // namespace tytan::obs
