// Secure inter-process communication (paper §3/§4, "Secure IPC").
//
// The sender S loads the message and the receiver identity id_R into CPU
// registers and raises INT kVecIpc.  The proxy:
//   1. obtains the interrupt *origin* from the hardware latch and derives
//      the sender identity id_S from the RTM registry — the sender cannot
//      forge it;
//   2. looks up the receiver R by id_R in the registry;
//   3. writes the message and id_S into R's mailbox — a region only the
//      proxy may write (EA-MPU), which *implicitly authenticates* the data;
//   4. sync: branches to R's entry routine (reason kReasonMessage);
//      async: marks the message pending and continues executing S.
//
// For bulk data the proxy sets up shared memory accessible only to the two
// communicating tasks (two dynamically configured EA-MPU rules).
//
// Register ABI (values read from S's *saved* context, since the Int Mux
// wiped the live registers):
//   r0 = IpcOp, r1/r2 = id_R (lo/hi), r3..r6 = message words
//   result -> saved r0 (kSysOk / kSysErr; shm: region base address)
#pragma once

#include "core/eampu_driver.h"
#include "core/int_mux.h"
#include "core/kernel.h"
#include "core/rtm.h"

namespace tytan::core {

class IpcProxy {
 public:
  static constexpr std::uint32_t kIdent = sim::kFwIpcProxy;

  struct IpcStats {
    std::uint64_t proxy = 0;     ///< proxy runtime (paper: 1,208 cycles)
    std::uint64_t entry = 0;     ///< receiver entry routine (paper: 116 cycles)
    std::uint64_t total = 0;
    bool delivered = false;
  };

  struct ShmGrant {
    rtos::TaskHandle a = rtos::kNoTask;
    rtos::TaskHandle b = rtos::kNoTask;
    std::uint32_t base = 0;
    std::uint32_t size = 0;
    std::size_t slot_a = 0;
    std::size_t slot_b = 0;
  };

  IpcProxy(sim::Machine& machine, rtos::Scheduler& scheduler, Rtm& rtm, IntMux& int_mux,
           EaMpuDriver& driver, Kernel& kernel, RamArena& arena)
      : machine_(machine),
        scheduler_(scheduler),
        rtm_(rtm),
        int_mux_(int_mux),
        driver_(driver),
        kernel_(kernel),
        arena_(arena) {}

  /// Register the proxy's firmware handler and vector routing.
  void install();

  /// Second-level handler for kVecIpc.
  void on_ipc();

  /// Host-side send (benches and firmware services use the same path the
  /// guest INT takes, minus the sender context round-trip).
  Status deliver(const rtos::TaskIdentity& sender_id, const rtos::TaskIdentity& receiver_id,
                 const std::array<std::uint32_t, 4>& message, bool sync);

  [[nodiscard]] const IpcStats& last_ipc() const { return stats_; }
  [[nodiscard]] const std::vector<ShmGrant>& grants() const { return grants_; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t messages_rejected() const { return rejected_; }
  /// Subset of rejections caused by fault injection (ipc-drop clauses).
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }

  /// Release a shared-memory grant (frees the region and both rules).
  Status release_grant(std::uint32_t base);

  // -- snapshots ----------------------------------------------------------------
  /// Walk delivery stats, counters, and shm grants (snap::Io).
  Status state(snap::Io& io);

 private:
  /// Write id_S + message into the receiver's mailbox (proxy identity).
  Status write_mailbox(const RegistryEntry& receiver, const rtos::TaskIdentity& sender_id,
                       const std::array<std::uint32_t, 4>& message);
  void handle_shm(rtos::Tcb& sender, const RegistryEntry* sender_entry,
                  const RegistryEntry* receiver_entry, std::uint32_t size);

  sim::Machine& machine_;
  rtos::Scheduler& scheduler_;
  Rtm& rtm_;
  IntMux& int_mux_;
  EaMpuDriver& driver_;
  Kernel& kernel_;
  RamArena& arena_;
  IpcStats stats_;
  std::vector<ShmGrant> grants_;
  std::uint64_t delivered_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace tytan::core
