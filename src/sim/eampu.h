// Execution-Aware Memory Protection Unit (EA-MPU).
//
// Modeled after TrustLite's EA-MPU as extended by TyTAN with *dynamic*
// reconfiguration (paper §3/§4).  The EA-MPU provides three hardware
// properties:
//   1. memory access control based on the *code* performing the access:
//      a data region may only be touched by instructions fetched from the
//      rule's code region;
//   2. dedicated entry points: control may enter a protected code region
//      only at its declared entry address;
//   3. interrupt handling that preserves these rules (the Int Mux runs under
//      its own identity and is itself subject to the rule matrix).
//
// This class is the *hardware*: it evaluates accesses and stores slots.  It
// is a block of the simulated machine, like memory and the MMIO bus: the
// machine consults it directly on every fetch, load, store, and control
// transfer (Machine::set_policy; null means pre-boot, everything allowed).
// Slot search and the overlap policy check — what Table 6 measures — are
// performed by the EA-MPU *driver* (src/core/eampu_driver), which charges
// the calibrated cycle costs.
//
// Semantics implemented here:
//   * An address covered by >= 1 rule's data region is "protected": an
//     access is allowed only if some covering rule's code region contains
//     the executing EIP (with the matching permission), or the rule is
//     os_accessible and the executing EIP lies in the OS kernel window.
//   * An address inside an execution region is implicitly accessible (R/W/X)
//     to code of that same region (a task owns its own memory).
//   * Unprotected addresses are freely accessible (normal flat memory).
//   * Control transfers into an execution region are allowed only from
//     within the region itself or to its entry point; regions with
//     kEntryAnywhere opt out (normal tasks).  Transfers to non-executable
//     protected addresses are denied.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/status.h"
#include "sim/memory_map.h"
#include "sim/policy.h"
#include "snap/snapshot.h"

namespace tytan::sim {

/// Data-region permissions.
enum Perm : std::uint8_t {
  kPermRead = 1u << 0,
  kPermWrite = 1u << 1,
  kPermExec = 1u << 2,
};

/// One EA-MPU access-control rule: code region -> data region + perms.
struct Rule {
  std::uint32_t code_start = 0;
  std::uint32_t code_size = 0;
  std::uint32_t data_start = 0;
  std::uint32_t data_size = 0;
  std::uint8_t perms = 0;
  /// TrustLite-style OS-access bit: the OS kernel window may also access the
  /// data region (used for *normal* tasks, which are "accessible to the OS").
  bool os_accessible = false;
  /// Background rule: grants its code region access to the data region but
  /// does NOT mark the data region as protected.  Used for the static
  /// trusted-component rules ("the memory of a secure task can be accessed
  /// only by the task itself and trusted system components", paper §4) —
  /// they span all of RAM without claiming it.
  bool background = false;

  friend bool operator==(const Rule&, const Rule&) = default;
};

/// Execution region descriptor: a code range with a dedicated entry point.
struct ExecRegion {
  std::uint32_t start = 0;
  std::uint32_t size = 0;
  std::uint32_t entry = 0;  ///< absolute entry address, or a sentinel below

  /// No entry enforcement (normal tasks: "accessible to the OS").
  static constexpr std::uint32_t kEntryAnywhere = 0xFFFF'FFFFu;
  /// No entry at all: software may never branch into the region; it is only
  /// reachable through hardware interrupt dispatch (trusted firmware windows).
  static constexpr std::uint32_t kEntryNone = 0xFFFF'FFFEu;
};

class EaMpu {
 public:
  /// Paper Table 6: "EA-MPU with 18 slots in total".
  static constexpr std::size_t kNumSlots = 18;
  static constexpr std::size_t kNumExecRegions = 16;

  // -- slot array (dumb hardware ports; the driver implements search/policy) --
  [[nodiscard]] bool slot_used(std::size_t idx) const;
  [[nodiscard]] const Rule& slot(std::size_t idx) const;
  Status write_slot(std::size_t idx, const Rule& rule);
  Status clear_slot(std::size_t idx);
  [[nodiscard]] std::size_t slots_in_use() const;

  // -- execution regions -------------------------------------------------------
  Result<std::size_t> add_exec_region(const ExecRegion& region);
  Status remove_exec_region(std::size_t idx);

  /// Execution region containing `addr`, if any.
  [[nodiscard]] const ExecRegion* find_exec_region(std::uint32_t addr) const;

  // -- access evaluation -------------------------------------------------------
  /// Monotonic configuration-change counter, bumped by every mutation that
  /// can change a classify()/allows_transfer() verdict (slot and region
  /// writes, table restore).  Consumers that memoize verdicts (the decode
  /// cache, sim/decode_cache.h) compare epochs instead of subscribing to
  /// callbacks; inline because the comparison sits on the per-instruction
  /// fast path.  Starts at 1 so "nothing observed yet" (0) never matches.
  [[nodiscard]] std::uint64_t config_epoch() const { return config_epoch_; }

  /// Which rule decides whether code at `exec_ip` may perform `access` on
  /// `addr`: the granting slot index, or a negative kCheck* code
  /// (sim/policy.h), kCheckDenied meaning "refused".  The single slot walk
  /// behind every fetch, load and store verdict; the machine counts the same
  /// answer into the execution observatory.
  [[nodiscard]] int classify(std::uint32_t exec_ip, std::uint32_t addr,
                             Access access) const;

  /// May code at `exec_ip` perform `access` on `addr`?
  [[nodiscard]] bool allows(std::uint32_t exec_ip, std::uint32_t addr,
                            Access access) const {
    return classify(exec_ip, addr, access) != kCheckDenied;
  }

  /// May control transfer from `from_ip` to `to_ip`?  This is where dedicated
  /// entry points are enforced (EA-MPU property 2 above).
  [[nodiscard]] bool allows_transfer(std::uint32_t from_ip, std::uint32_t to_ip) const;

  /// classify() plus the span [*lo, *hi) around `addr` on which the answer
  /// cannot change while `exec_ip`, `access` and the configuration stay
  /// fixed.  The verdict is piecewise constant in the address: it only
  /// changes where a region or a slot's data range starts or ends.  *hi may
  /// be 2^32.  The decode cache memoizes data checks per op over this span.
  [[nodiscard]] int classify_span(std::uint32_t exec_ip, std::uint32_t addr, Access access,
                                  std::uint64_t* lo, std::uint64_t* hi) const;

  /// allows_transfer() plus the span [*lo, *hi) around `to_ip` on which it
  /// cannot change for this `from_ip`: classify_span's breakpoints plus
  /// `entry` and `entry + 1` of every region that enforces its entry point.
  [[nodiscard]] bool allows_transfer_span(std::uint32_t from_ip, std::uint32_t to_ip,
                                          std::uint64_t* lo, std::uint64_t* hi) const;

  /// Lock the configuration ports (set by secure boot after the static rules
  /// are installed; afterwards only the EA-MPU driver firmware may write —
  /// modeled as a host-side latch the driver toggles around its accesses).
  void set_port_guard(bool locked) { port_locked_ = locked; }
  [[nodiscard]] bool port_locked() const { return port_locked_; }
  /// Walk the full rule table, execution regions, and port guard for
  /// machine snapshots (snap::Io).
  Status state(snap::Io& io);

  /// Driver-only bypass around a legitimate reconfiguration.
  class PortUnlock {
   public:
    explicit PortUnlock(EaMpu& mpu) : mpu_(mpu), was_locked_(mpu.port_locked_) {
      mpu_.port_locked_ = false;
    }
    ~PortUnlock() { mpu_.port_locked_ = was_locked_; }
    PortUnlock(const PortUnlock&) = delete;
    PortUnlock& operator=(const PortUnlock&) = delete;

   private:
    EaMpu& mpu_;
    bool was_locked_;
  };

 private:
  [[nodiscard]] static bool in_os_window(std::uint32_t ip) {
    return ip >= kFwOsKernel && ip < kFwOsKernel + kFwWindowSize;
  }
  void bump_config_epoch() { ++config_epoch_; }
  /// The widest [*lo, *hi) around `addr` that contains no range boundary of
  /// a region or a slot's data (and, with `entries`, no enforced entry
  /// point or the word after it).  Ranges are [start, start + size) clipped
  /// at 2^32, matching the `addr >= start && addr - start < size` tests.
  void span_around(std::uint32_t addr, bool entries, std::uint64_t* lo,
                   std::uint64_t* hi) const;

  std::array<std::optional<Rule>, kNumSlots> slots_{};
  std::array<std::optional<ExecRegion>, kNumExecRegions> exec_regions_{};
  bool port_locked_ = false;
  std::uint64_t config_epoch_ = 1;
};

}  // namespace tytan::sim
