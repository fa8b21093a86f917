// Secure boot (paper §3, "Secure boot").
//
// "TyTAN's trusted software components (i.e., EA-MPU driver, Int Mux, IPC
// Proxy, RTM task, Remote Attest and Secure Storage) are loaded with secure
// boot and isolated from the rest of the system by the EA-MPU."
//
// The boot ROM model here:
//   1. writes each component's firmware image into its window,
//   2. verifies every image against the manufacturer manifest (SHA-1),
//   3. installs the IDT (all vectors route through the Int Mux) and locks it,
//   4. installs the execution regions of the firmware windows and the static
//      EA-MPU rule matrix,
//   5. locks the EA-MPU configuration port and arms the policy.
//
// Component footprints (bytes) model the measured Table 8 memory overhead:
// firmware is host-implemented, so its image bytes are a deterministic
// stand-in whose *sizes* carry the accounting.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "crypto/sha1.h"
#include "sim/eampu.h"
#include "sim/machine.h"

namespace tytan::core {

/// One trusted software component in the boot manifest.
struct BootComponent {
  std::string name;
  std::uint32_t window = 0;     ///< firmware window base (execution identity)
  std::uint32_t footprint = 0;  ///< modeled code+data size in bytes (Table 8)
  crypto::Sha1Digest expected{};
};

/// FreeRTOS baseline OS image size measured by the paper (Table 8).
inline constexpr std::uint32_t kFreeRtosFootprint = 215'617;

/// The TyTAN components and their modeled footprints (sum = 34,326 bytes,
/// the paper's measured TyTAN-over-FreeRTOS overhead).
std::vector<BootComponent> default_manifest();

struct BootReport {
  bool ok = false;
  struct Entry {
    std::string name;
    std::uint32_t window;
    std::uint32_t footprint;
    bool verified;
  };
  std::vector<Entry> components;
  std::uint32_t trusted_bytes = 0;  ///< sum of verified component footprints
};

class SecureBootRom {
 public:
  SecureBootRom(sim::Machine& machine, sim::EaMpu& mpu) : machine_(machine), mpu_(mpu) {}

  /// Write the firmware images into their windows (pre-verification state).
  void load_images(const std::vector<BootComponent>& manifest);

  /// Verify every window against the manifest; on success install IDT,
  /// execution regions, static rules, lock the EA-MPU, and arm the policy.
  /// On any hash mismatch the boot aborts with the report marked not-ok and
  /// the machine halted (a bricked device is safer than an untrusted one).
  Result<BootReport> verify_and_lock(const std::vector<BootComponent>& manifest);

  /// Deterministic image bytes for a component (also used to compute the
  /// manufacturer manifest digests).
  static ByteVec image_bytes(const BootComponent& component, std::uint32_t max_len);

 private:
  void install_static_rules();
  void install_exec_regions();
  void install_idt();

  sim::Machine& machine_;
  sim::EaMpu& mpu_;
};

}  // namespace tytan::core
