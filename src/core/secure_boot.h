// Secure boot (paper §3, "Secure boot").
//
// "TyTAN's trusted software components (i.e., EA-MPU driver, Int Mux, IPC
// Proxy, RTM task, Remote Attest and Secure Storage) are loaded with secure
// boot and isolated from the rest of the system by the EA-MPU."
//
// The boot ROM model here:
//   1. writes each component's firmware image into its window,
//   2. verifies every window against the manufacturer manifest (SHA-1).  A
//      window equal byte for byte to its component's image takes the
//      image's digest, computed once per process; any other window is
//      hashed.  Either way it verifies exactly when SHA-1(window) equals
//      the manifest's expected digest,
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
#include <utility>
#include <vector>

#include "common/status.h"
#include "crypto/sha1.h"
#include "sim/eampu.h"
#include "sim/machine.h"

namespace tytan::core {

/// A firmware image and its SHA-1, fixed at construction.  The default
/// manifest keeps one per component for the life of the process; boots only
/// read it, from any thread.
struct FirmwareImage {
  explicit FirmwareImage(ByteVec image)
      : bytes(std::move(image)), digest(crypto::Sha1::hash(bytes)) {}

  const ByteVec bytes;
  const crypto::Sha1Digest digest;  ///< always Sha1::hash(bytes)
};

/// One trusted software component in the boot manifest.
struct BootComponent {
  std::string name;
  std::uint32_t window = 0;     ///< firmware window base (execution identity)
  std::uint32_t footprint = 0;  ///< modeled code+data size in bytes (Table 8)
  crypto::Sha1Digest expected{};
  /// The bytes load_images writes; verify_and_lock reuses their digest for
  /// a window that still holds exactly these bytes, never `expected`.
  /// Required: every component of a manifest carries its image.
  const FirmwareImage* image = nullptr;
};

/// FreeRTOS baseline OS image size measured by the paper (Table 8).
inline constexpr std::uint32_t kFreeRtosFootprint = 215'617;

/// The TyTAN components and their modeled footprints (sum = 34,326 bytes,
/// the paper's measured TyTAN-over-FreeRTOS overhead).  Built on first use,
/// with each component's image and `expected` = the image's digest, and
/// shared by every boot in the process.
const std::vector<BootComponent>& default_manifest();

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

  /// Deterministic image bytes for a component, generated from its name
  /// (default_manifest builds each component's image from these once).
  static ByteVec image_bytes(const BootComponent& component, std::uint32_t max_len);

 private:
  void install_static_rules();
  void install_exec_regions();
  void install_idt();

  sim::Machine& machine_;
  sim::EaMpu& mpu_;
};

}  // namespace tytan::core
