// Platform-key register (paper §3, "Platform Key").
//
// "The TyTAN hardware platform comes with a platform key Kp.  Access to this
// key is controlled by the EA-MPU and only trusted software components have
// access to it."
//
// Modeled as an MMIO device exposing the 128-bit Kp as four read-only words.
// Secure boot installs EA-MPU rules so only the Remote Attest and Secure
// Storage windows can read the register's address range; everyone else's
// loads fault.
#pragma once

#include "crypto/kdf.h"
#include "sim/device.h"
#include "sim/memory_map.h"

namespace tytan::core {

class KeyRegister final : public sim::Device {
 public:
  explicit KeyRegister(const crypto::Key128& kp) : kp_(kp) {}

  [[nodiscard]] std::string_view name() const override { return "key-register"; }
  [[nodiscard]] std::uint32_t base() const override { return sim::kMmioKeyReg; }
  [[nodiscard]] std::uint32_t size() const override { return 0x20; }

  std::uint32_t read32(std::uint32_t offset) override {
    return offset < crypto::kKeySize ? load_le32(kp_.data() + offset) : 0;
  }
  /// Kp is fused at manufacturing time; writes are ignored.
  void write32(std::uint32_t /*offset*/, std::uint32_t /*value*/) override {}

  /// Host-side (manufacturer) view of the fused key, for verifier-side checks
  /// in tests and benches.  Guest software must go through MMIO.
  [[nodiscard]] const crypto::Key128& raw_key() const { return kp_; }

 private:
  crypto::Key128 kp_;
};

}  // namespace tytan::core
