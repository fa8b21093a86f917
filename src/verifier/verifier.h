// Verifier-side infrastructure for TyTAN remote attestation (paper §3).
//
// The paper specifies the device side: the Remote Attest task MACs
// (nonce | id_t) under Ka, derived from Kp.  A real deployment also needs
// the other half, which this module provides:
//
//   * Manufacturer — the root of the key ecosystem: fuses a per-device Kp at
//     production, hands the derived Ka to authorized verifiers (so verifiers
//     never hold Kp itself);
//   * GoldenDatabase — the task-provider's ledger of released binaries and
//     their expected measurements (computed offline exactly as the RTM
//     computes them: SHA-1 over the un-relocated image, truncated to 64 bits);
//   * Challenger — a stateful challenge-response driver with nonce
//     freshness, single-use challenges (anti-replay), and expiry.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "core/remote_attest.h"
#include "isa/object.h"

namespace tytan::verifier {

/// Device identifier assigned at manufacturing.
using DeviceId = std::uint32_t;

/// The manufacturer's provisioning records.  In production this lives in an
/// HSM; here it models the trust root for tests, benches, and examples.
class Manufacturer {
 public:
  explicit Manufacturer(std::uint64_t seed = 0x7479'7461'6e21ull) : seed_(seed) {}

  /// Fuse a fresh Kp for a new device; returns its id.
  DeviceId provision_device();

  /// Kp for the factory (to configure core::Platform::Config::kp).
  [[nodiscard]] Result<crypto::Key128> device_kp(DeviceId device) const;

  /// Ka for an authorized verifier (Kp never leaves the manufacturer).
  [[nodiscard]] Result<crypto::Key128> attestation_key(DeviceId device) const;

  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }

 private:
  std::uint64_t seed_;
  std::map<DeviceId, crypto::Key128> devices_;
  DeviceId next_id_ = 1;
};

/// A released binary and its golden measurement.
struct Release {
  std::string name;
  unsigned version = 0;
  rtos::TaskIdentity identity{};
  crypto::Sha1Digest digest{};
};

class GoldenDatabase {
 public:
  /// Register a release; the golden id_t is computed from the object exactly
  /// as the device's RTM computes it (position-independent image hash).
  const Release& add_release(std::string name, unsigned version,
                             const isa::ObjectFile& object);

  [[nodiscard]] const Release* find(const rtos::TaskIdentity& identity) const;
  [[nodiscard]] const Release* latest(std::string_view name) const;
  [[nodiscard]] std::size_t size() const { return releases_.size(); }

 private:
  std::vector<Release> releases_;
};

/// Outcome of verifying one attestation report.
struct VerifyOutcome {
  enum class Code {
    kVerified,         ///< fresh, authentic, known release
    kUnknownChallenge, ///< nonce was never issued or already consumed
    kExpired,          ///< challenge outlived its validity window
    kBadMac,           ///< MAC does not verify under Ka
    kUnknownRelease,   ///< authentic device, but the measurement is not golden
    kStale,            ///< known release, but not the latest version
  };
  Code code;
  const Release* release = nullptr;  ///< set for kVerified / kStale

  [[nodiscard]] bool ok() const { return code == Code::kVerified; }
};

const char* verify_outcome_name(VerifyOutcome::Code code);

/// Stateful challenge-response verifier for one device.
class Challenger {
 public:
  Challenger(crypto::Key128 ka, const GoldenDatabase& db, std::uint64_t nonce_seed = 1,
             std::uint64_t validity_window = 64)
      : ka_(ka), db_(db), nonce_state_(nonce_seed ? nonce_seed : 1),
        validity_window_(validity_window) {}

  /// Issue a fresh challenge nonce (single use).
  std::uint64_t issue_challenge();

  /// Verify a report against an outstanding challenge.  Consumes the
  /// challenge whatever the outcome (a failed attempt burns the nonce).
  VerifyOutcome verify(const core::AttestationReport& report,
                       std::string_view expected_release_name);

 private:
  std::uint64_t next_nonce();

  crypto::Key128 ka_;
  const GoldenDatabase& db_;
  std::uint64_t nonce_state_;
  std::uint64_t validity_window_;
  std::uint64_t issue_counter_ = 0;
  std::map<std::uint64_t, std::uint64_t> outstanding_;  // nonce -> issue time
};

}  // namespace tytan::verifier
