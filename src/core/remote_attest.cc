#include "core/remote_attest.h"

#include "common/bytes.h"

namespace tytan::core {

ByteVec AttestationReport::serialize() const {
  ByteVec out;
  out.reserve(8 + identity.size() + mac.size());
  append_le64(out, nonce);
  out.insert(out.end(), identity.begin(), identity.end());
  out.insert(out.end(), mac.begin(), mac.end());
  return out;
}

Result<AttestationReport> AttestationReport::deserialize(std::span<const std::uint8_t> raw) {
  if (raw.size() != 8 + 8 + crypto::kSha1DigestSize) {
    return make_error(Err::kCorrupt, "attestation report has wrong size");
  }
  AttestationReport report;
  report.nonce = load_le64(raw.data());
  std::copy(raw.begin() + 8, raw.begin() + 16, report.identity.begin());
  std::copy(raw.begin() + 16, raw.end(), report.mac.begin());
  return report;
}

crypto::Key128 RemoteAttest::attestation_key() {
  crypto::Key128 kp{};
  TYTAN_CHECK(machine_.fw_read_block(kIdent, sim::kMmioKeyReg, kp, 4).is_ok(),
              "Remote Attest denied platform-key access");
  return derive_ka(kp);
}

crypto::Key128 RemoteAttest::derive_ka(const crypto::Key128& kp) {
  return crypto::derive_key128(kp, kKaLabel, {});
}

Result<AttestationReport> RemoteAttest::attest_identity(const rtos::TaskIdentity& identity,
                                                        std::uint64_t nonce) {
  const crypto::Key128 ka = attestation_key();
  AttestationReport report;
  report.nonce = nonce;
  report.identity = identity;

  ByteVec message;
  append_le64(message, nonce);
  message.insert(message.end(), identity.begin(), identity.end());
  report.mac = crypto::HmacSha1::mac(ka, message);
  // HMAC-SHA1 over a short message: two inner + two outer compression blocks.
  machine_.charge(machine_.costs().attest_mac_block * 4);
  return report;
}

Result<AttestationReport> RemoteAttest::attest_task(rtos::TaskHandle handle,
                                                    std::uint64_t nonce) {
  const RegistryEntry* entry = rtm_.find_by_handle(handle);
  if (entry == nullptr) {
    return make_error(Err::kNotFound, "attest: task not in RTM registry");
  }
  const std::uint64_t start = machine_.cycles();
  // Prover-side MAC phase; nests under the challenger's attest-round span
  // when one is open (Fleet::attest_all), roots its own trace otherwise.
  const obs::SpanRecorder::SpanId span =
      machine_.obs().spans().begin(obs::SpanPhase::kHmacCompute, handle);
  auto report = attest_identity(entry->identity, nonce);
  machine_.obs().spans().end(
      span, report.is_ok() ? obs::SpanOutcome::kOk : obs::SpanOutcome::kFailed);
  if (report.is_ok()) {
    machine_.obs().emit(obs::EventKind::kAttest, handle,
                        static_cast<std::uint32_t>(machine_.cycles() - start));
  }
  return report;
}

Result<rtos::TaskIdentity> RemoteAttest::local_attest(rtos::TaskHandle handle) {
  const RegistryEntry* entry = rtm_.find_by_handle(handle);
  if (entry == nullptr) {
    return make_error(Err::kNotFound, "local attest: task not in RTM registry");
  }
  return entry->identity;
}

bool RemoteAttest::verify(const crypto::Key128& ka, const AttestationReport& report,
                          std::uint64_t expected_nonce,
                          const rtos::TaskIdentity& expected_identity) {
  if (report.nonce != expected_nonce || report.identity != expected_identity) {
    return false;
  }
  ByteVec message;
  append_le64(message, report.nonce);
  message.insert(message.end(), report.identity.begin(), report.identity.end());
  return crypto::HmacSha1::verify(ka, message, report.mac);
}

}  // namespace tytan::core
