#include "core/secure_boot.h"

#include "common/log.h"
#include "core/layout.h"

namespace tytan::core {

std::vector<BootComponent> default_manifest() {
  // Footprints sum to 34,326 bytes — the TyTAN-over-FreeRTOS memory overhead
  // the paper measures in Table 8 (249,943 - 215,617).
  std::vector<BootComponent> manifest = {
      {"os-kernel", sim::kFwOsKernel, 3'888, {}},       // ELF/TBF loader extension
      {"eampu-driver", sim::kFwEaMpuDriver, 3'910, {}},
      {"int-mux", sim::kFwIntMux, 2'118, {}},
      {"ipc-proxy", sim::kFwIpcProxy, 4'462, {}},
      {"rtm", sim::kFwRtm, 8'004, {}},
      {"remote-attest", sim::kFwRemoteAttest, 5'626, {}},
      {"secure-storage", sim::kFwSecureStorage, 6'318, {}},
  };
  for (BootComponent& component : manifest) {
    const ByteVec image =
        SecureBootRom::image_bytes(component, sim::kFwWindowSize);
    component.expected = crypto::Sha1::hash(image);
  }
  return manifest;
}

ByteVec SecureBootRom::image_bytes(const BootComponent& component, std::uint32_t max_len) {
  // Deterministic pseudo-code bytes seeded by the component name; stands in
  // for the real firmware binary (host-implemented in this reproduction).
  const std::uint32_t len = std::min(component.footprint, max_len);
  ByteVec image(len);
  std::uint64_t state = 0x9E37'79B9'7F4A'7C15ull;
  for (const char c : component.name) {
    state = (state ^ static_cast<std::uint8_t>(c)) * 0x100'0000'01B3ull;
  }
  for (std::uint32_t i = 0; i < len; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    image[i] = static_cast<std::uint8_t>(state);
  }
  return image;
}

void SecureBootRom::load_images(const std::vector<BootComponent>& manifest) {
  for (const BootComponent& component : manifest) {
    const ByteVec image = image_bytes(component, sim::kFwWindowSize);
    machine_.memory().write_block(component.window, image);
  }
}

void SecureBootRom::install_idt() {
  for (std::uint32_t vec = 0; vec < sim::kIdtEntries; ++vec) {
    machine_.set_idt_entry(static_cast<std::uint8_t>(vec), 0);
  }
  machine_.set_idt_entry(sim::kVecFault, sim::kFwIntMux);
  machine_.set_idt_entry(sim::kVecTimer, sim::kFwIntMux);
  machine_.set_idt_entry(sim::kVecSyscall, sim::kFwIntMux);
  machine_.set_idt_entry(sim::kVecIpc, sim::kFwIntMux);
  machine_.set_idt_entry(sim::kVecCan, sim::kFwIntMux);
}

void SecureBootRom::install_exec_regions() {
  // Firmware windows are enterable only through hardware interrupt dispatch.
  const std::uint32_t windows[] = {
      sim::kFwOsKernel,      sim::kFwEaMpuDriver,  sim::kFwIntMux,
      sim::kFwIpcProxy,      sim::kFwRtm,          sim::kFwRemoteAttest,
      sim::kFwSecureStorage, sim::kFwFaultHandler,
  };
  for (const std::uint32_t window : windows) {
    auto idx = mpu_.add_exec_region({.start = window,
                                     .size = sim::kFwWindowSize,
                                     .entry = sim::ExecRegion::kEntryNone});
    TYTAN_CHECK(idx.is_ok(), "secure boot: exec region install failed");
  }
}

void SecureBootRom::install_static_rules() {
  const auto rw = static_cast<std::uint8_t>(sim::kPermRead | sim::kPermWrite);
  const auto ro = static_cast<std::uint8_t>(sim::kPermRead);
  const std::uint32_t ram_size = sim::kRamEnd - sim::kRamBase;
  const sim::Rule static_rules[] = {
      // Int Mux: secure-task stacks (anywhere in RAM) + the shadow TCBs.
      {sim::kFwIntMux, sim::kFwWindowSize, sim::kRamBase, ram_size, rw, false, true},
      {sim::kFwIntMux, sim::kFwWindowSize, kShadowTcbBase, kShadowTcbSize, rw, false, false},
      // RTM: reads and de-relocates task images; sole writer of the registry.
      {sim::kFwRtm, sim::kFwWindowSize, sim::kRamBase, ram_size, rw, false, true},
      {sim::kFwRtm, sim::kFwWindowSize, kRtmRegistryBase, kRtmRegistrySize, rw, false, false},
      // IPC proxy: writes mailboxes in task regions; reads the registry.
      {sim::kFwIpcProxy, sim::kFwWindowSize, sim::kRamBase, ram_size, rw, false, true},
      {sim::kFwIpcProxy, sim::kFwWindowSize, kRtmRegistryBase, kRtmRegistrySize, ro, false,
       false},
      // Remote Attest: registry read + platform key.
      {sim::kFwRemoteAttest, sim::kFwWindowSize, kRtmRegistryBase, kRtmRegistrySize, ro,
       false, false},
      {sim::kFwRemoteAttest, sim::kFwWindowSize, sim::kMmioKeyReg, 0x20, ro, false, false},
      // Secure Storage: platform key + blob area + guest buffers.
      {sim::kFwSecureStorage, sim::kFwWindowSize, sim::kMmioKeyReg, 0x20, ro, false, false},
      {sim::kFwSecureStorage, sim::kFwWindowSize, kStorageBase, kStorageSize, rw, false,
       false},
      {sim::kFwSecureStorage, sim::kFwWindowSize, sim::kRamBase, ram_size, rw, false, true},
      // IDT lock: an empty code region matches no software — the register
      // pointing at the IDT "is static and cannot be modified" (paper §4).
      {0, 0, sim::kIdtBase, sim::kIdtSize, 0, false, false},
  };
  std::size_t slot = 0;
  for (const sim::Rule& rule : static_rules) {
    const Status s = mpu_.write_slot(slot++, rule);
    TYTAN_CHECK(s.is_ok(), "secure boot: static rule install failed: " + s.to_string());
  }
}

Result<BootReport> SecureBootRom::verify_and_lock(
    const std::vector<BootComponent>& manifest) {
  BootReport report;
  bool all_ok = true;
  for (const BootComponent& component : manifest) {
    const std::uint32_t len = std::min(component.footprint, sim::kFwWindowSize);
    const auto view = machine_.memory().view(component.window, len);
    const crypto::Sha1Digest digest = crypto::Sha1::hash(view);
    const bool verified = digest == component.expected;
    all_ok = all_ok && verified;
    report.components.push_back(
        {component.name, component.window, component.footprint, verified});
    if (verified) {
      report.trusted_bytes += component.footprint;
    } else {
      TYTAN_CLOG(machine_.log(), LogLevel::kError, "boot")
          << "component '" << component.name << "' failed verification";
    }
  }
  if (!all_ok) {
    machine_.halt(sim::HaltReason::kDoubleFault);
    report.ok = false;
    return report;
  }
  install_idt();
  install_exec_regions();
  install_static_rules();
  mpu_.set_port_guard(true);
  machine_.set_policy(&mpu_);
  report.ok = true;
  TYTAN_CLOG(machine_.log(), LogLevel::kInfo, "boot")
      << "secure boot complete: " << report.components.size() << " components, "
      << report.trusted_bytes << " trusted bytes";
  return report;
}

}  // namespace tytan::core
