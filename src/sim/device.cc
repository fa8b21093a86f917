#include "sim/device.h"

#include "common/bytes.h"
#include "common/status.h"

namespace tytan::sim {

void MmioBus::attach(std::shared_ptr<Device> device) {
  TYTAN_CHECK(device != nullptr, "attach(nullptr)");
  for (const auto& existing : devices_) {
    TYTAN_CHECK(!ranges_overlap(existing->base(), existing->size(), device->base(),
                                device->size()),
                "MMIO ranges overlap");
  }
  device->set_timing_listener([this] { ++timing_epoch_; });
  devices_.push_back(std::move(device));
  ++timing_epoch_;  // a new device may be due immediately
}

Device* MmioBus::find(std::uint32_t addr) const {
  for (const auto& device : devices_) {
    if (addr >= device->base() && addr < device->base() + device->size()) {
      return device.get();
    }
  }
  return nullptr;
}

}  // namespace tytan::sim
