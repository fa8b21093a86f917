// MMIO device interface and bus.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "snap/snapshot.h"

namespace tytan::sim {

/// Callback a device uses to raise an interrupt line.
using IrqSink = std::function<void(std::uint8_t vector)>;

class Device {
 public:
  virtual ~Device() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::uint32_t base() const = 0;
  [[nodiscard]] virtual std::uint32_t size() const = 0;

  /// Word access at a device-local byte offset.
  virtual std::uint32_t read32(std::uint32_t offset) = 0;
  virtual void write32(std::uint32_t offset, std::uint32_t value) = 0;

  /// tick() cycle stamp meaning "no time-driven action pending": a device
  /// returning this from next_tick_due() is skipped by the per-instruction
  /// walk and instead has its time latched lazily (on MMIO access and
  /// before serialization).
  static constexpr std::uint64_t kNeverTicks = ~0ull;

  /// Advance device time to the absolute cycle count `now`.
  virtual void tick(std::uint64_t now) { (void)now; }

  /// Earliest future cycle at which tick() performs observable work (fires
  /// an IRQ, advances a counter), or kNeverTicks — the default — when
  /// tick() is a pure time latch.  The machine skips the tick walk until the
  /// earliest due cycle across the bus.  A device with a schedule must bump
  /// the bus timing epoch (touch_timing()) from every register write or
  /// restore that changes it.
  [[nodiscard]] virtual std::uint64_t next_tick_due() const { return kNeverTicks; }

  /// Walk the device's guest-visible state for machine snapshots (saving or
  /// restoring, see snap::Io).  The default is stateless (devices holding
  /// only wiring or fused constants); every device with mutable registers
  /// overrides it.
  virtual Status state(snap::Io& io) {
    (void)io;
    return Status::ok();
  }

  void set_irq_sink(IrqSink sink) { irq_sink_ = std::move(sink); }

  /// Wired by MmioBus::attach — bumps the bus timing epoch so the machine
  /// re-evaluates next_tick_due() after an out-of-band schedule change.
  void set_timing_listener(std::function<void()> listener) {
    timing_listener_ = std::move(listener);
  }

 protected:
  void raise_irq(std::uint8_t vector) {
    if (irq_sink_) {
      irq_sink_(vector);
    }
  }

  /// Call from any mutation that changes next_tick_due() — register writes,
  /// snapshot restores.  Harmless when unwired (device not on a bus).
  void touch_timing() {
    if (timing_listener_) {
      timing_listener_();
    }
  }

 private:
  IrqSink irq_sink_;
  std::function<void()> timing_listener_;
};

/// Dispatches MMIO-range accesses to registered devices.
class MmioBus {
 public:
  /// Register a device; ranges must not overlap (checked).
  void attach(std::shared_ptr<Device> device);

  /// Device covering `addr`, or nullptr.
  [[nodiscard]] Device* find(std::uint32_t addr) const;

  /// Advance every device.  The machine calls this at most once per
  /// instruction, and skips calls entirely while `now < next_tick_due()` and
  /// the timing epoch is stable.
  void tick_all(std::uint64_t now) {
    for (const auto& device : devices_) {
      device->tick(now);
    }
  }

  /// Earliest cycle at which any device has observable work, or
  /// Device::kNeverTicks.  Recompute after every tick_all() (firing moves
  /// the schedule) and on every timing-epoch change.
  [[nodiscard]] std::uint64_t next_tick_due() const {
    std::uint64_t due = Device::kNeverTicks;
    for (const auto& device : devices_) {
      due = std::min(due, device->next_tick_due());
    }
    return due;
  }

  /// Bumped whenever a device's tick schedule changes out of band (register
  /// write, snapshot restore) and on every attach.  One load on the
  /// per-instruction path buys skipping the whole tick walk between events.
  [[nodiscard]] std::uint64_t timing_epoch() const { return timing_epoch_; }

  [[nodiscard]] const std::vector<std::shared_ptr<Device>>& devices() const {
    return devices_;
  }

 private:
  std::vector<std::shared_ptr<Device>> devices_;
  std::uint64_t timing_epoch_ = 1;
};

}  // namespace tytan::sim
