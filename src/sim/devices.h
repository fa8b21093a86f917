// Concrete MMIO devices of the simulated platform.
//
// The automotive use case (paper §6, Figure 2) needs an accelerator-pedal
// sensor, a radar sensor, and an engine actuator; the RTOS needs a
// programmable timer; examples use a serial console; attestation uses an
// entropy source.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/device.h"
#include "sim/memory_map.h"

namespace tytan::sim {

/// Programmable periodic timer driving the RTOS tick (IRQ kVecTimer).
/// Registers: +0 CTRL (bit0 = enable), +4 PERIOD (cycles), +8 TICKS (ro).
class TimerDevice : public Device {
 public:
  static constexpr std::uint32_t kCtrl = 0;
  static constexpr std::uint32_t kPeriod = 4;
  static constexpr std::uint32_t kTicks = 8;

  [[nodiscard]] std::string_view name() const override { return "timer"; }
  [[nodiscard]] std::uint32_t base() const override { return kMmioTimer; }
  [[nodiscard]] std::uint32_t size() const override { return 0x100; }

  std::uint32_t read32(std::uint32_t offset) override;
  void write32(std::uint32_t offset, std::uint32_t value) override;
  void tick(std::uint64_t now) override;
  /// Disabled timers never act; enabled ones act exactly at next_fire_.
  /// (last_now_ staleness between events is repaired by the machine's lazy
  /// access/serialization latching.)
  [[nodiscard]] std::uint64_t next_tick_due() const override {
    return (enabled_ && period_ != 0) ? next_fire_ : kNeverTicks;
  }

  [[nodiscard]] std::uint64_t ticks_fired() const { return ticks_; }
  [[nodiscard]] std::uint32_t period() const { return period_; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void save_state(snap::Writer& w) const override;
  Status restore_state(snap::Reader& r) override;

 private:
  bool enabled_ = false;
  std::uint32_t period_ = 0;
  std::uint64_t next_fire_ = 0;
  std::uint64_t last_now_ = 0;
  std::uint64_t ticks_ = 0;
};

/// Write-only console; bytes written to +0 are captured host-side.
class SerialConsole : public Device {
 public:
  static constexpr std::uint32_t kData = 0;
  static constexpr std::uint32_t kStatus = 4;

  [[nodiscard]] std::string_view name() const override { return "serial"; }
  [[nodiscard]] std::uint32_t base() const override { return kMmioSerial; }
  [[nodiscard]] std::uint32_t size() const override { return 0x100; }

  std::uint32_t read32(std::uint32_t offset) override;
  void write32(std::uint32_t offset, std::uint32_t value) override;

  [[nodiscard]] const std::string& output() const { return output_; }
  void clear() { output_.clear(); }

  void save_state(snap::Writer& w) const override;
  Status restore_state(snap::Reader& r) override;

 private:
  std::string output_;
};

/// Read-only sensor exposing a host-settable 32-bit value at +0.
class SensorDevice : public Device {
 public:
  SensorDevice(std::string_view name, std::uint32_t base) : name_(name), base_(base) {}

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::uint32_t base() const override { return base_; }
  [[nodiscard]] std::uint32_t size() const override { return 0x100; }

  std::uint32_t read32(std::uint32_t offset) override;
  void write32(std::uint32_t offset, std::uint32_t value) override;

  /// Host-side: set the physical quantity the sensor reports.
  void set_value(std::uint32_t v) { value_ = v; }
  void set_value2(std::uint32_t v) { value2_ = v; }
  [[nodiscard]] std::uint64_t reads() const { return reads_; }

  void save_state(snap::Writer& w) const override;
  Status restore_state(snap::Reader& r) override;

 private:
  std::string name_;
  std::uint32_t base_;
  std::uint32_t value_ = 0;
  std::uint32_t value2_ = 0;
  std::uint64_t reads_ = 0;
};

/// Engine actuator: records every throttle command with its cycle timestamp
/// so the use-case bench can compute the control frequency (Table 1).
class EngineActuator : public Device {
 public:
  struct Command {
    std::uint64_t cycle;
    std::uint32_t value;
  };

  [[nodiscard]] std::string_view name() const override { return "engine"; }
  [[nodiscard]] std::uint32_t base() const override { return kMmioEngine; }
  [[nodiscard]] std::uint32_t size() const override { return 0x100; }

  std::uint32_t read32(std::uint32_t offset) override;
  void write32(std::uint32_t offset, std::uint32_t value) override;
  /// A pure time latch (command timestamps): the default next_tick_due()
  /// leaves it to the machine's lazy latch on MMIO access.
  void tick(std::uint64_t now) override { now_ = now; }

  [[nodiscard]] const std::vector<Command>& commands() const { return commands_; }
  void clear() { commands_.clear(); }

  void save_state(snap::Writer& w) const override;
  Status restore_state(snap::Reader& r) override;

 private:
  std::uint64_t now_ = 0;
  std::vector<Command> commands_;
};

/// CAN bus controller model ("react to an event like an arriving network
/// package", paper §4).  The host injects RX frames, which raise IRQ
/// kVecCan; the guest driver reads them through an RX FIFO window and can
/// transmit frames the host observes.
///
/// Registers (word offsets):
///   +0  STATUS   (ro) number of frames waiting in the RX FIFO
///   +4  RX_ID    (ro) identifier of the head frame (11-bit) | dlc << 16
///   +8  RX_DATA0 (ro) payload bytes 0..3 (little endian)
///   +12 RX_DATA1 (ro) payload bytes 4..7
///   +16 RX_POP   (wo) any write pops the head frame
///   +20 TX_ID    (rw) identifier | dlc << 16 for the next transmission
///   +24 TX_DATA0 (rw)
///   +28 TX_DATA1 (rw)
///   +32 TX_SEND  (wo) any write queues the frame onto the (host) bus
class CanBusDevice : public Device {
 public:
  struct Frame {
    std::uint16_t id = 0;   ///< 11-bit identifier
    std::uint8_t dlc = 8;   ///< payload length 0..8
    std::array<std::uint8_t, 8> data{};
  };
  static constexpr std::uint32_t kStatus = 0;
  static constexpr std::uint32_t kRxId = 4;
  static constexpr std::uint32_t kRxData0 = 8;
  static constexpr std::uint32_t kRxData1 = 12;
  static constexpr std::uint32_t kRxPop = 16;
  static constexpr std::uint32_t kTxId = 20;
  static constexpr std::uint32_t kTxData0 = 24;
  static constexpr std::uint32_t kTxData1 = 28;
  static constexpr std::uint32_t kTxSend = 32;
  static constexpr std::size_t kRxFifoDepth = 16;

  [[nodiscard]] std::string_view name() const override { return "can"; }
  [[nodiscard]] std::uint32_t base() const override { return kMmioCan; }
  [[nodiscard]] std::uint32_t size() const override { return 0x100; }

  std::uint32_t read32(std::uint32_t offset) override;
  void write32(std::uint32_t offset, std::uint32_t value) override;

  /// Host side: put a frame on the bus; raises kVecCan.  Returns false if
  /// the RX FIFO overflowed (frame dropped, counted).
  bool inject(const Frame& frame);
  [[nodiscard]] const std::vector<Frame>& transmitted() const { return tx_log_; }
  [[nodiscard]] std::uint64_t rx_overflows() const { return rx_overflows_; }

  void save_state(snap::Writer& w) const override;
  Status restore_state(snap::Reader& r) override;

 private:
  std::deque<Frame> rx_fifo_;
  std::vector<Frame> tx_log_;
  Frame tx_staging_;
  std::uint64_t rx_overflows_ = 0;
};

/// Deterministic xorshift RNG for nonces.  The seed is per-instance
/// (Platform::Config::rng_seed) so fleet devices draw distinct but
/// reproducible nonce streams; a zero seed is coerced to the default
/// (xorshift has an all-zero fixed point).
class RngDevice : public Device {
 public:
  static constexpr std::uint64_t kDefaultSeed = 0x1234'5678'9abc'def0ull;

  explicit RngDevice(std::uint64_t seed = kDefaultSeed)
      : state_(seed != 0 ? seed : kDefaultSeed) {}

  [[nodiscard]] std::string_view name() const override { return "rng"; }
  [[nodiscard]] std::uint32_t base() const override { return kMmioRng; }
  [[nodiscard]] std::uint32_t size() const override { return 0x100; }

  std::uint32_t read32(std::uint32_t offset) override;
  void write32(std::uint32_t offset, std::uint32_t value) override;

  std::uint64_t next64();

  void save_state(snap::Writer& w) const override;
  Status restore_state(snap::Reader& r) override;

 private:
  std::uint64_t state_;
};

}  // namespace tytan::sim
