#include "sim/devices.h"

#include <algorithm>

#include "common/bytes.h"

namespace tytan::sim {

// ---------------------------------------------------------------------------
// TimerDevice
// ---------------------------------------------------------------------------

std::uint32_t TimerDevice::read32(std::uint32_t offset) {
  switch (offset) {
    case kCtrl: return enabled_ ? 1u : 0u;
    case kPeriod: return period_;
    case kTicks: return static_cast<std::uint32_t>(ticks_);
    default: return 0;
  }
}

void TimerDevice::write32(std::uint32_t offset, std::uint32_t value) {
  switch (offset) {
    case kCtrl:
      if ((value & 1u) != 0 && !enabled_ && period_ != 0) {
        enabled_ = true;
        next_fire_ = last_now_ + period_;
      } else if ((value & 1u) == 0) {
        enabled_ = false;
      }
      touch_timing();  // next_tick_due() changed
      break;
    case kPeriod:
      period_ = value;
      touch_timing();
      break;
    default:
      break;
  }
}

void TimerDevice::tick(std::uint64_t now) {
  last_now_ = now;
  if (!enabled_ || period_ == 0) {
    return;
  }
  while (now >= next_fire_) {
    ++ticks_;
    raise_irq(kVecTimer);
    next_fire_ += period_;
  }
}

Status TimerDevice::state(snap::Io& io) {
  io.boolean(enabled_);
  io.u32(period_);
  io.u64(next_fire_);
  io.u64(last_now_);
  io.u64(ticks_);
  if (io.loading()) {
    touch_timing();  // restored schedule replaces whatever the machine cached
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// SerialConsole
// ---------------------------------------------------------------------------

std::uint32_t SerialConsole::read32(std::uint32_t offset) {
  return offset == kStatus ? 1u : 0u;  // always ready
}

void SerialConsole::write32(std::uint32_t offset, std::uint32_t value) {
  if (offset == kData) {
    output_.push_back(static_cast<char>(value & 0xFF));
  }
}

Status SerialConsole::state(snap::Io& io) {
  io.str(output_);
  return Status::ok();
}

// ---------------------------------------------------------------------------
// SensorDevice
// ---------------------------------------------------------------------------

std::uint32_t SensorDevice::read32(std::uint32_t offset) {
  if (offset == 0) {
    ++reads_;
    return value_;
  }
  if (offset == 4) {
    return value2_;
  }
  return 0;
}

void SensorDevice::write32(std::uint32_t /*offset*/, std::uint32_t /*value*/) {
  // Sensors are read-only from the guest; writes are ignored.
}

Status SensorDevice::state(snap::Io& io) {
  io.u32(value_);
  io.u32(value2_);
  io.u64(reads_);
  return Status::ok();
}

// ---------------------------------------------------------------------------
// EngineActuator
// ---------------------------------------------------------------------------

std::uint32_t EngineActuator::read32(std::uint32_t offset) {
  if (offset == 0 && !commands_.empty()) {
    return commands_.back().value;
  }
  (void)offset;
  return 0;
}

void EngineActuator::write32(std::uint32_t offset, std::uint32_t value) {
  if (offset == 0) {
    commands_.push_back({now_, value});
  }
}

Status EngineActuator::state(snap::Io& io) {
  io.u64(now_);
  io.sequence(commands_, [&io](Command& c) {
    io.u64(c.cycle);
    io.u32(c.value);
  });
  return Status::ok();
}

// ---------------------------------------------------------------------------
// CanBusDevice
// ---------------------------------------------------------------------------

namespace {
std::uint32_t pack_id(const CanBusDevice::Frame& frame) {
  return static_cast<std::uint32_t>(frame.id & 0x7FF) |
         (static_cast<std::uint32_t>(frame.dlc) << 16);
}
}  // namespace

std::uint32_t CanBusDevice::read32(std::uint32_t offset) {
  switch (offset) {
    case kStatus:
      return static_cast<std::uint32_t>(rx_fifo_.size());
    case kRxId:
      return rx_fifo_.empty() ? 0 : pack_id(rx_fifo_.front());
    case kRxData0:
      return rx_fifo_.empty() ? 0 : load_le32(rx_fifo_.front().data.data());
    case kRxData1:
      return rx_fifo_.empty() ? 0 : load_le32(rx_fifo_.front().data.data() + 4);
    case kTxId:
      return pack_id(tx_staging_);
    case kTxData0:
      return load_le32(tx_staging_.data.data());
    case kTxData1:
      return load_le32(tx_staging_.data.data() + 4);
    default:
      return 0;
  }
}

void CanBusDevice::write32(std::uint32_t offset, std::uint32_t value) {
  switch (offset) {
    case kRxPop:
      if (!rx_fifo_.empty()) {
        rx_fifo_.pop_front();
      }
      break;
    case kTxId:
      tx_staging_.id = static_cast<std::uint16_t>(value & 0x7FF);
      tx_staging_.dlc = static_cast<std::uint8_t>(std::min<std::uint32_t>(8, value >> 16));
      break;
    case kTxData0:
      store_le32(tx_staging_.data.data(), value);
      break;
    case kTxData1:
      store_le32(tx_staging_.data.data() + 4, value);
      break;
    case kTxSend:
      tx_log_.push_back(tx_staging_);
      break;
    default:
      break;
  }
}

namespace {

void frame_state(snap::Io& io, CanBusDevice::Frame& frame) {
  std::uint32_t id = frame.id;  // the 11-bit id travels as a u32
  io.u32(id);
  frame.id = static_cast<std::uint16_t>(id);
  io.u8(frame.dlc);
  io.raw(frame.data);
}

}  // namespace

Status CanBusDevice::state(snap::Io& io) {
  auto frame = [&io](Frame& f) { frame_state(io, f); };
  io.sequence(rx_fifo_, frame);
  io.sequence(tx_log_, frame);
  frame_state(io, tx_staging_);
  io.u64(rx_overflows_);
  return Status::ok();
}

bool CanBusDevice::inject(const Frame& frame) {
  if (rx_fifo_.size() >= kRxFifoDepth) {
    ++rx_overflows_;
    return false;
  }
  rx_fifo_.push_back(frame);
  raise_irq(kVecCan);
  return true;
}

// ---------------------------------------------------------------------------
// RngDevice
// ---------------------------------------------------------------------------

std::uint64_t RngDevice::next64() {
  state_ ^= state_ << 13;
  state_ ^= state_ >> 7;
  state_ ^= state_ << 17;
  return state_;
}

std::uint32_t RngDevice::read32(std::uint32_t /*offset*/) {
  return static_cast<std::uint32_t>(next64());
}

void RngDevice::write32(std::uint32_t /*offset*/, std::uint32_t value) {
  state_ ^= value;
}

Status RngDevice::state(snap::Io& io) {
  io.u64(state_);
  return Status::ok();
}

}  // namespace tytan::sim
