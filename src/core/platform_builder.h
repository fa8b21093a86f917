// Fluent construction of per-instance platforms.
//
// Platform::Config is a plain aggregate; the builder adds per-field setters,
// device-set overrides, and extra-device attachment, and is the one place
// fleet code goes through so every device in a population is configured the
// same way:
//
//   auto platform = core::PlatformBuilder()
//                       .kp(manufacturer_kp)
//                       .rng_seed(0x1000 + device_index)
//                       .log_context(&device_log)
//                       .build();
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/platform.h"

namespace tytan::core {

class PlatformBuilder {
 public:
  PlatformBuilder() = default;
  /// Start from a whole Config (fleet base configs), so no field can be
  /// dropped by copying them one setter at a time.
  explicit PlatformBuilder(Platform::Config base) : config_(std::move(base)) {}

  PlatformBuilder& costs(const sim::CostModel& costs) {
    config_.costs = costs;
    return *this;
  }
  PlatformBuilder& tick_period(std::uint32_t cycles) {
    config_.tick_period = cycles;
    return *this;
  }
  PlatformBuilder& kp(const crypto::Key128& key) {
    config_.kp = key;
    return *this;
  }
  PlatformBuilder& rng_seed(std::uint64_t seed) {
    config_.rng_seed = seed;
    return *this;
  }
  PlatformBuilder& lint(LintMode mode, analysis::Config lint_config = {}) {
    config_.lint_mode = mode;
    config_.lint_config = lint_config;
    return *this;
  }
  /// The context must outlive the built platform.
  PlatformBuilder& log_context(const LogContext* log) {
    config_.log = log;
    return *this;
  }
  /// Install a fault-injection engine driven by `plan` (empty = none).
  PlatformBuilder& fault_plan(fault::FaultPlan plan) {
    config_.fault_plan = std::move(plan);
    return *this;
  }
  /// Replace the standard device complement entirely.  Overrides any
  /// kp/rng_seed already set as far as device construction is concerned
  /// (the caller's set is attached verbatim).
  PlatformBuilder& devices(DeviceSet set) {
    devices_ = std::move(set);
    return *this;
  }
  /// Attach an additional device after the core set.
  PlatformBuilder& add_device(std::shared_ptr<sim::Device> device) {
    extra_.push_back(std::move(device));
    return *this;
  }

  [[nodiscard]] const Platform::Config& config() const { return config_; }

  /// Build a platform; the builder can be reused (build() copies its state).
  [[nodiscard]] std::unique_ptr<Platform> build() const;

 private:
  Platform::Config config_{};
  std::optional<DeviceSet> devices_;
  std::vector<std::shared_ptr<sim::Device>> extra_;
};

}  // namespace tytan::core
