// EA-MPU driver (paper §3): the trusted software component that makes the
// EA-MPU *dynamically* configurable — TyTAN's extension over TrustLite's
// boot-time-static usage.
//
// Configuring a rule performs the three phases Table 6 measures:
//   1. find a free slot (linear probe; cost grows with the slot position),
//   2. policy-check the new rule against every existing slot (protected
//      regions must not overlap),
//   3. write the rule to the EA-MPU.
#pragma once

#include "common/status.h"
#include "sim/eampu.h"
#include "sim/machine.h"

namespace tytan::core {

class EaMpuDriver {
 public:
  /// Cycle breakdown of the last configure() (bench for Table 6).
  struct ConfigStats {
    std::uint64_t find = 0;
    std::uint64_t policy = 0;
    std::uint64_t write = 0;
    std::uint64_t total = 0;
    std::size_t slot = 0;
  };

  EaMpuDriver(sim::Machine& machine, sim::EaMpu& mpu) : machine_(machine), mpu_(mpu) {}

  static constexpr std::uint32_t kIdent = sim::kFwEaMpuDriver;

  /// Install a rule: find free slot, policy check, write.  Returns the slot.
  Result<std::size_t> configure(const sim::Rule& rule);

  /// Remove a rule installed by configure().
  Status unconfigure(std::size_t slot);

  /// Register an execution region (task descriptor with entry point).
  Result<std::size_t> add_exec_region(const sim::ExecRegion& region);
  Status remove_exec_region(std::size_t idx);

  [[nodiscard]] const ConfigStats& last_config() const { return stats_; }
  [[nodiscard]] sim::EaMpu& mpu() { return mpu_; }

  /// Serialize / overwrite the last-configure stats (the rule table itself
  /// is the EA-MPU's own snapshot section).
  void save_state(snap::Writer& w) const;
  Status restore_state(snap::Reader& r);

 private:
  /// Overlap policy: a new data region may not overlap an existing rule's
  /// data region.  Rules whose code region lies in the trusted firmware area
  /// are exempt — the static trusted-component rules legitimately cover all
  /// of RAM (trusted components may access secure-task memory, paper §4).
  [[nodiscard]] bool policy_violation(const sim::Rule& rule) const;

  sim::Machine& machine_;
  sim::EaMpu& mpu_;
  ConfigStats stats_;
};

}  // namespace tytan::core
