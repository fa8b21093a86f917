#include "core/eampu_driver.h"

#include "common/bytes.h"

namespace tytan::core {

namespace {
bool is_trusted_code(const sim::Rule& rule) {
  return rule.code_start >= sim::kFwOsKernel &&
         rule.code_start < sim::kTrustedDataBase + sim::kTrustedDataSize;
}
}  // namespace

bool EaMpuDriver::policy_violation(const sim::Rule& rule) const {
  for (std::size_t i = 0; i < sim::EaMpu::kNumSlots; ++i) {
    machine_.charge(machine_.costs().eampu_policy_per_slot);
    if (!mpu_.slot_used(i)) {
      continue;
    }
    const sim::Rule& existing = mpu_.slot(i);
    if (is_trusted_code(existing) || is_trusted_code(rule)) {
      continue;
    }
    // Exact aliases are deliberate sharing (the IPC proxy grants the same
    // window to both endpoints); only *partial* overlap is a policy breach.
    if (existing.data_start == rule.data_start && existing.data_size == rule.data_size) {
      continue;
    }
    if (ranges_overlap(existing.data_start, existing.data_size, rule.data_start,
                       rule.data_size)) {
      return true;
    }
  }
  return false;
}

Result<std::size_t> EaMpuDriver::configure(const sim::Rule& rule) {
  const sim::CostModel& costs = machine_.costs();
  stats_ = ConfigStats{};
  const std::uint64_t t0 = machine_.cycles();

  // Phase 1: find a free slot (linear probe, Table 6 "Finding free slot").
  machine_.charge(costs.eampu_find_base);
  std::size_t slot = sim::EaMpu::kNumSlots;
  for (std::size_t i = 0; i < sim::EaMpu::kNumSlots; ++i) {
    machine_.charge(costs.eampu_probe_slot);
    if (!mpu_.slot_used(i)) {
      slot = i;
      break;
    }
  }
  stats_.find = machine_.cycles() - t0;
  if (slot == sim::EaMpu::kNumSlots) {
    stats_.total = machine_.cycles() - t0;
    machine_.obs().emit(obs::EventKind::kMpuReject, -1, 0);
    return make_error(Err::kOutOfMemory, "EA-MPU: no free slot");
  }

  // Phase 2: policy check against every slot (Table 6 "Policy check").
  const std::uint64_t t1 = machine_.cycles();
  machine_.charge(costs.eampu_policy_base);
  const bool violation = policy_violation(rule);
  stats_.policy = machine_.cycles() - t1;
  if (violation) {
    stats_.total = machine_.cycles() - t0;
    machine_.obs().emit(obs::EventKind::kMpuReject, -1, 1);
    return make_error(Err::kAlreadyExists, "EA-MPU: protected regions overlap");
  }

  // Phase 3: write the rule (Table 6 "Writing rule").
  const std::uint64_t t2 = machine_.cycles();
  machine_.charge(costs.eampu_write_rule);
  sim::EaMpu::PortUnlock unlock(mpu_);
  if (Status s = mpu_.write_slot(slot, rule); !s.is_ok()) {
    return s;
  }
  stats_.write = machine_.cycles() - t2;
  stats_.total = machine_.cycles() - t0;
  stats_.slot = slot;
  machine_.obs().emit(obs::EventKind::kMpuConfig, -1,
                      static_cast<std::uint32_t>(slot),
                      static_cast<std::uint32_t>(stats_.total));
  return slot;
}

Status EaMpuDriver::unconfigure(std::size_t slot) {
  machine_.charge(machine_.costs().eampu_clear_rule);
  sim::EaMpu::PortUnlock unlock(mpu_);
  machine_.obs().emit(obs::EventKind::kMpuClear, -1, static_cast<std::uint32_t>(slot));
  return mpu_.clear_slot(slot);
}

Result<std::size_t> EaMpuDriver::add_exec_region(const sim::ExecRegion& region) {
  machine_.charge(machine_.costs().eampu_write_rule);
  sim::EaMpu::PortUnlock unlock(mpu_);
  return mpu_.add_exec_region(region);
}

Status EaMpuDriver::remove_exec_region(std::size_t idx) {
  machine_.charge(machine_.costs().eampu_clear_rule);
  sim::EaMpu::PortUnlock unlock(mpu_);
  return mpu_.remove_exec_region(idx);
}

void EaMpuDriver::save_state(snap::Writer& w) const {
  w.u64(stats_.find);
  w.u64(stats_.policy);
  w.u64(stats_.write);
  w.u64(stats_.total);
  w.u64(stats_.slot);
}

Status EaMpuDriver::restore_state(snap::Reader& r) {
  stats_.find = r.u64();
  stats_.policy = r.u64();
  stats_.write = r.u64();
  stats_.total = r.u64();
  stats_.slot = static_cast<std::size_t>(r.u64());
  return Status::ok();
}

}  // namespace tytan::core
