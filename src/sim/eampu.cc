#include "sim/eampu.h"

#include "common/bytes.h"

namespace tytan::sim {

// ---------------------------------------------------------------------------
// Slot array
// ---------------------------------------------------------------------------

bool EaMpu::slot_used(std::size_t idx) const {
  TYTAN_CHECK(idx < kNumSlots, "EA-MPU slot index out of range");
  return slots_[idx].has_value();
}

const Rule& EaMpu::slot(std::size_t idx) const {
  TYTAN_CHECK(idx < kNumSlots, "EA-MPU slot index out of range");
  TYTAN_CHECK(slots_[idx].has_value(), "EA-MPU slot not in use");
  return *slots_[idx];
}

Status EaMpu::write_slot(std::size_t idx, const Rule& rule) {
  if (idx >= kNumSlots) {
    return make_error(Err::kOutOfRange, "EA-MPU slot index out of range");
  }
  if (port_locked_) {
    return make_error(Err::kPermissionDenied, "EA-MPU configuration port locked");
  }
  if (rule.data_size == 0) {
    return make_error(Err::kInvalidArgument, "EA-MPU rule with empty data region");
  }
  slots_[idx] = rule;
  bump_config_epoch();
  return Status::ok();
}

Status EaMpu::clear_slot(std::size_t idx) {
  if (idx >= kNumSlots) {
    return make_error(Err::kOutOfRange, "EA-MPU slot index out of range");
  }
  if (port_locked_) {
    return make_error(Err::kPermissionDenied, "EA-MPU configuration port locked");
  }
  slots_[idx].reset();
  bump_config_epoch();
  return Status::ok();
}

std::size_t EaMpu::slots_in_use() const {
  std::size_t n = 0;
  for (const auto& slot : slots_) {
    n += slot.has_value() ? 1 : 0;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Execution regions
// ---------------------------------------------------------------------------

Result<std::size_t> EaMpu::add_exec_region(const ExecRegion& region) {
  if (port_locked_) {
    return make_error(Err::kPermissionDenied, "EA-MPU configuration port locked");
  }
  if (region.size == 0) {
    return make_error(Err::kInvalidArgument, "empty execution region");
  }
  for (const auto& existing : exec_regions_) {
    if (existing &&
        ranges_overlap(existing->start, existing->size, region.start, region.size)) {
      return make_error(Err::kAlreadyExists, "execution regions overlap");
    }
  }
  for (std::size_t i = 0; i < kNumExecRegions; ++i) {
    if (!exec_regions_[i]) {
      exec_regions_[i] = region;
      bump_config_epoch();
      return i;
    }
  }
  return make_error(Err::kOutOfMemory, "no free execution-region descriptor");
}

Status EaMpu::remove_exec_region(std::size_t idx) {
  if (idx >= kNumExecRegions) {
    return make_error(Err::kOutOfRange, "execution-region index out of range");
  }
  if (port_locked_) {
    return make_error(Err::kPermissionDenied, "EA-MPU configuration port locked");
  }
  exec_regions_[idx].reset();
  bump_config_epoch();
  return Status::ok();
}

const std::optional<ExecRegion>& EaMpu::exec_region(std::size_t idx) const {
  TYTAN_CHECK(idx < kNumExecRegions, "execution-region index out of range");
  return exec_regions_[idx];
}

std::size_t EaMpu::exec_regions_in_use() const {
  std::size_t n = 0;
  for (const auto& region : exec_regions_) {
    n += region.has_value() ? 1 : 0;
  }
  return n;
}

const ExecRegion* EaMpu::find_exec_region(std::uint32_t addr) const {
  for (const auto& region : exec_regions_) {
    if (region && addr >= region->start && addr - region->start < region->size) {
      return &*region;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Access evaluation
// ---------------------------------------------------------------------------

int EaMpu::classify(std::uint32_t exec_ip, std::uint32_t addr, Access access) const {
  const ExecRegion* addr_region = find_exec_region(addr);
  const ExecRegion* ip_region = find_exec_region(exec_ip);

  // Implicit self-access: a region's own code may read/write/execute it.
  if (addr_region != nullptr && ip_region == addr_region) {
    return kCheckImplicitSelf;
  }

  if (access == Access::kExecute) {
    // Executable iff inside the fetching execution region or in unprotected
    // memory (foreign execution identity cannot arise on fetch: exec_ip ==
    // addr).
    if (addr_region != nullptr) {
      return kCheckDenied;  // foreign execution region (self handled above)
    }
    for (const auto& slot : slots_) {
      if (slot && !slot->background && addr >= slot->data_start &&
          addr - slot->data_start < slot->data_size) {
        return kCheckDenied;  // protected data is never executable
      }
    }
    return kCheckUnprotected;
  }

  const std::uint8_t wanted = (access == Access::kRead) ? kPermRead : kPermWrite;
  bool protected_addr = addr_region != nullptr;
  for (std::size_t i = 0; i < kNumSlots; ++i) {
    const auto& slot = slots_[i];
    if (!slot || addr < slot->data_start || addr - slot->data_start >= slot->data_size) {
      continue;
    }
    if (!slot->background) {
      protected_addr = true;
    }
    const bool ip_in_code =
        exec_ip >= slot->code_start && exec_ip - slot->code_start < slot->code_size;
    if (ip_in_code && (slot->perms & wanted) != 0) {
      return static_cast<int>(i);
    }
    if (slot->os_accessible && in_os_window(exec_ip)) {
      return kCheckOsWindow;
    }
  }
  return protected_addr ? kCheckDenied : kCheckUnprotected;
}

bool EaMpu::allows_transfer(std::uint32_t from_ip, std::uint32_t to_ip) const {
  const ExecRegion* to_region = find_exec_region(to_ip);
  if (to_region != nullptr) {
    const ExecRegion* from_region = find_exec_region(from_ip);
    if (from_region == to_region) {
      return true;  // intra-region control flow is free
    }
    if (to_region->entry == ExecRegion::kEntryAnywhere) {
      return true;  // region opted out of entry enforcement (normal tasks)
    }
    if (to_region->entry == ExecRegion::kEntryNone) {
      return false;  // only hardware dispatch may enter (firmware windows)
    }
    return to_ip == to_region->entry;
  }
  // Transfers into protected non-executable data are denied.
  for (const auto& slot : slots_) {
    if (slot && !slot->background && to_ip >= slot->data_start &&
        to_ip - slot->data_start < slot->data_size) {
      return false;
    }
  }
  return true;
}

void EaMpu::save_state(snap::Writer& w) const {
  for (const auto& slot : slots_) {
    w.boolean(slot.has_value());
    if (slot) {
      w.u32(slot->code_start);
      w.u32(slot->code_size);
      w.u32(slot->data_start);
      w.u32(slot->data_size);
      w.u8(slot->perms);
      w.boolean(slot->os_accessible);
      w.boolean(slot->background);
    }
  }
  for (const auto& region : exec_regions_) {
    w.boolean(region.has_value());
    if (region) {
      w.u32(region->start);
      w.u32(region->size);
      w.u32(region->entry);
    }
  }
  w.boolean(port_locked_);
}

Status EaMpu::restore_state(snap::Reader& r) {
  for (auto& slot : slots_) {
    if (r.boolean()) {
      Rule rule;
      rule.code_start = r.u32();
      rule.code_size = r.u32();
      rule.data_start = r.u32();
      rule.data_size = r.u32();
      rule.perms = r.u8();
      rule.os_accessible = r.boolean();
      rule.background = r.boolean();
      slot = rule;
    } else {
      slot.reset();
    }
  }
  for (auto& region : exec_regions_) {
    if (r.boolean()) {
      ExecRegion er;
      er.start = r.u32();
      er.size = r.u32();
      er.entry = r.u32();
      region = er;
    } else {
      region.reset();
    }
  }
  port_locked_ = r.boolean();
  // The restored table may differ arbitrarily from the previous one; the
  // port guard itself never feeds allows() and needs no bump elsewhere.
  bump_config_epoch();
  return Status::ok();
}

}  // namespace tytan::sim
