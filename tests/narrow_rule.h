// Shrink one of the static trusted-component EA-MPU rules through the
// driver, so a firmware record write can be denied part-way through.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "core/platform.h"

namespace tytan {

/// Replace the writable static rule of the component at `code_start` (its
/// background RAM rule when `background`, else its own data rule) with one
/// over [data_start, data_start + data_size).  The copy lands in the freed
/// slot, so it keeps its place in the slot walk.
inline void narrow_static_rule(core::Platform& platform, std::uint32_t code_start,
                               bool background, std::uint32_t data_start,
                               std::uint32_t data_size) {
  sim::EaMpu& mpu = platform.mpu();
  for (std::size_t i = 0; i < sim::EaMpu::kNumSlots; ++i) {
    if (!mpu.slot_used(i) || mpu.slot(i).code_start != code_start ||
        mpu.slot(i).background != background || (mpu.slot(i).perms & sim::kPermWrite) == 0) {
      continue;
    }
    sim::Rule rule = mpu.slot(i);
    rule.data_start = data_start;
    rule.data_size = data_size;
    ASSERT_TRUE(platform.eampu_driver().unconfigure(i).is_ok());
    auto slot = platform.eampu_driver().configure(rule);
    ASSERT_TRUE(slot.is_ok()) << slot.status().to_string();
    ASSERT_EQ(*slot, i);
    return;
  }
  FAIL() << "no writable static rule for code at " << code_start;
}

}  // namespace tytan
