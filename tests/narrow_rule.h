// Shrink one of the static trusted-component EA-MPU rules through the
// driver, so a firmware record write can be denied part-way through.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "core/platform.h"

namespace tytan {

/// Put `rule` into EA-MPU slot `slot` in place of the rule there, through
/// the driver.  The copy lands in the freed slot, so it keeps its place in
/// the slot walk.
inline void replace_rule(core::Platform& platform, std::size_t slot, const sim::Rule& rule) {
  ASSERT_TRUE(platform.eampu_driver().unconfigure(slot).is_ok());
  auto again = platform.eampu_driver().configure(rule);
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  ASSERT_EQ(*again, slot);
}

/// A rule narrow_static_rule replaced, and its slot (for replace_rule).
struct ReplacedRule {
  std::size_t slot = 0;
  sim::Rule rule;
};

/// Replace the writable static rule of the component at `code_start` (its
/// background RAM rule when `background`, else its own data rule) with one
/// over [data_start, data_start + data_size) that keeps only the `perms`
/// bits of its permissions.  `*replaced` (if given) gets the old rule.
inline void narrow_static_rule(core::Platform& platform, std::uint32_t code_start,
                               bool background, std::uint32_t data_start,
                               std::uint32_t data_size,
                               std::uint8_t perms = sim::kPermRead | sim::kPermWrite,
                               ReplacedRule* replaced = nullptr) {
  sim::EaMpu& mpu = platform.mpu();
  for (std::size_t i = 0; i < sim::EaMpu::kNumSlots; ++i) {
    if (!mpu.slot_used(i) || mpu.slot(i).code_start != code_start ||
        mpu.slot(i).background != background || (mpu.slot(i).perms & sim::kPermWrite) == 0) {
      continue;
    }
    if (replaced != nullptr) {
      *replaced = {i, mpu.slot(i)};
    }
    sim::Rule rule = mpu.slot(i);
    rule.data_start = data_start;
    rule.data_size = data_size;
    rule.perms &= perms;
    replace_rule(platform, i, rule);
    return;
  }
  FAIL() << "no writable static rule for code at " << code_start;
}

}  // namespace tytan
