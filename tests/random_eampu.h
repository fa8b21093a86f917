// Random EA-MPU tables for the differential tests of verdict spans
// (test_eampu) and of the firmware block accessors (test_machine).
//
// Addresses come from a small window, the first two firmware windows (so
// the OS window's os_accessible rules fire), and the top of the address
// space; sizes are short or nearly 2^32, so ranges overlap, abut, and wrap
// past 2^32 (membership is `addr >= start && addr - start < size`).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "sim/eampu.h"
#include "sim/memory_map.h"

namespace tytan::sim {

class RandomEaMpu {
 public:
  explicit RandomEaMpu(std::mt19937& rng) : rng_(rng) {}

  std::uint32_t address() {
    switch (rng_() % 4) {
      case 0: return 0xFFFF'FF00u + rng_() % 0x100;
      case 1: return kFwOsKernel + rng_() % (2 * kFwWindowSize);
      default: return 0x1000 + rng_() % 0x800;
    }
  }

  std::uint32_t size() {
    return rng_() % 8 == 0 ? 0xFFFF'FFFFu - rng_() % 0x100 : 1 + rng_() % 0x300;
  }

  /// About two thirds of the slots, with random perms, os_accessible and
  /// background bits, then up to eight execution regions (overlapping ones
  /// are refused) with an enforced, anywhere or no entry point.
  void fill(EaMpu& mpu) {
    for (std::size_t i = 0; i < EaMpu::kNumSlots; ++i) {
      if (rng_() % 3 == 0) {
        continue;
      }
      ASSERT_TRUE(mpu.write_slot(i, {.code_start = address(),
                                     .code_size = size(),
                                     .data_start = address(),
                                     .data_size = size(),
                                     .perms = static_cast<std::uint8_t>(rng_() % 8),
                                     .os_accessible = rng_() % 4 == 0,
                                     .background = rng_() % 4 == 0})
                      .is_ok());
    }
    for (int i = 0; i < 8; ++i) {
      const std::uint32_t start = address();
      const std::uint32_t entry = rng_() % 3 == 0   ? ExecRegion::kEntryAnywhere
                                  : rng_() % 3 == 0 ? ExecRegion::kEntryNone
                                                    : start + 4 * (rng_() % 16);
      (void)mpu.add_exec_region({start, size(), entry});
    }
  }

 private:
  std::mt19937& rng_;
};

}  // namespace tytan::sim
