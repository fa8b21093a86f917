// Unit tests of the EA-MPU hardware semantics (policy evaluation in
// isolation, without a booted platform).
#include <gtest/gtest.h>

#include <random>
#include <type_traits>

#include "random_eampu.h"
#include "sim/eampu.h"

namespace tytan::sim {
namespace {

// The machine calls the one EA-MPU it has directly: no vtable on the check
// path.
static_assert(!std::is_polymorphic_v<EaMpu>);

constexpr std::uint32_t kTaskA = 0x40000;
constexpr std::uint32_t kTaskB = 0x50000;
constexpr std::uint32_t kSize = 0x1000;
constexpr std::uint32_t kOutside = 0x60000;

class EaMpuTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(mpu_.add_exec_region({kTaskA, kSize, kTaskA}).is_ok());
    ASSERT_TRUE(mpu_.add_exec_region({kTaskB, kSize, kTaskB}).is_ok());
    ASSERT_TRUE(mpu_
                    .write_slot(0, {.code_start = kTaskA,
                                    .code_size = kSize,
                                    .data_start = kTaskA,
                                    .data_size = kSize,
                                    .perms = kPermRead | kPermWrite})
                    .is_ok());
    ASSERT_TRUE(mpu_
                    .write_slot(1, {.code_start = kTaskB,
                                    .code_size = kSize,
                                    .data_start = kTaskB,
                                    .data_size = kSize,
                                    .perms = kPermRead | kPermWrite})
                    .is_ok());
  }

  EaMpu mpu_;
};

TEST_F(EaMpuTest, TaskAccessesOwnMemory) {
  EXPECT_TRUE(mpu_.allows(kTaskA + 4, kTaskA + 0x800, Access::kRead));
  EXPECT_TRUE(mpu_.allows(kTaskA + 4, kTaskA + 0x800, Access::kWrite));
  EXPECT_TRUE(mpu_.allows(kTaskA + 4, kTaskA + 4, Access::kExecute));
}

TEST_F(EaMpuTest, TaskCannotTouchOtherTask) {
  EXPECT_FALSE(mpu_.allows(kTaskA + 4, kTaskB + 0x800, Access::kRead));
  EXPECT_FALSE(mpu_.allows(kTaskA + 4, kTaskB + 0x800, Access::kWrite));
}

TEST_F(EaMpuTest, UnprotectedMemoryIsOpen) {
  EXPECT_TRUE(mpu_.allows(kTaskA + 4, kOutside, Access::kRead));
  EXPECT_TRUE(mpu_.allows(kOutside, kOutside, Access::kExecute));
}

TEST_F(EaMpuTest, EntryPointEnforced) {
  // Into A's entry: allowed; into A's middle: denied; within A: free.
  EXPECT_TRUE(mpu_.allows_transfer(kOutside, kTaskA));
  EXPECT_FALSE(mpu_.allows_transfer(kOutside, kTaskA + 8));
  EXPECT_TRUE(mpu_.allows_transfer(kTaskA + 4, kTaskA + 8));
  EXPECT_FALSE(mpu_.allows_transfer(kTaskB + 4, kTaskA + 8));
  EXPECT_TRUE(mpu_.allows_transfer(kTaskB + 4, kTaskA));
}

TEST_F(EaMpuTest, EntryAnywhereDisablesEnforcement) {
  ASSERT_TRUE(
      mpu_.add_exec_region({kOutside, kSize, ExecRegion::kEntryAnywhere}).is_ok());
  EXPECT_TRUE(mpu_.allows_transfer(kTaskA, kOutside + 0x123));
}

TEST_F(EaMpuTest, EntryNoneBlocksAllSoftwareEntry) {
  ASSERT_TRUE(mpu_.add_exec_region({0x70000, kSize, ExecRegion::kEntryNone}).is_ok());
  EXPECT_FALSE(mpu_.allows_transfer(kTaskA, 0x70000));
  EXPECT_FALSE(mpu_.allows_transfer(kTaskA, 0x70000 + 8));
  EXPECT_TRUE(mpu_.allows_transfer(0x70004, 0x70008));  // intra-region ok
}

TEST_F(EaMpuTest, CrossTaskRuleGrantsScopedAccess) {
  // Grant B read access to A's first 16 bytes (shared-memory-style rule).
  ASSERT_TRUE(mpu_
                  .write_slot(2, {.code_start = kTaskB,
                                  .code_size = kSize,
                                  .data_start = kTaskA,
                                  .data_size = 16,
                                  .perms = kPermRead})
                  .is_ok());
  EXPECT_TRUE(mpu_.allows(kTaskB + 4, kTaskA + 8, Access::kRead));
  EXPECT_FALSE(mpu_.allows(kTaskB + 4, kTaskA + 8, Access::kWrite));
  EXPECT_FALSE(mpu_.allows(kTaskB + 4, kTaskA + 16, Access::kRead));
}

TEST_F(EaMpuTest, OsAccessibleBitAdmitsOnlyOsWindow) {
  ASSERT_TRUE(mpu_
                  .write_slot(2, {.code_start = kOutside,
                                  .code_size = kSize,
                                  .data_start = kOutside,
                                  .data_size = kSize,
                                  .perms = kPermRead | kPermWrite,
                                  .os_accessible = true})
                  .is_ok());
  EXPECT_TRUE(mpu_.allows(sim::kFwOsKernel + 4, kOutside + 8, Access::kWrite));
  EXPECT_FALSE(mpu_.allows(kTaskA + 4, kOutside + 8, Access::kWrite));
}

TEST_F(EaMpuTest, BackgroundRuleGrantsWithoutProtecting) {
  ASSERT_TRUE(mpu_
                  .write_slot(2, {.code_start = sim::kFwRtm,
                                  .code_size = sim::kFwWindowSize,
                                  .data_start = 0x60000,
                                  .data_size = 0x10000,
                                  .perms = kPermRead | kPermWrite,
                                  .os_accessible = false,
                                  .background = true})
                  .is_ok());
  // The RTM gets access...
  EXPECT_TRUE(mpu_.allows(sim::kFwRtm + 4, 0x60008, Access::kWrite));
  // ...but the region stays open for everyone else (not "protected").
  EXPECT_TRUE(mpu_.allows(kTaskA + 4, 0x60008, Access::kWrite));
}

TEST_F(EaMpuTest, BackgroundRuleReachesProtectedRegions) {
  ASSERT_TRUE(mpu_
                  .write_slot(2, {.code_start = sim::kFwRtm,
                                  .code_size = sim::kFwWindowSize,
                                  .data_start = kTaskA,
                                  .data_size = kSize,
                                  .perms = kPermRead,
                                  .os_accessible = false,
                                  .background = true})
                  .is_ok());
  EXPECT_TRUE(mpu_.allows(sim::kFwRtm + 4, kTaskA + 8, Access::kRead));
  EXPECT_FALSE(mpu_.allows(sim::kFwRtm + 4, kTaskA + 8, Access::kWrite));
}

TEST_F(EaMpuTest, ProtectedDataNeverExecutable) {
  // kTaskA's data is also its code (flat task region) — but a pure data rule
  // over fresh memory forbids execution there.
  ASSERT_TRUE(mpu_
                  .write_slot(2, {.code_start = kTaskA,
                                  .code_size = kSize,
                                  .data_start = 0x80000,
                                  .data_size = 0x100,
                                  .perms = kPermRead | kPermWrite})
                  .is_ok());
  EXPECT_FALSE(mpu_.allows(0x80010, 0x80010, Access::kExecute));
  EXPECT_FALSE(mpu_.allows_transfer(kTaskA + 4, 0x80010));
}

TEST(EaMpuSlots, CapacityAndReuse) {
  EaMpu mpu;
  const Rule rule{.code_start = 0x1000, .code_size = 16, .data_start = 0x2000,
                  .data_size = 16, .perms = kPermRead};
  for (std::size_t i = 0; i < EaMpu::kNumSlots; ++i) {
    EXPECT_TRUE(mpu.write_slot(i, rule).is_ok());
  }
  EXPECT_EQ(mpu.slots_in_use(), EaMpu::kNumSlots);
  EXPECT_FALSE(mpu.write_slot(EaMpu::kNumSlots, rule).is_ok());
  EXPECT_TRUE(mpu.clear_slot(7).is_ok());
  EXPECT_FALSE(mpu.slot_used(7));
  EXPECT_EQ(mpu.slots_in_use(), EaMpu::kNumSlots - 1);
}

TEST(EaMpuSlots, PortGuardBlocksWrites) {
  EaMpu mpu;
  mpu.set_port_guard(true);
  const Rule rule{.code_start = 0, .code_size = 4, .data_start = 0x100, .data_size = 4,
                  .perms = kPermRead};
  EXPECT_EQ(mpu.write_slot(0, rule).code(), Err::kPermissionDenied);
  EXPECT_EQ(mpu.clear_slot(0).code(), Err::kPermissionDenied);
  {
    EaMpu::PortUnlock unlock(mpu);
    EXPECT_TRUE(mpu.write_slot(0, rule).is_ok());
  }
  EXPECT_TRUE(mpu.port_locked());
}

TEST(EaMpuSlots, ExecRegionsRejectOverlap) {
  EaMpu mpu;
  ASSERT_TRUE(mpu.add_exec_region({0x1000, 0x100, 0x1000}).is_ok());
  EXPECT_FALSE(mpu.add_exec_region({0x1080, 0x100, 0x1080}).is_ok());
  EXPECT_TRUE(mpu.add_exec_region({0x1100, 0x100, 0x1100}).is_ok());
}

TEST(EaMpuSlots, EmptyRuleRejected) {
  EaMpu mpu;
  EXPECT_FALSE(mpu.write_slot(0, Rule{}).is_ok());
}

TEST(EaMpu, VerdictSpansAreExact) {
  // Every verdict inside a returned span must equal the verdict at the
  // queried address, on random tables (random_eampu.h).
  std::mt19937 rng(0x5BA4);
  RandomEaMpu tables(rng);
  constexpr Access kAccesses[] = {Access::kRead, Access::kWrite, Access::kExecute};
  std::uint64_t spans = 0;
  for (int table = 0; table < 200; ++table) {
    EaMpu mpu;
    ASSERT_NO_FATAL_FAILURE(tables.fill(mpu));
    for (int query = 0; query < 200; ++query) {
      const std::uint32_t ip = tables.address();
      const std::uint32_t addr = tables.address();
      const auto check_span = [&](std::uint64_t lo, std::uint64_t hi, auto verdict_at,
                                  auto expected) {
        ASSERT_LE(lo, addr);
        ASSERT_LT(addr, hi);
        ASSERT_LE(hi, std::uint64_t{1} << 32);
        std::vector<std::uint64_t> points = {lo, hi - 1};
        for (int k = 0; k < 8; ++k) {
          points.push_back(lo + rng() % (hi - lo));
        }
        for (const std::uint64_t p : points) {
          ASSERT_EQ(verdict_at(static_cast<std::uint32_t>(p)), expected)
              << "table " << table << " ip " << ip << " addr " << addr << " at " << p
              << " of [" << lo << ", " << hi << ")";
        }
        ++spans;
      };
      for (const Access access : kAccesses) {
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        const int code = mpu.classify_span(ip, addr, access, &lo, &hi);
        ASSERT_EQ(code, mpu.classify(ip, addr, access));
        check_span(lo, hi, [&](std::uint32_t a) { return mpu.classify(ip, a, access); },
                   code);
      }
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      const bool allowed = mpu.allows_transfer_span(ip, addr, &lo, &hi);
      ASSERT_EQ(allowed, mpu.allows_transfer(ip, addr));
      check_span(lo, hi, [&](std::uint32_t a) { return mpu.allows_transfer(ip, a); },
                 allowed);
    }
  }
  EXPECT_EQ(spans, 200u * 200u * 4u);
}

}  // namespace
}  // namespace tytan::sim
