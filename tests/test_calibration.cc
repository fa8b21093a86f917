// Calibration regression suite: locks the exact reproduction of the paper's
// tables so a future cost-model or firmware change that silently shifts the
// published numbers fails CI instead of EXPERIMENTS.md going stale.
#include <gtest/gtest.h>

#include "core/platform.h"
#include "isa/stdlib.h"

namespace tytan {
namespace {

using core::Platform;

TEST(Calibration, Table2ContextSaveExact) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(R"(
      .secure
      .stack 128
      .entry main
  main:
      jmp main
  )", {.name = "spin"});
  ASSERT_TRUE(task.is_ok());
  ASSERT_TRUE(platform.run_until(
      [&] { return platform.int_mux().last_save().secure; }, 10'000'000));
  const auto& save = platform.int_mux().last_save();
  EXPECT_EQ(save.store, 38u);   // paper Table 2: Store context
  EXPECT_EQ(save.wipe, 16u);    // Wipe registers
  EXPECT_EQ(save.branch, 41u);  // Branch
  EXPECT_EQ(save.total, 95u);   // Overall
}

TEST(Calibration, Table3ResumeComponents) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(R"(
      .secure
      .stack 128
      .entry main
  main:
      jmp main
  )", {.name = "spin"});
  ASSERT_TRUE(task.is_ok());
  ASSERT_TRUE(platform.run_until(
      [&] { return platform.int_mux().last_resume().total > 0; }, 10'000'000));
  const auto& resume = platform.int_mux().last_resume();
  EXPECT_EQ(resume.branch, 106u);   // paper Table 3: Branch
  EXPECT_EQ(resume.restore, 254u);  // Restore
}

TEST(Calibration, Table6EaMpuConfigExact) {
  sim::Machine machine;
  sim::EaMpu mpu;
  core::EaMpuDriver driver(machine, mpu);
  auto check = [&](std::size_t position, std::uint64_t find, std::uint64_t overall) {
    // Occupy slots up to position-1.
    sim::EaMpu fresh;
    core::EaMpuDriver d(machine, fresh);
    for (std::size_t i = 0; i + 1 < position; ++i) {
      const auto base = static_cast<std::uint32_t>(0x40000 + i * 0x1000);
      ASSERT_TRUE(fresh.write_slot(i, {.code_start = base, .code_size = 16,
                                       .data_start = base, .data_size = 16,
                                       .perms = sim::kPermRead}).is_ok());
    }
    auto slot = d.configure({.code_start = 0x90000, .code_size = 16,
                             .data_start = 0x90000, .data_size = 16,
                             .perms = sim::kPermRead});
    ASSERT_TRUE(slot.is_ok());
    EXPECT_EQ(d.last_config().find, find) << "position " << position;
    EXPECT_EQ(d.last_config().policy, 824u);
    EXPECT_EQ(d.last_config().write, 225u);
    EXPECT_EQ(d.last_config().total, overall) << "position " << position;
  };
  check(1, 76, 1'125);    // paper Table 6 row 1
  check(2, 95, 1'144);    // row 2
  check(18, 399, 1'448);  // row 18
}

TEST(Calibration, Table7MeasurementModel) {
  // T = 4,300 + b*3,900 + 100 for b hash blocks with zero relocations.
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  isa::ObjectFile object;
  object.image.assign(2 * 64 - 9, 0x90);  // exactly 2 SHA-1 blocks
  object.stack_size = 64;
  auto task = platform.load_task(std::move(object), {.name = "m", .auto_start = false});
  ASSERT_TRUE(task.is_ok());
  auto digest = platform.rtm().measure_now(*platform.scheduler().get(*task), {});
  ASSERT_TRUE(digest.is_ok());
  const auto& stats = platform.rtm().last_measure();
  EXPECT_EQ(stats.blocks, 2u);
  EXPECT_EQ(stats.setup + stats.hash + stats.finalize, 12'200u);  // paper: 12,200
}

TEST(Calibration, IpcProxyExact) {
  // The full sync IPC bench lands on the paper's 1,208 + 116 = 1,324; this
  // regression checks the calibrated components that produce it.
  const sim::CostModel costs;
  EXPECT_EQ(costs.ipc_proxy_base, 892u);
  EXPECT_EQ(costs.ipc_receiver_entry, 116u);
  EXPECT_EQ(costs.resume_branch, 106u);
  // proxy = base + 3 registry probes (sender lookup walks past the receiver
  // entry, receiver lookup hits first) + 6 copied words + branch to R
  EXPECT_EQ(costs.ipc_proxy_base + 3 * costs.ipc_registry_probe +
                6 * costs.ipc_copy_word + costs.resume_branch,
            1'208u);
}

TEST(Calibration, Table8FootprintsSumExactly) {
  const auto manifest = core::default_manifest();
  std::uint32_t total = 0;
  for (const auto& component : manifest) {
    total += component.footprint;
  }
  EXPECT_EQ(core::kFreeRtosFootprint + total, 249'943u);  // paper Table 8
  EXPECT_EQ(core::kFreeRtosFootprint, 215'617u);
}

TEST(Calibration, Table5RelocationSlope) {
  const sim::CostModel costs;
  EXPECT_EQ(costs.reloc_base, 37u);       // paper: 0 addresses -> 37
  EXPECT_EQ(costs.reloc_per_addr, 660u);  // paper slope ~660..680
}

}  // namespace
}  // namespace tytan
