// Table 6 — Performance of configuring the EA-MPU depending on the position
// of the first free slot (18 slots in total; cycles).
//
// Paper: slot 1 -> find 76,  policy 824, write 225, overall 1,125
//        slot 2 -> find 95,  policy 824, write 225, overall 1,144
//        slot 18 -> find 399, policy 824, write 225, overall 1,448
//
// Method: on a bare EA-MPU + driver, pre-fill the first k-1 slots with dummy
// rules and configure one new rule through the driver; the driver's phase
// instrumentation gives the breakdown.
#include "bench_util.h"
#include "core/eampu_driver.h"

using namespace tytan;

namespace {

core::EaMpuDriver::ConfigStats measure(std::size_t first_free_position) {
  sim::Machine machine;
  sim::EaMpu mpu;
  core::EaMpuDriver driver(machine, mpu);
  // Occupy slots 0 .. first_free_position-2 with disjoint dummy rules.
  for (std::size_t i = 0; i + 1 < first_free_position; ++i) {
    const auto base = static_cast<std::uint32_t>(0x40000 + i * 0x1000);
    TYTAN_CHECK(mpu.write_slot(i, {.code_start = base,
                                   .code_size = 0x100,
                                   .data_start = base,
                                   .data_size = 0x100,
                                   .perms = sim::kPermRead})
                    .is_ok(),
                "dummy rule install failed");
  }
  auto slot = driver.configure({.code_start = 0x80000,
                                .code_size = 0x100,
                                .data_start = 0x80000,
                                .data_size = 0x100,
                                .perms = sim::kPermRead | sim::kPermWrite});
  TYTAN_CHECK(slot.is_ok(), slot.status().to_string());
  TYTAN_CHECK(*slot == first_free_position - 1, "unexpected slot chosen");
  return driver.last_config();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parse_args(argc, argv);
  bench::JsonReport report("table6_eampu", options);
  struct PaperRow {
    std::size_t position;
    std::uint64_t find, policy, write, overall;
  };
  const PaperRow paper[] = {{1, 76, 824, 225, 1'125},
                            {2, 95, 824, 225, 1'144},
                            {18, 399, 824, 225, 1'448}};

  bench::Table table(
      "Table 6: configuring the EA-MPU vs position of first free slot (clock cycles)");
  table.columns({"Free slot position", "Finding free slot", "Policy check", "Writing rule",
                 "Overall"});
  for (std::size_t pos = 1; pos <= sim::EaMpu::kNumSlots; ++pos) {
    const auto stats = measure(pos);
    std::string label = bench::num(pos);
    for (const PaperRow& row : paper) {
      if (row.position == pos) {
        table.row({label + " (paper)", bench::num(row.find), bench::num(row.policy),
                   bench::num(row.write), bench::num(row.overall)});
        report.add("slot " + label + " overall", stats.total, row.overall);
      }
    }
    table.row({label, bench::num(stats.find), bench::num(stats.policy),
               bench::num(stats.write), bench::num(stats.total)});
  }
  table.print();

  const auto first = measure(1);
  const auto last = measure(sim::EaMpu::kNumSlots);
  std::printf("\nShape check: policy check constant (%llu == %llu): %s; find grows "
              "linearly with position: %s\n",
              static_cast<unsigned long long>(first.policy),
              static_cast<unsigned long long>(last.policy),
              first.policy == last.policy ? "yes" : "NO",
              last.find > first.find ? "yes" : "NO");
  return 0;
}
