// Host-side performance of the simulator itself (google-benchmark).
//
// These are NOT paper numbers — the paper reports guest cycles, reproduced
// by the bench_table* binaries.  This harness tracks how fast the simulation
// runs on the host, which bounds how much simulated time the examples and
// property tests can afford.  It is the standing A/B harness for interpreter
// work (ROADMAP item 1, the decode cache): the `--json` artifact publishes
// guest-MIPS per workload plus the raw sim-cycle / instruction / host-ns
// rows they derive from, with the execution observatory off and on AND with
// the decode cache on (default) and off (`_interp_*` rows).  A duty-cycled
// `idle` leg publishes simulated Mcycles/s instead (`idle_*` rows): it spends
// most of its window in the kernel's idle task, which the cached mode
// fast-forwards to the next event and the interpreter steps pass by pass.
// All legs must agree on every simulated quantity — cycles, instructions,
// firmware invocations, interrupts, registers, EIP, EFLAGS, fault count — or
// the binary exits 1, so CI catches an observability layer that leaks cycles
// or a dispatch mode (or the idle fast-forward) that diverges.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/platform.h"
#include "crypto/sha1.h"
#include "isa/assembler.h"

using namespace tytan;

namespace {

void BM_Sha1Throughput(benchmark::State& state) {
  const ByteVec data(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha1::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha1Throughput)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Assemble(benchmark::State& state) {
  const std::string source = R"(
      .secure
      .stack 256
      .entry main
  main:
      li   r2, data
      ldw  r3, [r2]
      addi r3, 1
      stw  r3, [r2]
      movi r0, 1
      int  0x21
      jmp  main
  data:
      .word 0
  )";
  for (auto _ : state) {
    auto object = isa::assemble(source);
    benchmark::DoNotOptimize(object);
  }
}
BENCHMARK(BM_Assemble);

void BM_PlatformBoot(benchmark::State& state) {
  for (auto _ : state) {
    core::Platform platform;
    benchmark::DoNotOptimize(platform.boot());
  }
}
BENCHMARK(BM_PlatformBoot);

void BM_GuestExecution(benchmark::State& state) {
  core::Platform platform;
  if (!platform.boot().is_ok()) {
    state.SkipWithError("boot failed");
    return;
  }
  auto task = platform.load_task_source(R"(
      .secure
      .stack 128
      .entry main
  main:
      addi r5, 1
      jmp  main
  )", {.name = "spin"});
  if (!task.is_ok()) {
    state.SkipWithError("load failed");
    return;
  }
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    const std::uint64_t before = platform.machine().instructions_executed();
    platform.run_for(100'000);
    instructions += platform.machine().instructions_executed() - before;
  }
  state.counters["guest_instr_per_s"] =
      benchmark::Counter(static_cast<double>(instructions), benchmark::Counter::kIsRate);
  state.counters["sim_cycles_per_iter"] = 100'000;
}
BENCHMARK(BM_GuestExecution);

void BM_SecureTaskCreate(benchmark::State& state) {
  core::Platform platform;
  if (!platform.boot().is_ok()) {
    state.SkipWithError("boot failed");
    return;
  }
  auto object = isa::assemble(R"(
      .secure
      .stack 256
      .entry main
  main:
      movi r0, 1
      int  0x21
      jmp  main
  )");
  int i = 0;
  for (auto _ : state) {
    auto task = platform.load_task(*object, {.name = "t" + std::to_string(i++),
                                             .auto_start = false});
    if (!task.is_ok()) {
      state.SkipWithError("load failed");
      return;
    }
    state.PauseTiming();
    (void)platform.loader().unload(*task);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_SecureTaskCreate);

/// Guest workloads exercising the distinct interpreter hot paths: plain ALU
/// dispatch, the load/store MPU choke point, call/ret stack traffic, and
/// computed jumps through a table (the indirect-edge recording path).
struct Workload {
  const char* name;
  const char* source;
};

constexpr Workload kWorkloads[] = {
    {"spin", R"(
      .secure
      .stack 128
      .entry main
  main:
      addi r5, 1
      jmp  main
  )"},
    {"memory", R"(
      .secure
      .stack 128
      .entry main
  main:
      li   r2, data
  loop:
      ldw  r3, [r2]
      addi r3, 1
      stw  r3, [r2]
      jmp  loop
  data:
      .word 0
  )"},
    {"call_branch", R"(
      .secure
      .stack 256
      .entry main
  main:
      call bump
      cmpi r5, 0
      jnz  main
      jmp  main
  bump:
      addi r5, 1
      ret
  )"},
    // Long straight-line block (32 ALU ops per loop): the regime decoded
    // dispatch is built for — the interpreter pays fetch + decode + the
    // EA-MPU walk on every instruction, the cache pays one cursor bump.
    // This is the shape of attestation / hashing inner loops.
    {"alu_block", R"(
      .secure
      .stack 128
      .entry main
  main:
      addi r1, 1
      xor  r2, r1
      shli r3, 1
      ori  r3, 5
      add  r4, r1
      andi r4, 255
      sub  r5, r2
      shri r5, 3
      addi r1, 7
      xor  r2, r4
      shli r3, 2
      ori  r3, 9
      add  r4, r2
      andi r4, 1023
      sub  r5, r1
      shri r5, 1
      addi r1, 3
      xor  r2, r3
      shli r3, 1
      ori  r3, 17
      add  r4, r3
      andi r4, 4095
      sub  r5, r4
      shri r5, 2
      addi r1, 11
      xor  r2, r5
      shli r3, 3
      ori  r3, 33
      add  r4, r5
      andi r4, 65535
      sub  r5, r3
      shri r5, 4
      jmp  main
  )"},
    {"jump_table", R"(
      .secure
      .stack 128
      .entry main
  main:
      addi r1, 1
      andi r1, 3
      shli r1, 2
      li   r2, table
      add  r2, r1
      ldw  r2, [r2]
      shri r1, 2
      jmpr r2
  case0:
      jmp  main
  case1:
      jmp  main
  case2:
      jmp  main
  case3:
      jmp  main
  table:
      .word case0, case1, case2, case3
  )"},
};

/// Duty-cycled device: a short burst, then sleep one RTOS tick.  Almost all
/// of the window is idle-task time, so this leg measures the idle path
/// (sim Mcycles/s), not guest dispatch; it stays out of the overall_* rows.
constexpr Workload kIdleWorkload = {"idle", R"(
      .secure
      .stack 128
      .entry main
  main:
      movi r2, 40
  burst:
      addi r5, 1
      subi r2, 1
      cmpi r2, 0
      jnz  burst
      movi r0, 2          ; kSysDelay
      movi r1, 1
      int  0x21
      jmp  main
  )"};

struct RunResult {
  std::uint64_t sim_cycles = 0;     ///< simulated cycles the window advanced
  std::uint64_t instructions = 0;   ///< guest instructions dispatched
  std::uint64_t host_ns = 0;        ///< host wall time for the window
  std::uint64_t fw_invocations = 0;  ///< firmware handler passes (idle included)
  std::uint64_t interrupts = 0;     ///< interrupts dispatched
  // Final simulated machine state, compared bit-for-bit across the
  // observatory A/B and the dispatch-mode A/B.
  std::array<std::uint32_t, 8> regs{};
  std::uint32_t eip = 0;
  std::uint32_t eflags = 0;
  std::uint64_t faults = 0;

  [[nodiscard]] bool same_sim_state(const RunResult& other) const {
    return sim_cycles == other.sim_cycles && instructions == other.instructions &&
           fw_invocations == other.fw_invocations && interrupts == other.interrupts &&
           regs == other.regs && eip == other.eip && eflags == other.eflags &&
           faults == other.faults;
  }
};

/// Boot a fresh platform, load `source`, run a `window`-cycle quantum, and
/// measure.  `heat` turns the execution observatory on before boot (the mode
/// tytan-run --heat-out uses); `dispatch` selects the interpreter or the
/// decoded basic-block cache.
std::optional<RunResult> run_workload(const char* source, std::uint64_t window,
                                      bool heat, sim::DispatchMode dispatch) {
  core::Platform::Config config;
  config.dispatch = dispatch;
  core::Platform platform(config);
  if (heat) {
    platform.machine().enable_heat();
  }
  if (!platform.boot().is_ok()) {
    return std::nullopt;
  }
  auto task = platform.load_task_source(source, {.name = "workload"});
  if (!task.is_ok()) {
    return std::nullopt;
  }
  RunResult result;
  const sim::Machine& machine = platform.machine();
  const std::uint64_t c0 = machine.cycles();
  const std::uint64_t i0 = machine.instructions_executed();
  const std::uint64_t f0 = machine.firmware_invocations();
  const std::uint64_t n0 = machine.interrupts_dispatched();
  const auto t0 = std::chrono::steady_clock::now();
  platform.run_for(window);
  const auto t1 = std::chrono::steady_clock::now();
  result.sim_cycles = machine.cycles() - c0;
  result.instructions = machine.instructions_executed() - i0;
  result.fw_invocations = machine.firmware_invocations() - f0;
  result.interrupts = machine.interrupts_dispatched() - n0;
  result.host_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  const sim::CpuState& cpu = machine.cpu();
  for (std::size_t i = 0; i < result.regs.size(); ++i) {
    result.regs[i] = cpu.regs[i];
  }
  result.eip = cpu.eip;
  result.eflags = cpu.eflags;
  result.faults = machine.fault_count();
  return result;
}

/// The three legs of one workload: the default configuration (decode cache,
/// observatory off), the observatory A/B leg, and the interpreter A/B leg.
struct Legs {
  RunResult off;
  RunResult heat;
  RunResult interp;
};

/// Run all three legs; nullopt when a leg failed to run or any two disagree
/// on a simulated quantity (reported on stderr).
std::optional<Legs> run_legs(const Workload& workload, std::uint64_t window) {
  const auto off = run_workload(workload.source, window, /*heat=*/false,
                                sim::DispatchMode::kCached);
  const auto heat = run_workload(workload.source, window, /*heat=*/true,
                                 sim::DispatchMode::kCached);
  const auto interp = run_workload(workload.source, window, /*heat=*/false,
                                   sim::DispatchMode::kInterpreter);
  if (!off.has_value() || !heat.has_value() || !interp.has_value()) {
    std::fprintf(stderr, "bench_host_perf: %s failed to run\n", workload.name);
    return std::nullopt;
  }
  bool same = true;
  for (const auto& [leg, what] : {std::pair{&*heat, "observatory changed simulated state"},
                                  std::pair{&*interp, "dispatch modes diverged"}}) {
    if (off->same_sim_state(*leg)) {
      continue;
    }
    std::fprintf(stderr,
                 "bench_host_perf: %s: %s: cycles %llu vs %llu, instructions %llu vs "
                 "%llu, fw invocations %llu vs %llu, interrupts %llu vs %llu, "
                 "eip %08x vs %08x, faults %llu vs %llu\n",
                 workload.name, what, static_cast<unsigned long long>(off->sim_cycles),
                 static_cast<unsigned long long>(leg->sim_cycles),
                 static_cast<unsigned long long>(off->instructions),
                 static_cast<unsigned long long>(leg->instructions),
                 static_cast<unsigned long long>(off->fw_invocations),
                 static_cast<unsigned long long>(leg->fw_invocations),
                 static_cast<unsigned long long>(off->interrupts),
                 static_cast<unsigned long long>(leg->interrupts), off->eip, leg->eip,
                 static_cast<unsigned long long>(off->faults),
                 static_cast<unsigned long long>(leg->faults));
    same = false;
  }
  if (!same) {
    return std::nullopt;
  }
  return Legs{*off, *heat, *interp};
}

/// MIPS×1000 so the artifact stays integer rows (bench_util's JSON shape).
std::uint64_t mips_x1000(const RunResult& r) {
  return r.host_ns == 0 ? 0 : r.instructions * 1'000'000 / r.host_ns;
}

/// Simulated Mcycles/s ×1000, the idle leg's throughput.
std::uint64_t mcps_x1000(const RunResult& r) {
  return r.host_ns == 0 ? 0 : r.sim_cycles * 1'000'000 / r.host_ns;
}

/// Per-workload guest-MIPS rows plus the observatory on/off A/B.  Returns
/// false when the on/off runs disagree on any simulated quantity — the
/// zero-simulated-cost invariant the observatory promises.
bool write_json_rows(const bench::BenchOptions& options) {
  bench::JsonReport report("host_perf", options);
  {
    core::Platform platform;
    if (!platform.boot().is_ok()) {
      std::fprintf(stderr, "bench_host_perf: boot failed\n");
      return false;
    }
    report.add("boot_cycles", platform.machine().cycles(), 0);
  }

  const std::uint64_t window = options.smoke ? 2'000'000 : 20'000'000;
  auto table = bench::Table("guest throughput (window " +
                            std::to_string(window) + " cycles)");
  table.columns({"workload", "instructions", "MIPS", "MIPS (interp)",
                 "speedup", "MIPS (heat)", "heat overhead"});
  bool ok = true;
  std::uint64_t total_instructions = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t total_interp_ns = 0;
  std::uint64_t total_heat_ns = 0;
  for (const Workload& workload : kWorkloads) {
    const std::optional<Legs> legs = run_legs(workload, window);
    if (!legs.has_value()) {
      ok = false;
      continue;
    }
    const RunResult& off = legs->off;
    const RunResult& heat = legs->heat;
    const RunResult& interp = legs->interp;
    const std::string name = workload.name;
    report.add(name + "_sim_cycles", off.sim_cycles, 0);
    report.add(name + "_instructions", off.instructions, 0);
    report.add(name + "_host_ns", off.host_ns, 0);
    report.add(name + "_guest_mips_x1000", mips_x1000(off), 0);
    report.add(name + "_interp_host_ns", interp.host_ns, 0);
    report.add(name + "_interp_guest_mips_x1000", mips_x1000(interp), 0);
    report.add(name + "_heat_host_ns", heat.host_ns, 0);
    report.add(name + "_heat_guest_mips_x1000", mips_x1000(heat), 0);
    total_instructions += off.instructions;
    total_ns += off.host_ns;
    total_interp_ns += interp.host_ns;
    total_heat_ns += heat.host_ns;
    const double overhead =
        off.host_ns == 0
            ? 0.0
            : 100.0 * (static_cast<double>(heat.host_ns) -
                       static_cast<double>(off.host_ns)) /
                  static_cast<double>(off.host_ns);
    const double speedup =
        off.host_ns == 0 ? 0.0
                         : static_cast<double>(interp.host_ns) /
                               static_cast<double>(off.host_ns);
    table.row({workload.name, bench::num(off.instructions),
               bench::fixed(mips_x1000(off) / 1000.0),
               bench::fixed(mips_x1000(interp) / 1000.0),
               bench::fixed(speedup) + "x",
               bench::fixed(mips_x1000(heat) / 1000.0),
               bench::fixed(overhead, 1) + "%"});
  }
  RunResult overall;
  overall.instructions = total_instructions;
  overall.host_ns = total_ns;
  RunResult overall_interp;
  overall_interp.instructions = total_instructions;
  overall_interp.host_ns = total_interp_ns;
  RunResult overall_heat;
  overall_heat.instructions = total_instructions;
  overall_heat.host_ns = total_heat_ns;
  report.add("overall_instructions", total_instructions, 0);
  report.add("overall_host_ns", total_ns, 0);
  report.add("overall_guest_mips_x1000", mips_x1000(overall), 0);
  report.add("overall_interp_host_ns", total_interp_ns, 0);
  report.add("overall_interp_guest_mips_x1000", mips_x1000(overall_interp), 0);
  report.add("overall_heat_host_ns", total_heat_ns, 0);
  report.add("overall_heat_guest_mips_x1000", mips_x1000(overall_heat), 0);
  table.row({"overall", bench::num(total_instructions),
             bench::fixed(mips_x1000(overall) / 1000.0),
             bench::fixed(mips_x1000(overall_interp) / 1000.0),
             total_ns == 0 ? "-"
                           : bench::fixed(static_cast<double>(total_interp_ns) /
                                          static_cast<double>(total_ns)) + "x",
             bench::fixed(mips_x1000(overall_heat) / 1000.0),
             total_ns == 0 ? "-"
                           : bench::fixed(100.0 *
                                              (static_cast<double>(total_heat_ns) -
                                               static_cast<double>(total_ns)) /
                                              static_cast<double>(total_ns),
                                          1) + "%"});
  table.print();

  if (const std::optional<Legs> idle = run_legs(kIdleWorkload, window); idle.has_value()) {
    report.add("idle_sim_cycles", idle->off.sim_cycles, 0);
    report.add("idle_fw_invocations", idle->off.fw_invocations, 0);
    report.add("idle_host_ns", idle->off.host_ns, 0);
    report.add("idle_interp_host_ns", idle->interp.host_ns, 0);
    report.add("idle_sim_mcps_x1000", mcps_x1000(idle->off), 0);
    report.add("idle_interp_sim_mcps_x1000", mcps_x1000(idle->interp), 0);
    auto idle_table = bench::Table("duty-cycled idle (window " + std::to_string(window) +
                                   " cycles)");
    idle_table.columns({"workload", "fw invocations", "interrupts", "sim Mcycles/s",
                        "sim Mcycles/s (interp)", "sim Mcycles/s (heat)"});
    idle_table.row({kIdleWorkload.name, bench::num(idle->off.fw_invocations),
                    bench::num(idle->off.interrupts),
                    bench::fixed(mcps_x1000(idle->off) / 1000.0),
                    bench::fixed(mcps_x1000(idle->interp) / 1000.0),
                    bench::fixed(mcps_x1000(idle->heat) / 1000.0)});
    idle_table.print();
  } else {
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  // Split the standard bench interface (--smoke, --json=FILE) from
  // google-benchmark's own flags, which pass through untouched.
  bench::BenchOptions options;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json_path = arg.substr(std::strlen("--json="));
    } else if (arg == "--json" && i + 1 < argc) {
      options.json_path = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  const bool invariant_ok = write_json_rows(options);
  if (!invariant_ok) {
    return 1;  // observatory A/B or dispatch-mode A/B disagreed on sim state
  }
  if (options.smoke) {
    // Smoke keeps CI fast: the deterministic JSON rows above are the
    // artifact; the host-time measurement loop is skipped.
    std::printf("bench_host_perf: smoke mode, google-benchmark run skipped\n");
    return 0;
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
