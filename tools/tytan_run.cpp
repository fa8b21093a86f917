// tytan-run — boot a TyTAN platform, load one or more TBF binaries, and run.
//
//   tytan-run [options] task1.tbf [task2.tbf ...]
//     --cycles N      simulate N cycles (default 10,000,000)
//     --priority P    priority for the loaded tasks (default 3)
//     --pedal V       accelerator-pedal sensor value
//     --radar V       radar sensor value
//     --attest        print an attestation report per task after loading
//     --trace N       dump the last N executed instructions at exit
//     --trace-out F   record platform events; write a Chrome/Perfetto trace to F
//     --metrics       print the metrics summary and per-task cycle accounting
//     --fault SPEC    fault-injection plan (docs/FAULTS.md grammar); a fault
//                     summary prints at exit
//     --fault-seed N  RNG seed for seeded bit/drop choices
//     --snapshot-out F  write a versioned machine snapshot (docs/SNAPSHOT.md)
//                     to F; `tytan-trace replay` resumes from it
//     --snapshot-at N  take the snapshot after running N of the --cycles
//                     budget (default 0: right after the tasks are loaded)
//     --heat-out F    record the execution observatory (heat-schema 1 JSONL:
//                     block heat, dispatch histogram + host-ns, MPU rule
//                     splits, indirect edges) and write it to F; inspect with
//                     `tytan-objdump --heat F` or `tytan-top --heat F`
//     --heat-folded F write heat blocks as collapsed stacks for flamegraph.pl
//     --dispatch M    instruction dispatch: "cached" (decoded basic-block
//                     cache, the default) or "interpreter" (reference path);
//                     simulated state is bit-identical either way — CI diffs
//                     the two over the examples corpus
//
// Serial output is echoed to stdout; per-task statistics print at exit.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/platform.h"
#include "fault/fault.h"
#include "isa/isa.h"
#include "obs/export.h"
#include "obs/heat.h"
#include "tbf/tbf.h"
#include "tool_util.h"

using namespace tytan;

namespace {

constexpr const char kUsageText[] =
    "usage: tytan-run [--cycles N] [--priority P] [--pedal V] [--radar V]\n"
    "                 [--attest] [--trace N] [--trace-out FILE] [--metrics]\n"
    "                 [--spans-out FILE] [--fault SPEC] [--fault-seed N]\n"
    "                 [--snapshot-out FILE] [--snapshot-at N]\n"
    "                 [--heat-out FILE] [--heat-folded FILE]\n"
    "                 [--dispatch interpreter|cached]\n"
    "                 <task.tbf> [more.tbf ...]\n";

int usage() {
  std::fputs(kUsageText, stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  tools::handle_version_help("tytan-run", argc, argv, kUsageText);
  std::uint64_t cycles = 10'000'000;
  unsigned priority = 3;
  std::uint32_t pedal = 0;
  std::uint32_t radar = 0;
  bool attest = false;
  std::size_t trace = 0;
  std::string trace_out;
  bool metrics = false;
  std::string spans_out;
  std::string fault_spec;
  std::optional<std::uint64_t> fault_seed;
  std::string snapshot_out;
  std::uint64_t snapshot_at = 0;
  std::string heat_out;
  std::string heat_folded;
  sim::DispatchMode dispatch = sim::DispatchMode::kCached;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) {
      return tools::required_value("tytan-run", flag, argc, argv, &i);
    };
    if (arg == "--cycles") {
      cycles = tools::parse_u64("tytan-run", "--cycles", next("--cycles"));
    } else if (arg == "--priority") {
      priority = static_cast<unsigned>(
          tools::parse_u32("tytan-run", "--priority", next("--priority")));
    } else if (arg == "--pedal") {
      pedal = tools::parse_u32("tytan-run", "--pedal", next("--pedal"));
    } else if (arg == "--radar") {
      radar = tools::parse_u32("tytan-run", "--radar", next("--radar"));
    } else if (arg == "--attest") {
      attest = true;
    } else if (arg == "--trace") {
      trace = tools::parse_u64("tytan-run", "--trace", next("--trace"));
    } else if (arg == "--trace-out") {
      trace_out = next("--trace-out");
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--fault") {
      fault_spec = next("--fault");
    } else if (arg.rfind("--fault=", 0) == 0) {
      fault_spec = arg.substr(std::strlen("--fault="));
    } else if (arg == "--fault-seed") {
      fault_seed = tools::parse_u64("tytan-run", "--fault-seed", next("--fault-seed"));
    } else if (arg == "--spans-out") {
      spans_out = next("--spans-out");
    } else if (arg.rfind("--spans-out=", 0) == 0) {
      spans_out = arg.substr(std::strlen("--spans-out="));
    } else if (arg == "--snapshot-out") {
      snapshot_out = next("--snapshot-out");
    } else if (arg.rfind("--snapshot-out=", 0) == 0) {
      snapshot_out = arg.substr(std::strlen("--snapshot-out="));
    } else if (arg == "--snapshot-at") {
      snapshot_at = tools::parse_u64("tytan-run", "--snapshot-at", next("--snapshot-at"));
    } else if (arg.rfind("--snapshot-at=", 0) == 0) {
      snapshot_at = tools::parse_u64("tytan-run", "--snapshot-at",
                                     arg.c_str() + std::strlen("--snapshot-at="));
    } else if (arg == "--heat-out") {
      heat_out = next("--heat-out");
    } else if (arg.rfind("--heat-out=", 0) == 0) {
      heat_out = arg.substr(std::strlen("--heat-out="));
    } else if (arg == "--heat-folded") {
      heat_folded = next("--heat-folded");
    } else if (arg.rfind("--heat-folded=", 0) == 0) {
      heat_folded = arg.substr(std::strlen("--heat-folded="));
    } else if (arg == "--dispatch" || arg.rfind("--dispatch=", 0) == 0) {
      const std::string mode = arg[10] == '='
                                   ? arg.substr(std::strlen("--dispatch="))
                                   : std::string(next("--dispatch"));
      if (mode == "interpreter") {
        dispatch = sim::DispatchMode::kInterpreter;
      } else if (mode == "cached") {
        dispatch = sim::DispatchMode::kCached;
      } else {
        std::fprintf(stderr, "tytan-run: --dispatch must be interpreter|cached\n");
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    return usage();
  }

  core::Platform::Config config;
  if (!fault_spec.empty()) {
    auto plan = fault::FaultPlan::parse(fault_spec);
    if (!plan.is_ok()) {
      std::fprintf(stderr, "tytan-run: --fault: %s\n",
                   plan.status().to_string().c_str());
      return 2;
    }
    config.fault_plan = plan.take();
    if (fault_seed.has_value()) {
      config.fault_plan.seed = *fault_seed;
    }
  }
  config.dispatch = dispatch;
  core::Platform platform(config);
  if (trace != 0) {
    platform.machine().enable_trace(trace);
  }
  if (!trace_out.empty() || metrics || !spans_out.empty()) {
    // Enable before boot so loader / RTM / EA-MPU events are captured too.
    platform.machine().obs().enable();
  }
  if (!spans_out.empty()) {
    // Before boot/load so rtm-measure spans cover the first measurements.
    platform.machine().obs().spans().enable();
  }
  if (!heat_out.empty() || !heat_folded.empty()) {
    // Before boot so secure-boot and loader instructions are attributed too.
    platform.machine().enable_heat();
  }
  auto boot = platform.boot();
  if (!boot.is_ok()) {
    std::fprintf(stderr, "tytan-run: secure boot failed: %s\n",
                 boot.status().to_string().c_str());
    return 1;
  }
  platform.pedal().set_value(pedal);
  platform.radar().set_value(radar);

  std::vector<rtos::TaskHandle> tasks;
  for (const std::string& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "tytan-run: cannot open '%s'\n", path.c_str());
      return 1;
    }
    const ByteVec raw((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    auto object = tbf::read(raw);
    if (!object.is_ok()) {
      std::fprintf(stderr, "tytan-run: %s: %s\n", path.c_str(),
                   object.status().to_string().c_str());
      return 1;
    }
    auto task = platform.load_task(object.take(), {.name = path, .priority = priority});
    if (!task.is_ok()) {
      std::fprintf(stderr, "tytan-run: %s: load failed: %s\n", path.c_str(),
                   task.status().to_string().c_str());
      return 1;
    }
    const rtos::Tcb* tcb = platform.scheduler().get(*task);
    std::printf("loaded %-20s @ 0x%05x  id_t=%s%s\n", path.c_str(), tcb->region_base,
                hex_encode(tcb->identity).c_str(), tcb->secure ? "  [secure]" : "");
    if (attest) {
      // One round span per attested task (trace id = task handle + 1), so a
      // single-device run decomposes the same way a fleet round does.
      obs::SpanRecorder& spans = platform.machine().obs().spans();
      const obs::SpanRecorder::SpanId round = spans.begin_trace(
          static_cast<std::uint64_t>(*task) + 1, obs::SpanPhase::kAttestRound, *task);
      auto phase = spans.begin(obs::SpanPhase::kNonceGen, *task);
      const std::uint64_t nonce = platform.rng().next64();
      spans.end(phase, obs::SpanOutcome::kOk);
      auto report = platform.remote_attest().attest_task(*task, nonce);
      spans.end(round, report.is_ok() ? obs::SpanOutcome::kOk
                                      : obs::SpanOutcome::kFailed);
      if (report.is_ok()) {
        std::printf("  attestation report: %s\n", hex_encode(report->serialize()).c_str());
      }
    }
    tasks.push_back(*task);
  }

  if (!snapshot_out.empty()) {
    const std::uint64_t pre = std::min(snapshot_at, cycles);
    platform.run_for(pre);
    auto snapshot = platform.save();
    if (!snapshot.is_ok()) {
      std::fprintf(stderr, "tytan-run: snapshot failed: %s\n",
                   snapshot.status().to_string().c_str());
      return 1;
    }
    if (Status s = snapshot->write_file(snapshot_out); !s.is_ok()) {
      std::fprintf(stderr, "tytan-run: %s: %s\n", snapshot_out.c_str(),
                   s.to_string().c_str());
      return 1;
    }
    std::printf("snapshot written to %s at cycle %llu\n", snapshot_out.c_str(),
                static_cast<unsigned long long>(platform.machine().cycles()));
    platform.run_for(cycles - pre);
  } else {
    platform.run_for(cycles);
  }

  if (!platform.serial().output().empty()) {
    std::printf("\n--- serial ---\n%s\n--------------\n", platform.serial().output().c_str());
  }
  std::printf("\nsimulated %.3f ms (%llu cycles, %llu instructions, %llu interrupts, "
              "%llu syscalls, %llu fault kills)\n",
              static_cast<double>(platform.machine().cycles()) * 1000.0 / sim::kClockHz,
              static_cast<unsigned long long>(platform.machine().cycles()),
              static_cast<unsigned long long>(platform.machine().instructions_executed()),
              static_cast<unsigned long long>(platform.machine().interrupts_dispatched()),
              static_cast<unsigned long long>(platform.kernel().syscall_count()),
              static_cast<unsigned long long>(platform.kernel().fault_kills()));
  for (const rtos::TaskHandle handle : tasks) {
    const rtos::Tcb* tcb = platform.scheduler().get(handle);
    if (tcb == nullptr) {
      std::printf("  task %d: exited\n", handle);
      continue;
    }
    std::printf("  %-20s state=%-9s activations=%llu cpu=%llu cycles\n", tcb->name.c_str(),
                rtos::task_state_name(tcb->state),
                static_cast<unsigned long long>(tcb->activations),
                static_cast<unsigned long long>(tcb->cpu_cycles));
  }
  if (const fault::FaultEngine* engine = platform.fault_engine(); engine != nullptr) {
    std::printf("\nfaults: injected=%llu recovered=%llu watchdog-restarts=%llu\n",
                static_cast<unsigned long long>(engine->injected_total()),
                static_cast<unsigned long long>(engine->recovered_total()),
                static_cast<unsigned long long>(platform.kernel().watchdog_restarts()));
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(fault::FaultClass::kNumClasses); ++c) {
      const auto cls = static_cast<fault::FaultClass>(c);
      if (engine->injected(cls) == 0 && engine->recovered(cls) == 0) {
        continue;
      }
      const std::string name(fault::fault_class_name(cls));
      std::printf("  %-16s injected=%llu recovered=%llu\n", name.c_str(),
                  static_cast<unsigned long long>(engine->injected(cls)),
                  static_cast<unsigned long long>(engine->recovered(cls)));
    }
  }
  if (trace != 0 && platform.machine().tracer() != nullptr) {
    std::printf("\n--- last %zu instructions ---\n%s", trace,
                platform.machine().tracer()->format().c_str());
  }
  obs::Hub& hub = platform.machine().obs();
  hub.flush();
  if (metrics) {
    std::printf("\n%s", obs::export_metrics_summary(hub).c_str());
  }
  if (!trace_out.empty()) {
    if (hub.bus().dropped() != 0) {
      std::fprintf(stderr,
                   "tytan-run: warning: %llu events evicted from the ring before "
                   "export — the trace is incomplete (raise the bus capacity)\n",
                   static_cast<unsigned long long>(hub.bus().dropped()));
    }
    const obs::SpanRecorder* spans =
        hub.spans().enabled() ? &hub.spans() : nullptr;
    if (Status s = obs::write_chrome_trace(trace_out, hub.bus(), spans);
        !s.is_ok()) {
      std::fprintf(stderr, "tytan-run: cannot write trace '%s': %s\n", trace_out.c_str(),
                   s.to_string().c_str());
      return 1;
    }
    std::printf("\nwrote %zu events to %s (load in ui.perfetto.dev or chrome://tracing)\n",
                hub.bus().snapshot().size(), trace_out.c_str());
  }
  if (!spans_out.empty()) {
    std::ofstream out(spans_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "tytan-run: cannot write '%s'\n", spans_out.c_str());
      return 1;
    }
    out << hub.spans().to_jsonl();
    std::printf("wrote %zu spans to %s (inspect with tytan-trace spans)\n",
                hub.spans().size(), spans_out.c_str());
  }
  if (obs::HeatRecorder* heat = platform.machine().heat(); heat != nullptr) {
    heat->flush();
    const obs::HeatProfile& profile_data = heat->profile();
    const obs::OpcodeNamer namer = [](std::uint8_t op) {
      return std::string(isa::mnemonic(static_cast<isa::Opcode>(op)));
    };
    if (!heat_out.empty()) {
      std::ofstream out(heat_out, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "tytan-run: cannot write '%s'\n", heat_out.c_str());
        return 1;
      }
      out << profile_data.to_jsonl(/*include_host_ns=*/true, namer);
      std::printf("wrote heat profile to %s (%llu instructions over %zu blocks; "
                  "inspect with tytan-objdump --heat or tytan-top --heat)\n",
                  heat_out.c_str(),
                  static_cast<unsigned long long>(profile_data.total_instructions()),
                  profile_data.blocks.size());
    }
    if (!heat_folded.empty()) {
      std::ofstream out(heat_folded);
      if (!out) {
        std::fprintf(stderr, "tytan-run: cannot write '%s'\n", heat_folded.c_str());
        return 1;
      }
      out << profile_data.folded();
      std::printf("wrote heat collapsed stacks to %s (flamegraph.pl %s > heat.svg)\n",
                  heat_folded.c_str(), heat_folded.c_str());
    }
  }
  return 0;
}
