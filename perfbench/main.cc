// The repository benchmark: entry point, metrics and self-test.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--golden-file FILE] [--spans-out FILE]
//   perfbench --selftest [--golden-file FILE]
//
// One process runs one workload as a single-threaded closed loop (the fleet
// workload adds its own worker pool).  It sets up several times and reports
// the median set-up time, measures for S seconds, checks the simulated
// state digest against the reference interpreter and, with --golden-file,
// against the committed digests of its own seed (when listed) and of the
// default seed, and prints one JSON object as the last line of stdout: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exit status 0 means every op succeeded and every digest matched.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "gen.h"

namespace perfbench {
namespace {

constexpr int kSetups = 9;
constexpr std::uint64_t kDefaultSeed = 1;
constexpr const char* kWorkloads[] = {"guest_exec", "guest_heat", "fleet_attest", "fork_fuzz"};

std::unique_ptr<Workload> make(const std::string& name, std::uint64_t seed) {
  if (name == "guest_exec") return make_guest(seed, /*heat=*/false);
  if (name == "guest_heat") return make_guest(seed, /*heat=*/true);
  if (name == "fleet_attest") return make_fleet(seed);
  if (name == "fork_fuzz") return make_fuzz(seed);
  return nullptr;
}

/// Committed checkpoint digests, keyed by workload and seed.
using Goldens = std::map<std::pair<std::string, std::uint64_t>, std::uint64_t>;

/// Reads `workload seed hex-digest` lines; '#' starts a comment line.
Goldens load_goldens(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw BenchError("cannot read golden digests from " + path);
  }
  Goldens goldens;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t digest = 0;
    if (!(fields >> workload >> seed >> std::hex >> digest)) {
      throw BenchError("malformed golden line in " + path + ": " + line);
    }
    goldens[{workload, seed}] = digest;
  }
  return goldens;
}

/// `workload` on `seed` run with cached dispatch to its checkpoint.
std::uint64_t checkpoint_of(const std::string& workload, std::uint64_t seed) {
  Tracer off;
  auto wl = make(workload, seed);
  wl->setup(off);
  if (wl->run(0.0, off).failed != 0) {
    throw BenchError(workload + " seed " + std::to_string(seed) + ": ops failed before the checkpoint");
  }
  return wl->checkpoint_digest();
}

/// Compares `digest` with the committed one; prints the outcome.
bool matches_golden(const Goldens& goldens, const std::string& workload, std::uint64_t seed,
                    std::uint64_t digest) {
  const auto it = goldens.find({workload, seed});
  const bool ok = it != goldens.end() && it->second == digest;
  std::fprintf(stderr, "perfbench: %s seed %llu digest %016llx golden %s\n", workload.c_str(),
               static_cast<unsigned long long>(seed), static_cast<unsigned long long>(digest),
               it == goldens.end() ? "MISSING" : (ok ? "match" : "MISMATCH"));
  return ok;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of span durations, in `scale` units of ns.
double percentile(const std::vector<std::uint64_t>& samples, double p, double scale) {
  if (samples.empty()) return 0.0;
  std::vector<std::uint64_t> v = samples;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]) / scale;
}

double sum_ns(const std::vector<std::uint64_t>& samples) {
  double total = 0;
  for (const std::uint64_t s : samples) total += static_cast<double>(s);
  return total;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// `setup_s` holds raw set-up times; `setup_calib_ns` the calibration
/// kernel times taken between them.
std::vector<Metric> end_to_end(const Window& w, const std::vector<double>& setup_s,
                               const std::vector<std::uint64_t>& setup_calib_ns,
                               std::uint64_t rss_kb) {
  return {
      {"guest_mips", 1e3 * normalized_rate(w, w.sim.instructions), "MIPS"},
      {"sim_mcps", 1e3 * normalized_rate(w, w.sim.cycles), "Mcycles/s"},
      {"ops_per_s", 1e9 * normalized_rate(w, w.ops), "1/s"},
      {"setup_s", median(setup_s) / host_factor(setup_calib_ns), "s"},
      {"peak_rss_mb", static_cast<double>(rss_kb) / 1024.0, "MB"},
  };
}

/// `untraced` and `traced` are equal-length windows, each from a fresh
/// set-up; their throughput difference is the tracing overhead.
std::vector<Metric> per_layer(const Window& untraced, const Window& traced, const Tracer& tr,
                              Workload& wl, std::optional<double> heat_pct) {
  const auto& run = tr.samples(Span::kSimRun).empty() ? tr.samples(Span::kFleetRun)
                                                      : tr.samples(Span::kSimRun);
  const double run_ns = sum_ns(run);
  const Counters& c = traced.sim;
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  auto med_us = [&](Span s) { return percentile(tr.samples(s), 0.5, 1e3); };
  auto med_ms = [&](Span s) { return percentile(tr.samples(s), 0.5, 1e6); };
  const double root = n(tr.root_total_ns());
  std::vector<Metric> m = {
      {"sim.run_us.p50", percentile(tr.samples(Span::kSimRun), 0.5, 1e3), "us"},
      {"sim.run_us.p99", percentile(tr.samples(Span::kSimRun), 0.99, 1e3), "us"},
      {"sim.ns_per_instr", ratio(run_ns, n(c.instructions)), "ns"},
      {"sim.ns_per_kcycle", ratio(run_ns, n(c.cycles) / 1e3), "ns"},
      {"sim.instructions", n(c.instructions), "count"},
      {"sim.cycles", n(c.cycles), "count"},
      {"sim.dcache.hit_ratio", ratio(n(c.dcache_hits), n(c.dcache_hits + c.dcache_builds)), "ratio"},
      {"sim.dcache.builds", n(c.dcache_builds), "count"},
      {"sim.dcache.invalidations", n(c.dcache_invalidations), "count"},
      {"sim.dcache.blocks", n(traced.dcache_blocks), "count"},
      {"sim.fw_invocations", n(c.fw_invocations), "count"},
      {"sim.interrupts", n(c.interrupts), "count"},
      {"obs.heat.overhead_pct", heat_pct.value_or(0.0), "%"},
      {"obs.heat.blocks", n(traced.heat_blocks), "count"},
      {"obs.aggregate_ms", med_ms(Span::kObsAggregate), "ms"},
      {"core.boot_us", med_us(Span::kCoreBoot), "us"},
      {"core.load_us.p50", med_us(Span::kCoreLoad), "us"},
      {"core.load_us.p99", percentile(tr.samples(Span::kCoreLoad), 0.99, 1e3), "us"},
      {"core.load_accept_ratio", ratio(n(traced.load_accepted), n(traced.load_attempts)), "ratio"},
      {"core.attest_us", med_us(Span::kCoreAttest), "us"},
      {"core.syscalls", n(c.syscalls), "count"},
      {"rtos.ticks", n(c.ticks), "count"},
      {"isa.assemble_us", med_us(Span::kIsaAssemble), "us"},
      {"analysis.analyze_us", med_us(Span::kAnalysisAnalyze), "us"},
      {"tbf.read_us", med_us(Span::kTbfRead), "us"},
      {"tbf.accept_ratio", ratio(n(traced.tbf_accepted), n(traced.tbf_attempts)), "ratio"},
      {"snap.restore_us.p50", med_us(Span::kSnapRestore), "us"},
      {"snap.restore_us.p99", percentile(tr.samples(Span::kSnapRestore), 0.99, 1e3), "us"},
      {"snap.save_us", med_us(Span::kSnapSave), "us"},
      {"snap.bytes", n(wl.snapshot_bytes()), "bytes"},
      {"verifier.verify_us", med_us(Span::kVerifierVerify), "us"},
      {"fleet.bring_up_ms", med_ms(Span::kFleetBringUp), "ms"},
      {"fleet.deploy_ms", med_ms(Span::kFleetDeploy), "ms"},
      {"fleet.run_ms", med_ms(Span::kFleetRun), "ms"},
      {"fleet.attest_all_ms", med_ms(Span::kFleetAttestAll), "ms"},
      {"fleet.attests_per_s",
       1e9 * ratio(n(traced.attests_verified), sum_ns(tr.samples(Span::kFleetAttestAll))), "1/s"},
      {"trace.overhead_pct",
       100.0 * (ratio(normalized_rate(untraced, untraced.ops),
                      normalized_rate(traced, traced.ops)) - 1.0),
       "%"},
      {"trace.unattributed_pct", 100.0 * ratio(n(tr.root_self_ns()), root), "%"},
  };
  for (std::size_t l = 0; l < kLayers.size(); ++l) {
    m.push_back({std::string(kLayers[l]) + ".self_pct",
                 100.0 * ratio(n(tr.layer_self_ns(l)), root), "%"});
  }
  return m;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
}

/// The benchmark's own tests: for a few seeds (the held-out one included),
/// every workload's checkpoint digest is identical between two independent
/// runs and between cached dispatch and the reference interpreter, no op
/// fails, and different seeds give different digests.  With goldens, the
/// default and held-out seeds' digests must equal the committed ones.
int selftest(const std::optional<Goldens>& goldens) {
  int failures = 0;
  for (const char* name : kWorkloads) {
    std::map<std::uint64_t, std::uint64_t> digests;
    for (const std::uint64_t seed : {kDefaultSeed, std::uint64_t{2}, gen::kHeldOutSeed}) {
      Tracer off;
      auto a = make(name, seed);
      a->setup(off);
      const Window wa = a->run(0.0, off);
      auto b = make(name, seed);
      b->setup(off);
      const Window wb = b->run(0.0, off);
      const std::uint64_t da = a->checkpoint_digest();
      const std::uint64_t ref = a->reference_digest();
      bool ok = wa.failed == 0 && wb.failed == 0 && da == b->checkpoint_digest() && da == ref;
      if (goldens.has_value() && (seed == kDefaultSeed || seed == gen::kHeldOutSeed)) {
        ok = matches_golden(*goldens, name, seed, da) && ok;
      }
      std::printf("selftest %-12s seed %llu digest %016llx interpreter %016llx %s\n", name,
                  static_cast<unsigned long long>(seed), static_cast<unsigned long long>(da),
                  static_cast<unsigned long long>(ref), ok ? "ok" : "FAIL");
      failures += ok ? 0 : 1;
      digests[da] = seed;
    }
    if (digests.size() != 3) {
      std::printf("selftest %-12s FAIL: seeds share a digest\n", name);
      ++failures;
    }
  }
  std::printf("selftest: %s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--golden-file FILE] [--spans-out FILE]\n"
               "       perfbench --selftest [--golden-file FILE]\n"
               "workloads: guest_exec guest_heat fleet_attest fork_fuzz\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  bool self = false;
  std::string golden_file;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      self = true;
      continue;
    }
    if (i + 1 >= argc) {
      return usage();
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage();
      }
      trace = value[0] == '1';
    } else if (arg == "--golden-file") {
      golden_file = value;
    } else if (arg == "--spans-out") {
      spans_out = value;
    } else {
      return usage();
    }
    if (end != nullptr && (end == value || *end != '\0')) {
      return usage();
    }
  }
  std::unique_ptr<Workload> wl = self ? nullptr : make(workload, seed);
  if (!self && (wl == nullptr || !(seconds >= 0))) {
    return usage();
  }

  try {
    std::optional<Goldens> goldens;
    if (!golden_file.empty()) {
      goldens = load_goldens(golden_file);
    }
    if (self) {
      return selftest(goldens);
    }
    Tracer tracer;
    tracer.set_enabled(trace);
    std::vector<double> setup_s;
    std::vector<std::uint64_t> setup_calib_ns;
    for (int k = 0; k < kSetups; ++k) {
      const std::uint64_t t0 = now_ns();
      {
        auto root = tracer.scope(Span::kSetup);
        wl->setup(tracer);
      }
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      for (int i = 0; i < 4; ++i) {
        setup_calib_ns.push_back(calibrate());
      }
    }

    Window untraced;
    Window traced;
    std::optional<double> heat_pct;
    tracer.set_enabled(false);
    if (!trace) {
      untraced = wl->run(seconds, tracer);
    } else {
      // Untraced and traced halves, each from a fresh set-up so both start
      // at the same simulated time; guest_heat also spends a third on the
      // observatory on/off comparison.
      const bool heat = workload == "guest_heat";
      const double part = seconds / (heat ? 3 : 2);
      untraced = wl->run(part, tracer);
      wl->setup(tracer);
      tracer.set_enabled(true);
      tracer.begin_window();
      traced = wl->run(part, tracer);
      tracer.set_enabled(false);
      heat_pct = wl->heat_overhead_pct(part);
    }

    // Before the checks, which build platforms of their own.
    const std::uint64_t rss_kb = peak_rss_kb();
    const std::uint64_t digest = wl->checkpoint_digest();
    const std::uint64_t reference = wl->reference_digest();
    std::uint64_t attempted = untraced.ops + traced.ops;
    std::uint64_t failed = untraced.failed + traced.failed;
    if (digest != reference) {
      std::fprintf(stderr, "perfbench: %s: cached digest %016llx != interpreter %016llx\n",
                   workload.c_str(), static_cast<unsigned long long>(digest),
                   static_cast<unsigned long long>(reference));
      failed += wl->checkpoint_ops();
    }
    if (goldens.has_value()) {
      // Goldens exist for a few seeds only, so every run also replays the
      // default seed to its checkpoint: a change that shifts simulated state
      // in both dispatch modes alike still fails on any seed.
      if (goldens->contains({workload, seed}) && !matches_golden(*goldens, workload, seed, digest)) {
        failed += wl->checkpoint_ops();
      }
      if (seed != kDefaultSeed &&
          !matches_golden(*goldens, workload, kDefaultSeed, checkpoint_of(workload, kDefaultSeed))) {
        failed += wl->checkpoint_ops();
      }
    }
    failed = std::min(failed, attempted);
    std::fprintf(stderr,
                 "perfbench: raw window %.3f s, %llu ops, %.4g MIPS, %.4g ops/s, "
                 "host-speed factor %.3f\n",
                 static_cast<double>(untraced.wall_ns) / 1e9,
                 static_cast<unsigned long long>(untraced.ops),
                 1e3 * ratio(static_cast<double>(untraced.sim.instructions),
                             static_cast<double>(untraced.wall_ns)),
                 1e9 * ratio(static_cast<double>(untraced.ops),
                             static_cast<double>(untraced.wall_ns)),
                 host_factor(untraced.calib_ns));
    std::fprintf(stderr, "perfbench: raw set-up median %.5f s, host-speed factor %.3f\n",
                 median(setup_s), host_factor(setup_calib_ns));
    std::printf("perfbench: workload=%s seed=%llu digest=%016llx\n", workload.c_str(),
                static_cast<unsigned long long>(seed), static_cast<unsigned long long>(digest));

    std::vector<Metric> metrics;
    if (!trace) {
      metrics = end_to_end(untraced, setup_s, setup_calib_ns, rss_kb);
    } else {
      metrics = per_layer(untraced, traced, tracer, *wl, heat_pct);
      std::fprintf(stderr, "perfbench: traced window %.1f ms over %llu ops; self time:\n",
                   static_cast<double>(tracer.root_total_ns()) / 1e6,
                   static_cast<unsigned long long>(traced.ops));
      for (std::size_t l = 0; l < kLayers.size(); ++l) {
        std::fprintf(stderr, "  %-10s %10.2f ms\n", kLayers[l],
                     static_cast<double>(tracer.layer_self_ns(l)) / 1e6);
      }
      std::fprintf(stderr, "  %-10s %10.2f ms\n", "unattrib.",
                   static_cast<double>(tracer.root_self_ns()) / 1e6);
      if (!spans_out.empty() && !tracer.write_jsonl(spans_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());
        return 1;
      }
    }
    const bool correct = failed == 0;
    print_result(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
}
