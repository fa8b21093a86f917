#include "bench.h"

#include <cstdio>
#include <cstring>

#include "analysis/analyzer.h"
#include "isa/assembler.h"

namespace perfbench {

namespace {

/// Index into kLayers of a layer span (the name up to its first dot).
std::size_t layer_of(Span kind) {
  const char* name = kSpanNames[static_cast<std::size_t>(kind)];
  const std::size_t len = std::strcspn(name, ".");
  for (std::size_t i = 0; i < kLayers.size(); ++i) {
    if (std::strlen(kLayers[i]) == len && std::strncmp(kLayers[i], name, len) == 0) {
      return i;
    }
  }
  throw BenchError(std::string("span without a layer: ") + name);
}

bool is_root(Span kind) { return kind == Span::kOp || kind == Span::kSetup; }

}  // namespace

void Tracer::open(Span kind) {
  if (stack_.empty()) {
    ++next_op_;
  }
  std::int32_t index = -1;
  if (records_.size() < kMaxStored) {
    index = static_cast<std::int32_t>(records_.size());
    records_.push_back({kind, next_op_, stack_.empty() ? -1 : stack_.back().index, 0, 0});
  }
  const std::uint64_t start = now_ns();
  if (index >= 0) {
    records_[static_cast<std::size_t>(index)].start_ns = start;
  }
  stack_.push_back({kind, index, start, 0});
}

void Tracer::close() {
  const std::uint64_t end = now_ns();
  const Open span = stack_.back();
  stack_.pop_back();
  const std::uint64_t duration = end - span.start_ns;
  if (span.index >= 0) {
    records_[static_cast<std::size_t>(span.index)].end_ns = end;
  }
  const auto k = static_cast<std::size_t>(span.kind);
  (window_ ? window_samples_ : setup_samples_)[k].push_back(duration);
  const std::uint64_t self = duration > span.child_ns ? duration - span.child_ns : 0;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  if (is_root(span.kind)) {
    root_self_ns_ += self;
    root_total_ns_ += duration;
  } else {
    layer_self_ns_[layer_of(span.kind)] += self;
  }
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const std::uint64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  for (const Record& r : records_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"op\":%u,\"parent\":%d,\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 kSpanNames[static_cast<std::size_t>(r.kind)], r.op, r.parent,
                 static_cast<unsigned long long>(r.start_ns - origin),
                 static_cast<unsigned long long>(r.end_ns - origin));
  }
  return std::fclose(out) == 0;
}

Counters Counters::read(tytan::core::Platform& p) {
  const tytan::sim::Machine& m = p.machine();
  const tytan::sim::DecodeCache::Stats& dc = m.decode_cache().stats();
  Counters c;
  c.instructions = m.instructions_executed();
  c.cycles = m.cycles();
  c.interrupts = m.interrupts_dispatched();
  c.fw_invocations = m.firmware_invocations();
  c.faults = m.fault_count();
  c.syscalls = p.kernel().syscall_count();
  c.ticks = p.kernel().tick_count();
  c.dcache_hits = dc.hits;
  c.dcache_builds = dc.builds;
  c.dcache_invalidations = dc.invalidations;
  return c;
}

Counters& Counters::operator+=(const Counters& o) {
  instructions += o.instructions;
  cycles += o.cycles;
  interrupts += o.interrupts;
  fw_invocations += o.fw_invocations;
  faults += o.faults;
  syscalls += o.syscalls;
  ticks += o.ticks;
  dcache_hits += o.dcache_hits;
  dcache_builds += o.dcache_builds;
  dcache_invalidations += o.dcache_invalidations;
  return *this;
}

Counters operator-(Counters a, const Counters& b) {
  a.instructions -= b.instructions;
  a.cycles -= b.cycles;
  a.interrupts -= b.interrupts;
  a.fw_invocations -= b.fw_invocations;
  a.faults -= b.faults;
  a.syscalls -= b.syscalls;
  a.ticks -= b.ticks;
  a.dcache_hits -= b.dcache_hits;
  a.dcache_builds -= b.dcache_builds;
  a.dcache_invalidations -= b.dcache_invalidations;
  return a;
}

namespace {

// Calibration kernel: a tiny register machine, unrelated to the simulator,
// that runs a fixed pseudo-random program over 1 MiB of memory through
// switch dispatch plus a function-pointer table.  It shares the simulator's
// host profile (interpreter dispatch, indirect calls, hard-to-predict
// branches, L2-sized data), so host-speed swings move both alike.
struct CalibVm {
  std::array<std::uint32_t, 8> r{};
  std::vector<std::uint32_t> mem = std::vector<std::uint32_t>(1u << 18);
  std::vector<std::uint32_t> code = std::vector<std::uint32_t>(1u << 12);
};

using CalibOp = void (*)(CalibVm&, std::uint32_t);
void op_mix(CalibVm& vm, std::uint32_t i) { vm.r[i & 7] = vm.r[(i >> 3) & 7] * 0x9e37'79b1u + i; }
void op_load(CalibVm& vm, std::uint32_t i) {
  vm.r[i & 7] = vm.mem[(vm.r[(i >> 3) & 7] ^ i) & (vm.mem.size() - 1)];
}
void op_store(CalibVm& vm, std::uint32_t i) {
  vm.mem[(vm.r[(i >> 3) & 7] + i) & (vm.mem.size() - 1)] = vm.r[i & 7];
}
void op_shift(CalibVm& vm, std::uint32_t i) { vm.r[i & 7] ^= vm.r[(i >> 3) & 7] >> (i & 15); }
constexpr CalibOp kCalibOps[] = {op_mix, op_load, op_store, op_shift};

}  // namespace

std::uint64_t calibrate() {
  static CalibVm vm = [] {
    CalibVm v;
    std::uint64_t x = 0x9e37'79b9'7f4a'7c15ull;
    for (std::uint32_t& word : v.code) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      word = static_cast<std::uint32_t>(x);
    }
    return v;
  }();
  vm.r = {};
  std::fill(vm.mem.begin(), vm.mem.end(), 0x5a5a'5a5au);
  const std::uint64_t t0 = now_ns();
  std::uint32_t pc = 0;
  for (int step = 0; step < (1 << 16); ++step) {
    const std::uint32_t word = vm.code[pc];
    const std::uint32_t imm = word >> 8;
    switch (word & 7) {
      case 0: vm.r[imm & 7] += imm; break;
      case 1: vm.r[imm & 7] ^= vm.r[(imm >> 3) & 7]; break;
      case 2: vm.r[imm & 7] -= vm.r[(imm >> 3) & 7] | 1; break;
      case 3:
        if ((vm.r[imm & 7] & 1) != 0) {
          pc = (pc + (imm & 63)) & (vm.code.size() - 1);
        }
        break;
      default: kCalibOps[word & 3](vm, imm); break;
    }
    pc = (pc + 1) & (vm.code.size() - 1);
  }
  const std::uint64_t dt = now_ns() - t0;
  vm.mem[0] ^= vm.r[0];  // keeps the run observable
  return dt;
}

bool Pacer::keep_going(bool unfinished) {
  const std::uint64_t elapsed = now_ns() - start_ns_ - excluded_ns_;
  if (elapsed >= next_calibration_ns_) {
    const std::uint64_t t0 = now_ns();
    w_.calib_ns.push_back(calibrate());
    excluded_ns_ += now_ns() - t0;
    next_calibration_ns_ = elapsed + kCalibrateEveryNs;
  }
  return elapsed < budget_ns_ || unfinished;
}

double host_factor(std::vector<std::uint64_t> calib) {
  std::sort(calib.begin(), calib.end());
  const std::size_t trim = calib.size() / 10;
  double sum = 0;
  for (std::size_t i = trim; i < calib.size() - trim; ++i) {
    sum += static_cast<double>(calib[i]);
  }
  const std::size_t kept = calib.size() - 2 * trim;
  return kept == 0 ? 1.0 : sum / static_cast<double>(kept) / kCalibrationNominalNs;
}

double normalized_rate(const Window& w, std::uint64_t work) {
  return w.wall_ns == 0 ? 0.0
                        : static_cast<double>(work) / static_cast<double>(w.wall_ns) *
                              host_factor(w.calib_ns);
}

tytan::core::Platform::Config platform_config(tytan::sim::DispatchMode dispatch) {
  tytan::core::Platform::Config config;
  config.lint_mode = tytan::core::LintMode::kStrict;
  config.dispatch = dispatch;
  return config;
}

std::unique_ptr<tytan::core::Platform> boot_platform(
    Tracer& tracer, const tytan::core::Platform::Config& config, bool heat) {
  auto span = tracer.scope(Span::kCoreBoot);
  auto platform = std::make_unique<tytan::core::Platform>(config);
  if (heat) {
    platform->machine().enable_heat();  // the tytan-run --heat-out mode
  }
  if (auto boot = platform->boot(); !boot.is_ok()) {
    throw BenchError("secure boot failed: " + boot.status().to_string());
  }
  return platform;
}

tytan::isa::ObjectFile assemble_checked(Tracer& tracer, const std::string& source) {
  tytan::Result<tytan::isa::ObjectFile> object = [&] {
    auto span = tracer.scope(Span::kIsaAssemble);
    return tytan::isa::assemble(source);
  }();
  if (!object.is_ok()) {
    throw BenchError("generated program does not assemble: " + object.status().to_string());
  }
  tytan::analysis::Report report;
  {
    auto span = tracer.scope(Span::kAnalysisAnalyze);
    report = tytan::analysis::analyze(*object);
  }
  if (report.errors() > 0) {
    throw BenchError("generated program fails the strict lint gate: " +
                     tytan::analysis::format_finding(
                         *report.first(tytan::analysis::Severity::kError)));
  }
  return object.take();
}

}  // namespace perfbench
