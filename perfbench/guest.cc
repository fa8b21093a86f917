// guest_exec and guest_heat: one booted device running several generated
// secure tasks for a long window, with the execution observatory off
// (guest_exec) or on as `tytan-run --heat-out` runs it (guest_heat).
//
// The window is a loop of epochs of kEpochQuanta quanta, each starting from
// the same post-warm-up snapshot.  The decode cache's block set grows with
// simulated time (every preemption point a timer tick lands on becomes a
// new block head), and its host cost grows with it; restarting every epoch
// from one state keeps the host work per epoch identical, so throughput
// depends on the code under test and not on how far a run got.  Restores
// (microseconds) are not timed.
#include "bench.h"
#include "gen.h"
#include "tbf/tbf.h"

namespace perfbench {

namespace {

using tytan::core::Platform;
using tytan::sim::DispatchMode;

constexpr int kTasks = 6;  // the EA-MPU has rule slots for six secure tasks
constexpr std::uint64_t kQuantum = 50'000;         // cycles per run_for call
constexpr std::uint64_t kWarmupCycles = 1'000'000; // boots every task past its start
constexpr std::uint64_t kEpochQuanta = 40;         // 2M cycles per epoch
constexpr std::uint64_t kCheckQuanta = 5;          // state digest after these

struct Device {
  std::unique_ptr<Platform> platform;
  std::vector<tytan::rtos::TaskHandle> tasks;
  tytan::snap::Snapshot epoch_start;
  std::uint64_t epoch_quanta = 0;  ///< quanta started in the current epoch

  /// Call before each quantum: at an epoch boundary, rewinds to the epoch
  /// start.  Returns the host ns the rewind took (0 inside an epoch).
  std::uint64_t begin_quantum() {
    std::uint64_t rewind_ns = 0;
    if (epoch_quanta == 0) {
      const std::uint64_t t0 = now_ns();
      if (tytan::Status s = platform->restore(epoch_start); !s.is_ok()) {
        throw BenchError("epoch restore failed: " + s.to_string());
      }
      rewind_ns = now_ns() - t0;
    }
    epoch_quanta = (epoch_quanta + 1) % kEpochQuanta;
    return rewind_ns;
  }
};

/// Cycles, instructions, fault count, registers, and every task's memory
/// (code, data array, stack); with the observatory on, also its
/// deterministic heat JSONL.
std::uint64_t state_digest(Device& dev) {
  Digest d;
  const tytan::sim::Machine& m = dev.platform->machine();
  d.u64(m.cycles());
  d.u64(m.instructions_executed());
  d.u64(m.fault_count());
  for (const std::uint32_t reg : m.cpu().regs) {
    d.u64(reg);
  }
  d.u64(m.cpu().eip);
  d.u64(m.cpu().eflags);
  for (const tytan::rtos::TaskHandle handle : dev.tasks) {
    const tytan::rtos::Tcb* tcb = dev.platform->scheduler().get(handle);
    if (tcb == nullptr) {
      d.u64(~0ull);
      continue;
    }
    d.bytes(m.memory().view(tcb->region_base, tcb->region_size));
  }
  if (tytan::obs::HeatRecorder* heat = dev.platform->machine().heat(); heat != nullptr) {
    heat->flush();
    const std::string jsonl = heat->profile().to_jsonl(/*include_host_ns=*/false);
    d.bytes({reinterpret_cast<const std::uint8_t*>(jsonl.data()), jsonl.size()});
  }
  return d.h;
}

class Guest final : public Workload {
 public:
  Guest(std::uint64_t seed, bool heat) : seed_(seed), heat_(heat) {}

  void setup(Tracer& tracer) override {
    images_.clear();
    for (int t = 0; t < kTasks; ++t) {
      images_.push_back(tytan::tbf::write(
          assemble_checked(tracer, gen::guest_program(seed_, t))));
    }
    dev_ = Device{};  // never hold two set-ups' devices at once
    dev_ = start(tracer, DispatchMode::kCached, heat_);
    quanta_ = 0;
    checkpoint_.reset();
  }

  Window run(double seconds, Tracer& tracer) override {
    Window w;
    Platform& p = *dev_.platform;
    dev_.epoch_quanta = 0;
    Pacer pacer(seconds, w);
    while (pacer.keep_going(!checkpoint_.has_value())) {
      pacer.exclude(dev_.begin_quantum());
      const Counters before = Counters::read(p);
      {
        auto op = tracer.scope(Span::kOp);
        auto span = tracer.scope(Span::kSimRun);
        p.run_for(kQuantum);
      }
      const Counters after = Counters::read(p);
      if (after.faults != before.faults || p.machine().halted()) {
        ++w.failed;
      }
      ++w.ops;
      w.sim += after - before;
      if (++quanta_ == kCheckQuanta) {
        const std::uint64_t c0 = now_ns();
        checkpoint_ = state_digest(dev_);
        pacer.exclude(now_ns() - c0);
      }
    }
    pacer.finish();
    w.dcache_blocks = p.machine().decode_cache().block_count();
    if (const tytan::obs::HeatRecorder* heat = p.machine().heat(); heat != nullptr) {
      w.heat_blocks = heat->profile().blocks.size();
    }
    for (const tytan::rtos::TaskHandle handle : dev_.tasks) {
      if (p.scheduler().get(handle) == nullptr) {
        ++w.failed;  // a task died
      }
    }
    return w;
  }

  [[nodiscard]] std::uint64_t checkpoint_digest() const override { return checkpoint_.value(); }
  [[nodiscard]] std::uint64_t checkpoint_ops() const override { return kCheckQuanta; }

  [[nodiscard]] std::uint64_t reference_digest() override {
    Tracer off;
    Device ref = start(off, DispatchMode::kInterpreter, heat_);
    for (std::uint64_t q = 0; q < kCheckQuanta; ++q) {
      ref.begin_quantum();
      ref.platform->run_for(kQuantum);
    }
    return state_digest(ref);
  }

  [[nodiscard]] std::optional<double> heat_overhead_pct(double seconds) override {
    if (!heat_) {
      return std::nullopt;
    }
    // Two fresh devices run the same epochs in lockstep, alternating quanta.
    Tracer off;
    Device heat_off = start(off, DispatchMode::kCached, /*heat=*/false);
    Device heat_on = start(off, DispatchMode::kCached, /*heat=*/true);
    Device* sides[2] = {&heat_off, &heat_on};
    std::uint64_t ns[2] = {0, 0};
    std::uint64_t instructions[2] = {0, 0};
    const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
    const std::uint64_t t0 = now_ns();
    while (now_ns() - t0 < budget) {
      for (int s = 0; s < 2; ++s) {
        Device& dev = *sides[s];
        dev.begin_quantum();
        const tytan::sim::Machine& m = dev.platform->machine();
        const std::uint64_t i0 = m.instructions_executed();
        const std::uint64_t start = now_ns();
        dev.platform->run_for(kQuantum);
        ns[s] += now_ns() - start;
        instructions[s] += m.instructions_executed() - i0;
      }
    }
    const double off_cost = static_cast<double>(ns[0]) / static_cast<double>(instructions[0]);
    const double on_cost = static_cast<double>(ns[1]) / static_cast<double>(instructions[1]);
    return 100.0 * (on_cost / off_cost - 1.0);
  }

 private:
  /// Boot, read and load every image, run past every task's start, and save
  /// the epoch-start snapshot.
  Device start(Tracer& tracer, DispatchMode dispatch, bool heat) const {
    Device dev;
    dev.platform = boot_platform(tracer, platform_config(dispatch), heat);
    for (std::size_t i = 0; i < images_.size(); ++i) {
      tytan::Result<tytan::isa::ObjectFile> object = [&] {
        auto span = tracer.scope(Span::kTbfRead);
        return tytan::tbf::read(images_[i]);
      }();
      if (!object.is_ok()) {
        throw BenchError("tbf::read rejected a generated image: " + object.status().to_string());
      }
      tytan::Result<tytan::rtos::TaskHandle> task = [&] {
        auto span = tracer.scope(Span::kCoreLoad);
        return dev.platform->load_task(object.take(), {.name = "task" + std::to_string(i)});
      }();
      if (!task.is_ok()) {
        throw BenchError("load_task rejected generated image " + std::to_string(i) + ": " +
                         task.status().to_string());
      }
      dev.tasks.push_back(*task);
    }
    dev.platform->run_for(kWarmupCycles);
    auto span = tracer.scope(Span::kSnapSave);
    tytan::Result<tytan::snap::Snapshot> snapshot = dev.platform->save();
    if (!snapshot.is_ok()) {
      throw BenchError("snapshot save failed: " + snapshot.status().to_string());
    }
    dev.epoch_start = snapshot.take();
    return dev;
  }

  std::uint64_t seed_;
  bool heat_;
  std::vector<tytan::ByteVec> images_;
  Device dev_;
  std::uint64_t quanta_ = 0;
  std::optional<std::uint64_t> checkpoint_;
};

}  // namespace

std::unique_ptr<Workload> make_guest(std::uint64_t seed, bool heat) {
  return std::make_unique<Guest>(seed, heat);
}

}  // namespace perfbench
