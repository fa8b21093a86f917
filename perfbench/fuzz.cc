// fork_fuzz: restore a pristine post-boot snapshot, then tbf::read a
// seed-mutated image, load_task it under the strict lint gate and, when it
// is accepted, run a short budget.  The seed corpus is the guest_exec images.
// The mutator is tytan-fuzz's; the budget is bench_snapshot's, the
// repository's restore-per-input fuzz bench.
#include <cstdio>

#include "bench.h"
#include "gen.h"
#include "tbf/tbf.h"

namespace perfbench {

namespace {

using tytan::core::Platform;
using tytan::sim::DispatchMode;

constexpr int kCorpus = 32;  // with 8, execs/s spread ~9% across seeds
// tytan-fuzz's default of 200k cycles lets a mutant that runs into zeroed
// memory fill the decode cache with ~1.6k blocks in one exec, so peak memory
// would depend on whether a seed's corpus yields such a mutant.
constexpr std::uint64_t kBudgetCycles = 5'000;
constexpr std::uint64_t kCheckExecs = 400;

/// xorshift64, seeded as tytan-fuzz seeds it from --seed.
struct XorShift {
  std::uint64_t state;
  explicit XorShift(std::uint64_t seed) : state(seed ^ 0x9e37'79b9'7f4a'7c15ull) {}
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

/// Outcome counts; their digest is the workload's output check.
struct Tally {
  std::uint64_t parse_reject = 0;
  std::uint64_t lint_reject = 0;
  std::uint64_t load_reject = 0;  ///< rejected by the loader after lint
  std::uint64_t loaded = 0;
  std::uint64_t faulted = 0;      ///< loaded, then faulted within the budget

  [[nodiscard]] std::uint64_t digest() const {
    Digest d;
    d.u64(parse_reject);
    d.u64(lint_reject);
    d.u64(load_reject);
    d.u64(loaded);
    d.u64(faulted);
    return d.h;
  }
};

class ForkFuzz final : public Workload {
 public:
  explicit ForkFuzz(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer& tracer) override {
    corpus_.clear();
    for (int i = 0; i < kCorpus; ++i) {
      corpus_.push_back(tytan::tbf::write(assemble_checked(tracer, gen::guest_program(seed_, i))));
    }
    // Free the previous set-up's device first, so repeated set-ups never
    // hold two at once and peak memory is one set-up's.
    pristine_ = {};
    platform_.reset();
    platform_ = boot_platform(tracer, platform_config(DispatchMode::kCached), false);
    pristine_ = save(tracer, *platform_);
    restore(tracer, *platform_, pristine_);  // the first restore is a full one
    execs_ = 0;
    rng_ = XorShift(seed_);
    tally_ = Tally{};
    checkpoint_.reset();
  }

  Window run(double seconds, Tracer& tracer) override {
    Window w;
    const Counters start = Counters::read(*platform_);
    Pacer pacer(seconds, w);
    while (pacer.keep_going(!checkpoint_.has_value())) {
      {
        auto op = tracer.scope(Span::kOp);
        exec(tracer, *platform_, pristine_, rng_, tally_, w);
      }
      if (++execs_ == kCheckExecs) {
        checkpoint_ = tally_.digest();
        std::fprintf(stderr,
                     "perfbench: fork_fuzz first %llu execs: %llu parse-reject, %llu lint-reject, "
                     "%llu load-reject, %llu loaded, %llu faulted\n",
                     static_cast<unsigned long long>(kCheckExecs),
                     static_cast<unsigned long long>(tally_.parse_reject),
                     static_cast<unsigned long long>(tally_.lint_reject),
                     static_cast<unsigned long long>(tally_.load_reject),
                     static_cast<unsigned long long>(tally_.loaded),
                     static_cast<unsigned long long>(tally_.faulted));
      }
    }
    pacer.finish();
    // Restores rewind the machine counters, so exec() sums those per exec;
    // the decode cache is host state that restores do not rewind.
    const Counters end = Counters::read(*platform_);
    w.sim.dcache_hits = end.dcache_hits - start.dcache_hits;
    w.sim.dcache_builds = end.dcache_builds - start.dcache_builds;
    w.sim.dcache_invalidations = end.dcache_invalidations - start.dcache_invalidations;
    w.dcache_blocks = platform_->machine().decode_cache().block_count();
    return w;
  }

  [[nodiscard]] std::uint64_t checkpoint_digest() const override { return checkpoint_.value(); }
  [[nodiscard]] std::uint64_t checkpoint_ops() const override { return kCheckExecs; }
  [[nodiscard]] std::uint64_t snapshot_bytes() const override {
    return pristine_.serialize().size();
  }

  [[nodiscard]] std::uint64_t reference_digest() override {
    Tracer off;
    auto platform = boot_platform(off, platform_config(DispatchMode::kInterpreter), false);
    const tytan::snap::Snapshot pristine = save(off, *platform);
    XorShift rng(seed_);
    Tally tally;
    Window w;
    for (std::uint64_t e = 0; e < kCheckExecs; ++e) {
      exec(off, *platform, pristine, rng, tally, w);
    }
    return tally.digest();
  }

 private:
  static tytan::snap::Snapshot save(Tracer& tracer, const Platform& platform) {
    auto span = tracer.scope(Span::kSnapSave);
    tytan::Result<tytan::snap::Snapshot> snapshot = platform.save();
    if (!snapshot.is_ok()) {
      throw BenchError("snapshot save failed: " + snapshot.status().to_string());
    }
    return snapshot.take();
  }

  static tytan::Status restore(Tracer& tracer, Platform& platform,
                               const tytan::snap::Snapshot& snapshot) {
    auto span = tracer.scope(Span::kSnapRestore);
    return platform.restore(snapshot);
  }

  /// The next input, mutated as tytan-fuzz mutates: a corpus image, then 1-8
  /// edits from one xorshift64 stream, each a truncation (1/8), an appended
  /// byte (1/8) or a byte overwrite anywhere (6/8).
  [[nodiscard]] tytan::ByteVec mutate(XorShift& rng) const {
    tytan::ByteVec input = corpus_[rng.next() % corpus_.size()];
    const std::uint64_t mutations = 1 + rng.next() % 8;
    for (std::uint64_t m = 0; m < mutations; ++m) {
      switch (rng.next() % 8) {
        case 0:
          if (input.size() > 8) {
            input.resize(8 + rng.next() % (input.size() - 8));
          }
          break;
        case 1:
          input.push_back(static_cast<std::uint8_t>(rng.next()));
          break;
        default:
          input[rng.next() % input.size()] = static_cast<std::uint8_t>(rng.next());
          break;
      }
    }
    return input;
  }

  void exec(Tracer& tracer, Platform& platform, const tytan::snap::Snapshot& pristine,
            XorShift& rng, Tally& tally, Window& w) const {
    ++w.ops;
    const tytan::ByteVec input = mutate(rng);
    try {
      if (!restore(tracer, platform, pristine).is_ok()) {
        ++w.failed;
        return;
      }
      const Counters before = Counters::read(platform);
      ++w.tbf_attempts;
      tytan::Result<tytan::isa::ObjectFile> object = [&] {
        auto span = tracer.scope(Span::kTbfRead);
        return tytan::tbf::read(input);
      }();
      if (!object.is_ok()) {
        ++tally.parse_reject;
      } else {
        ++w.tbf_accepted;
        ++w.load_attempts;
        tytan::Result<tytan::rtos::TaskHandle> task = [&] {
          auto span = tracer.scope(Span::kCoreLoad);
          return platform.load_task(object.take(), {.name = "fuzz"});
        }();
        if (!task.is_ok()) {
          const bool lint = task.status().to_string().find("static verifier") != std::string::npos;
          ++(lint ? tally.lint_reject : tally.load_reject);
        } else {
          ++w.load_accepted;
          ++tally.loaded;
          {
            auto span = tracer.scope(Span::kSimRun);
            platform.run_for(kBudgetCycles);
          }
          if (platform.machine().fault_count() != before.faults) {
            ++tally.faulted;
          }
        }
      }
      // The trusted state must survive any input.
      if (platform.machine().halted() || !platform.mpu().port_locked()) {
        ++w.failed;
      }
      w.sim += Counters::read(platform) - before;
    } catch (const std::exception&) {
      ++w.failed;
    }
  }

  std::uint64_t seed_;
  std::vector<tytan::ByteVec> corpus_;
  std::unique_ptr<Platform> platform_;
  tytan::snap::Snapshot pristine_;
  std::uint64_t execs_ = 0;
  XorShift rng_{0};
  Tally tally_;
  std::optional<std::uint64_t> checkpoint_;
};

}  // namespace

std::unique_ptr<Workload> make_fuzz(std::uint64_t seed) {
  return std::make_unique<ForkFuzz>(seed);
}

}  // namespace perfbench
