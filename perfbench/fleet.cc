// fleet_attest: repeated fleet cohorts, each a full device lifecycle
// bring_up -> deploy -> {run, attest_all} x sweeps -> aggregate_metrics of a
// generated, duty-cycled release.  Cohorts are torn down after each round,
// which bounds memory.
#include <algorithm>

#include "bench.h"
#include "fleet/fleet.h"
#include "gen.h"

namespace perfbench {

namespace {

using tytan::sim::DispatchMode;

constexpr std::size_t kDevices = 8;
constexpr int kSweeps = 2;
constexpr std::uint64_t kSweepCycles = 1'000'000;  // about 21 RTOS ticks
constexpr int kReleasePool = 16;  // with 8, devices/s spread ~9% across seeds
constexpr std::uint64_t kCheckCohorts = 3;
constexpr const char* kRelease = "release";

// One worker: every phase still goes through the pool's hand-off and
// barrier, while timings and peak memory stay free of scheduling noise.
constexpr std::size_t kWorkerThreads = 1;

struct Cohort {
  Counters sim;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t verified = 0;      ///< verified reports over every sweep
  std::size_t min_verified = 0;    ///< worst sweep
  bool deployed = false;
};

class FleetAttest final : public Workload {
 public:
  explicit FleetAttest(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer& tracer) override {
    releases_.clear();
    std::vector<tytan::isa::ObjectFile> objects;
    for (int r = 0; r < kReleasePool; ++r) {
      releases_.push_back(gen::release_program(seed_, r));
      objects.push_back(assemble_checked(tracer, releases_.back()));
    }
    warm_up(tracer, objects.front());
    cohorts_ = 0;
    digest_ = Digest{};
    checkpoint_.reset();
  }

  Window run(double seconds, Tracer& tracer) override {
    Window w;
    Pacer pacer(seconds, w);
    while (pacer.keep_going(!checkpoint_.has_value())) {
      Cohort c;
      {
        auto op = tracer.scope(Span::kOp);
        c = run_cohort(tracer, releases_[cohorts_ % releases_.size()], DispatchMode::kCached);
      }
      w.ops += kDevices;
      w.failed += kDevices - c.min_verified;
      w.sim += c.sim;
      w.attests_verified += c.verified;
      w.load_attempts += kDevices;
      w.load_accepted += c.deployed ? kDevices : 0;
      if (++cohorts_ <= kCheckCohorts) {
        fold(digest_, c);
        if (cohorts_ == kCheckCohorts) {
          checkpoint_ = digest_.h;
        }
      }
    }
    pacer.finish();
    return w;
  }

  [[nodiscard]] std::uint64_t checkpoint_digest() const override { return checkpoint_.value(); }
  [[nodiscard]] std::uint64_t checkpoint_ops() const override { return kCheckCohorts * kDevices; }

  [[nodiscard]] std::uint64_t reference_digest() override {
    Tracer off;
    Digest d;
    for (std::uint64_t i = 0; i < kCheckCohorts; ++i) {
      fold(d, run_cohort(off, releases_[i % releases_.size()], DispatchMode::kInterpreter));
    }
    return d.h;
  }

 private:
  /// Per-cohort cycle and instruction totals plus the verified count.
  static void fold(Digest& d, const Cohort& c) {
    d.u64(c.cycles);
    d.u64(c.instructions);
    d.u64(c.verified);
  }

  Cohort run_cohort(Tracer& tracer, const std::string& source, DispatchMode dispatch) const {
    // The release gate an operator runs before a rollout.
    assemble_checked(tracer, source);
    tytan::fleet::FleetConfig config;
    config.device_count = kDevices;
    config.threads = kWorkerThreads;
    config.manufacturer_seed = seed_;
    config.base = platform_config(dispatch);
    tytan::fleet::Fleet fleet(config);
    Cohort c;
    {
      auto span = tracer.scope(Span::kFleetBringUp);
      if (!fleet.bring_up().is_ok()) {
        return c;
      }
    }
    // FleetConfig::base does not carry the dispatch mode to the devices.
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      fleet.device(i).platform().machine().set_dispatch_mode(dispatch);
    }
    {
      auto span = tracer.scope(Span::kFleetDeploy);
      c.deployed = fleet.deploy(source, kRelease, 1).is_ok();
    }
    c.min_verified = c.deployed ? kDevices : 0;
    for (int s = 0; c.deployed && s < kSweeps; ++s) {
      {
        auto span = tracer.scope(Span::kFleetRun);
        fleet.run(kSweepCycles);
      }
      std::size_t verified = 0;
      {
        auto span = tracer.scope(Span::kFleetAttestAll);
        verified = fleet.attest_all(kRelease);
      }
      c.verified += verified;
      c.min_verified = std::min(c.min_verified, verified);
    }
    {
      auto span = tracer.scope(Span::kObsAggregate);
      fleet.aggregate_metrics();
    }
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      c.sim += Counters::read(fleet.device(i).platform());
    }
    const tytan::fleet::Fleet::Totals totals = fleet.totals();
    c.cycles = totals.cycles;
    c.instructions = totals.instructions;
    return c;
  }

  /// One device's lifecycle outside the fleet runner: boot, load the first
  /// release under its golden identity, run one sweep, attest and verify.
  void warm_up(Tracer& tracer, const tytan::isa::ObjectFile& object) const {
    tytan::verifier::Manufacturer maker(seed_);
    const tytan::verifier::DeviceId id = maker.provision_device();
    tytan::core::Platform::Config config = platform_config(DispatchMode::kCached);
    config.kp = maker.device_kp(id).value();
    tytan::verifier::GoldenDatabase golden;
    const tytan::verifier::Release& release = golden.add_release(kRelease, 1, object);
    auto platform = boot_platform(tracer, config, /*heat=*/false);
    tytan::core::LoadParams params{.name = kRelease};
    params.expected_identity = release.identity;
    tytan::Result<tytan::rtos::TaskHandle> task = [&] {
      auto span = tracer.scope(Span::kCoreLoad);
      return platform->load_task(tytan::isa::ObjectFile(object), params);
    }();
    if (!task.is_ok()) {
      throw BenchError("release load failed: " + task.status().to_string());
    }
    platform->run_for(kSweepCycles);
    tytan::verifier::Challenger challenger(maker.attestation_key(id).value(), golden, seed_);
    const std::uint64_t nonce = challenger.issue_challenge();
    tytan::Result<tytan::core::AttestationReport> report = [&] {
      auto span = tracer.scope(Span::kCoreAttest);
      return platform->remote_attest().attest_task(*task, nonce);
    }();
    if (!report.is_ok()) {
      throw BenchError("attestation failed: " + report.status().to_string());
    }
    const tytan::verifier::VerifyOutcome outcome = [&] {
      auto span = tracer.scope(Span::kVerifierVerify);
      return challenger.verify(*report, kRelease);
    }();
    if (!outcome.ok()) {
      throw BenchError(std::string("warm-up attestation did not verify: ") +
                       tytan::verifier::verify_outcome_name(outcome.code));
    }
  }

  std::uint64_t seed_;
  std::vector<std::string> releases_;
  std::uint64_t cohorts_ = 0;
  Digest digest_;
  std::optional<std::uint64_t> checkpoint_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet(std::uint64_t seed) {
  return std::make_unique<FleetAttest>(seed);
}

}  // namespace perfbench
