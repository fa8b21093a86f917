// Shared pieces of the repository benchmark: the span tracer the traced run
// records around each call into the simulator's public API, the public
// counters every workload reads, and the workload interface main.cc drives.
//
// Spans live only in this directory.  The simulator itself carries no
// benchmark tracing: every span wraps a call made from benchmark code.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/platform.h"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Set-up or a workload check failed; main reports it and exits non-zero.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Incremental FNV-1a 64 over the simulated state a workload checks.
struct Digest {
  std::uint64_t h = 0xcbf2'9ce4'8422'2325ull;
  void bytes(std::span<const std::uint8_t> data) {
    for (const std::uint8_t b : data) {
      h = (h ^ b) * 0x0000'0100'0000'01b3ull;
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x0000'0100'0000'01b3ull;
    }
  }
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Every call the benchmark times.  The layer is the name up to the first
/// dot; kOp and kSetup are roots, and their self time is the time no layer
/// span covers ("unattributed").
enum class Span : std::uint8_t {
  kSetup,
  kOp,
  kSimRun,
  kCoreBoot,
  kCoreLoad,
  kCoreAttest,
  kIsaAssemble,
  kAnalysisAnalyze,
  kTbfRead,
  kSnapSave,
  kSnapRestore,
  kVerifierVerify,
  kFleetBringUp,
  kFleetDeploy,
  kFleetRun,
  kFleetAttestAll,
  kObsAggregate,
  kCount,
};

inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(Span::kCount);

inline constexpr std::array<const char*, kSpanKinds> kSpanNames = {
    "setup",         "op",         "sim.run_for",        "core.boot",
    "core.load_task", "core.attest_task", "isa.assemble", "analysis.analyze",
    "tbf.read",      "snap.save",  "snap.restore",       "verifier.verify",
    "fleet.bring_up", "fleet.deploy", "fleet.run",       "fleet.attest_all",
    "obs.aggregate_metrics",
};

/// Layers that own spans, in report order.
inline constexpr std::array<const char*, 9> kLayers = {
    "sim", "core", "isa", "analysis", "tbf", "snap", "verifier", "fleet", "obs"};

/// In-memory span recorder.  Disabled, a scope is one branch.  Enabled, each
/// span costs two clock reads; its duration is kept per kind (for
/// percentiles) and folded into per-layer self time as it closes.  Up to
/// kMaxStored spans are kept verbatim for the JSONL written at exit.
class Tracer {
 public:
  static constexpr std::size_t kMaxStored = 200'000;

  struct Record {
    Span kind;
    std::uint32_t op;      ///< root id shared by every span of one op/set-up
    std::int32_t parent;   ///< index into the stored records, -1 for roots
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, Span kind) : tracer_(tracer) {
      if (tracer_ != nullptr) {
        tracer_->open(kind);
      }
    }
    ~Scope() {
      if (tracer_ != nullptr) {
        tracer_->close();
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  [[nodiscard]] Scope scope(Span kind) { return Scope(enabled_ ? this : nullptr, kind); }

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Start the measured window: later samples replace set-up samples of the
  /// same kind, and self time counts from here.
  void begin_window() {
    window_ = true;
    layer_self_ns_.fill(0);
    root_self_ns_ = 0;
    root_total_ns_ = 0;
  }

  /// Durations of `kind` in the window, or in set-up when the window had
  /// none (calls only set-up makes, such as boot in guest_exec).
  [[nodiscard]] const std::vector<std::uint64_t>& samples(Span kind) const {
    const auto k = static_cast<std::size_t>(kind);
    return window_samples_[k].empty() ? setup_samples_[k] : window_samples_[k];
  }
  [[nodiscard]] std::uint64_t layer_self_ns(std::size_t layer) const {
    return layer_self_ns_[layer];
  }
  [[nodiscard]] std::uint64_t root_self_ns() const { return root_self_ns_; }
  [[nodiscard]] std::uint64_t root_total_ns() const { return root_total_ns_; }

  /// JSONL: one span per line, {"name","op","parent","start_ns","end_ns"}.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  struct Open {
    Span kind;
    std::int32_t index;  ///< stored record index, -1 when over the cap
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };

  void open(Span kind);
  void close();

  bool enabled_ = false;
  bool window_ = false;
  std::uint32_t next_op_ = 0;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  std::array<std::vector<std::uint64_t>, kSpanKinds> setup_samples_{};
  std::array<std::vector<std::uint64_t>, kSpanKinds> window_samples_{};
  std::array<std::uint64_t, kLayers.size()> layer_self_ns_{};
  std::uint64_t root_self_ns_ = 0;
  std::uint64_t root_total_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Public counters
// ---------------------------------------------------------------------------

/// The simulator's public counters for one platform.  Differences of two
/// reads give a window's work; sums over platforms give a fleet's.
struct Counters {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t interrupts = 0;
  std::uint64_t fw_invocations = 0;
  std::uint64_t faults = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t ticks = 0;
  std::uint64_t dcache_hits = 0;
  std::uint64_t dcache_builds = 0;
  std::uint64_t dcache_invalidations = 0;

  static Counters read(tytan::core::Platform& platform);
  Counters& operator+=(const Counters& o);
  friend Counters operator-(Counters a, const Counters& b);
};

/// What one measured window did.  Fields a workload does not touch stay 0.
struct Window {
  std::uint64_t ops = 0;      ///< quanta, device lifecycles, or fuzz execs
  std::uint64_t failed = 0;
  std::uint64_t wall_ns = 0;  ///< window time, state-digest checkpoints excluded
  Counters sim;
  std::uint64_t tbf_attempts = 0;
  std::uint64_t tbf_accepted = 0;
  std::uint64_t load_attempts = 0;
  std::uint64_t load_accepted = 0;
  std::uint64_t attests_verified = 0;
  std::uint64_t heat_blocks = 0;
  std::uint64_t dcache_blocks = 0;  ///< live decode-cache blocks at the end
  std::vector<std::uint64_t> calib_ns;  ///< calibration kernel times (Pacer)
};

// ---------------------------------------------------------------------------
// Host-speed calibration
// ---------------------------------------------------------------------------

/// A shared host's speed drifts by tens of percent over seconds.  A fixed
/// CPU kernel that never touches the simulator is timed every
/// kCalibrateEveryNs of a window.  Throughputs are
/// the window's totals times the host-speed factor: the 10%-trimmed mean of
/// those kernel times over kCalibrationNominalNs, the kernel's time on a
/// quiet 4-core x86-64 host (the constant only sets the unit).  Many short
/// samples spread over the window see the same host the workload saw.
inline constexpr double kCalibrationNominalNs = 1.9e5;

/// Runs the calibration kernel once; returns its duration in ns.
std::uint64_t calibrate();

/// Drives a measured window: the run loop asks keep_going() before each op.
/// Every kCalibrateEveryNs of window time it runs the calibration kernel,
/// outside the window's time.
class Pacer {
 public:
  static constexpr std::uint64_t kCalibrateEveryNs = 20'000'000;

  Pacer(double seconds, Window& w)
      : w_(w), budget_ns_(static_cast<std::uint64_t>(seconds * 1e9)), start_ns_(now_ns()) {}
  /// True while time is left or `unfinished` (the digest checkpoint is not
  /// reached yet).
  bool keep_going(bool unfinished);
  /// Discount time spent on checks that are not the workload.
  void exclude(std::uint64_t ns) { excluded_ns_ += ns; }
  /// Set the window's wall time.
  void finish() { w_.wall_ns = now_ns() - start_ns_ - excluded_ns_; }

 private:
  Window& w_;
  std::uint64_t budget_ns_;
  std::uint64_t start_ns_;
  std::uint64_t excluded_ns_ = 0;      ///< calibration and checks
  std::uint64_t next_calibration_ns_ = 0;  ///< window time of the next kernel run
};

/// Host time relative to the nominal host, from calibration kernel times:
/// 2 means the host ran at half speed; 1 without samples.
double host_factor(std::vector<std::uint64_t> calib_ns);

/// `work` per ns of the window's wall time, times the window's host factor.
double normalized_rate(const Window& w, std::uint64_t work);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One workload.  main.cc calls setup() several times (each a full set-up,
/// the last one kept), then run() for the measured window(s), then the
/// digest checks.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(Tracer& tracer) = 0;
  /// Run for at least `seconds`, and past the state-digest checkpoint.
  virtual Window run(double seconds, Tracer& tracer) = 0;
  /// State digest taken at the checkpoint during run().
  [[nodiscard]] virtual std::uint64_t checkpoint_digest() const = 0;
  /// The same checkpoint recomputed from scratch with the reference
  /// interpreter (DispatchMode::kInterpreter).
  [[nodiscard]] virtual std::uint64_t reference_digest() = 0;
  /// Ops covered by the checkpoint (counted failed when a digest mismatches).
  [[nodiscard]] virtual std::uint64_t checkpoint_ops() const = 0;
  /// Snapshot size in bytes (fork_fuzz only).
  [[nodiscard]] virtual std::uint64_t snapshot_bytes() const { return 0; }
  /// Heat-on versus heat-off host cost in percent, measured on two fresh
  /// devices by alternating quanta for `seconds` (guest_heat only).
  [[nodiscard]] virtual std::optional<double> heat_overhead_pct(double /*seconds*/) {
    return std::nullopt;
  }
};

std::unique_ptr<Workload> make_guest(std::uint64_t seed, bool heat);
std::unique_ptr<Workload> make_fleet(std::uint64_t seed);
std::unique_ptr<Workload> make_fuzz(std::uint64_t seed);

/// Platform config every workload uses: default cached dispatch, no fault
/// plan, and the strict lint gate so each load runs the full loader path.
tytan::core::Platform::Config platform_config(tytan::sim::DispatchMode dispatch);

/// Construct and boot a platform inside a core.boot span.
std::unique_ptr<tytan::core::Platform> boot_platform(Tracer& tracer,
                                                     const tytan::core::Platform::Config& config,
                                                     bool heat);

/// isa::assemble + analysis::analyze (spanned) of generated source.  Throws
/// BenchError when either rejects it: every generated program must pass the
/// strict lint gate.
tytan::isa::ObjectFile assemble_checked(Tracer& tracer, const std::string& source);

}  // namespace perfbench
