// Dynamic task loading (paper §4, "Dynamic task handling" / "Loading tasks").
//
// A new task t is loaded in the paper's six steps:
//   (1) the OS allocates memory for t;
//   (2) loads t into memory performing relocation;
//   (3) prepares the stack;
//   (4) the EA-MPU is configured to protect the memory of t;
//   (5) t is measured (secure tasks);
//   (6) the OS is notified to schedule t.
//
// Loading is implemented as a *resumable job* processed in bounded quanta by
// a low-priority loader task, so a long load (27.8 ms in the paper's use
// case) never blocks higher-priority real-time tasks — the property Table 1
// demonstrates.  load_now() runs the same state machine to completion for
// tests and benches.
#pragma once

#include <optional>

#include "analysis/analyzer.h"
#include "core/eampu_driver.h"
#include "core/int_mux.h"
#include "core/rtm.h"
#include "isa/object.h"
#include "rtos/scheduler.h"

namespace tytan::core {

class IpcProxy;

/// How the loader treats static-verifier findings (step 0, before any
/// memory is touched).  The verifier runs host-side and charges no
/// simulated cycles, so kWarn/kStrict do not perturb the cost model.
enum class LintMode {
  kOff,     ///< skip the verifier entirely
  kWarn,    ///< log findings, load anyway (default)
  kStrict,  ///< reject the image if any error-severity finding exists
};

struct LoadParams {
  std::string name;
  unsigned priority = 1;
  /// Make the task ready immediately after loading (step 6).  When false the
  /// task stays suspended (paper: tasks are "loadable, unloadable, and
  /// suspendable at runtime").
  bool auto_start = true;
  /// Invoked once when the load completes (step 6 done).  Used by the
  /// runtime-update manager to swap versions the moment the replacement is
  /// measured and ready.
  std::function<void(rtos::TaskHandle)> on_loaded;
  /// Golden identity the measured image must match (secure tasks only).  A
  /// mismatch — e.g. a bit flipped in transit — rejects the load with
  /// kCorrupt and records a QuarantineRecord instead of registering the
  /// task; the platform keeps running.
  std::optional<rtos::TaskIdentity> expected_identity;
};

/// Simple first-fit allocator over the task RAM arena.
class RamArena {
 public:
  RamArena(std::uint32_t base, std::uint32_t size);

  Result<std::uint32_t> alloc(std::uint32_t size, std::uint32_t align = 64);
  Status free(std::uint32_t base);
  [[nodiscard]] std::uint32_t free_bytes() const;
  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }

  Status state(snap::Io& io);

 private:
  struct Block {
    std::uint32_t base;
    std::uint32_t size;
    bool used;
  };
  std::vector<Block> blocks_;
};

class TaskLoader {
 public:
  /// Cycle breakdown of the last completed load (bench for Tables 4/5).
  struct CreateStats {
    std::uint64_t alloc = 0;
    std::uint64_t copy = 0;
    std::uint64_t reloc = 0;
    std::uint64_t stack = 0;
    std::uint64_t eampu = 0;
    std::uint64_t rtm = 0;
    std::uint64_t total = 0;
    std::uint32_t relocations = 0;
    std::uint32_t image_bytes = 0;
    bool secure = false;
    std::uint32_t lint_findings = 0;  ///< verifier findings on the last load
  };

  static constexpr std::uint32_t kIdent = sim::kFwOsKernel;  // loading is OS work

  TaskLoader(sim::Machine& machine, rtos::Scheduler& scheduler, EaMpuDriver& driver,
             Rtm& rtm, IntMux& int_mux);

  // -- resumable job API -----------------------------------------------------
  /// Create the TCB and queue the load job.  The returned handle is valid
  /// immediately but the task stays suspended until the job finishes.
  Result<rtos::TaskHandle> begin_load(isa::ObjectFile object, LoadParams params);
  [[nodiscard]] bool load_in_progress() const { return job_.has_value(); }
  /// Process one bounded quantum; returns true while work remains.
  bool load_quantum();
  /// Handle of the most recently completed load.
  [[nodiscard]] rtos::TaskHandle last_loaded() const { return last_loaded_; }

  // -- synchronous convenience -------------------------------------------------
  Result<rtos::TaskHandle> load_now(isa::ObjectFile object, LoadParams params);

  /// Unload: remove from the scheduler, clear EA-MPU state, wipe and free the
  /// task's memory, drop registry and shadow entries.
  Status unload(rtos::TaskHandle handle);

  [[nodiscard]] const CreateStats& last_create() const { return stats_; }
  [[nodiscard]] RamArena& arena() { return arena_; }
  /// The IPC proxy whose shared-memory grants unload() releases.
  void set_ipc_proxy(IpcProxy* proxy) { ipc_proxy_ = proxy; }

  /// Configure the pre-load static verifier gate.
  void set_lint(LintMode mode, analysis::Config config = {}) {
    lint_mode_ = mode;
    lint_config_ = std::move(config);
  }
  [[nodiscard]] LintMode lint_mode() const { return lint_mode_; }
  /// Verifier report from the most recent begin_load (empty when kOff).
  [[nodiscard]] const analysis::Report& last_lint() const { return lint_report_; }

  /// Binaries rejected because their measured identity missed the golden
  /// expectation.  Quarantine keeps the evidence (name + measured identity)
  /// without ever scheduling the task.
  struct QuarantineRecord {
    std::string name;
    rtos::TaskIdentity measured{};
    std::uint64_t cycle = 0;
  };
  [[nodiscard]] const std::vector<QuarantineRecord>& quarantine() const {
    return quarantine_;
  }

  // -- snapshots ----------------------------------------------------------------
  /// True when an in-flight job carries an on_loaded callback — a closure
  /// that cannot travel through a snapshot; Platform::save refuses then.
  [[nodiscard]] bool job_has_callback() const {
    return job_.has_value() && static_cast<bool>(job_->params.on_loaded);
  }

  /// Walk the arena, the in-flight job (if any), the last load stats, and
  /// the quarantine ledger (snap::Io).  The host-side lint report is
  /// diagnostics, not guest state, and does not travel.
  Status state(snap::Io& io);

 private:
  enum class Phase { kVerify, kAlloc, kCopy, kReloc, kStackPrep, kMpu, kMeasure, kRegister, kDone };

  struct Job {
    isa::ObjectFile object;
    LoadParams params;
    rtos::TaskHandle handle = rtos::kNoTask;
    Phase phase = Phase::kVerify;
    std::uint32_t base = 0;
    std::uint32_t total_size = 0;
    std::uint32_t copy_offset = 0;
    std::size_t reloc_index = 0;
    std::uint64_t start_cycles = 0;
    bool failed = false;
    Status failure;
  };

  void fail_job(Status status);
  bool quantum_verify();
  bool quantum_alloc();
  bool quantum_copy();
  bool quantum_reloc();
  bool quantum_stack_prep();
  bool quantum_mpu();
  bool quantum_measure();
  bool quantum_register();

  sim::Machine& machine_;
  rtos::Scheduler& scheduler_;
  EaMpuDriver& driver_;
  Rtm& rtm_;
  IntMux& int_mux_;
  IpcProxy* ipc_proxy_ = nullptr;
  RamArena arena_;
  std::optional<Job> job_;
  rtos::TaskHandle last_loaded_ = rtos::kNoTask;
  CreateStats stats_;
  LintMode lint_mode_ = LintMode::kWarn;
  analysis::Config lint_config_;
  analysis::Report lint_report_;
  std::vector<QuarantineRecord> quarantine_;
};

}  // namespace tytan::core
