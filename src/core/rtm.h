// Root of Trust for Measurement (paper §3/§4, "RTM task").
//
// The RTM computes the SHA-1 digest of a task's loaded image.  Two paper
// properties drive the design:
//
//   * Position independence: the loader relocated the image, so the RTM
//     *temporarily reverts* every relocation (restoring the original,
//     base-0 addends recorded in the TBF) before hashing, then re-applies
//     them.  The same binary therefore measures to the same id_t at any
//     load address.
//
//   * Interruptibility: measurement is a resumable state machine processing
//     one bounded quantum (one relocation fix-up or one 64-byte hash block)
//     per invocation, so the RTM task can be preempted between quanta and
//     real-time deadlines of other tasks hold while a task is measured
//     (Tables 1 and 7).  The measured task is suspended and its memory is
//     EA-MPU-protected, so the image cannot change mid-measurement.
//
// The RTM also owns the *registry* of task identities and locations — in a
// trusted memory region only the RTM may write ("The EA-MPU ensures that
// only the RTM task can modify id_t").
#pragma once

#include <optional>
#include <vector>

#include "common/status.h"
#include "core/layout.h"
#include "crypto/sha1.h"
#include "isa/object.h"
#include "rtos/task.h"
#include "sim/machine.h"

namespace tytan::core {

/// Host-side view of one registry entry (authoritative bytes live in the
/// EA-MPU-protected registry region).
struct RegistryEntry {
  rtos::TaskHandle handle = rtos::kNoTask;
  rtos::TaskIdentity identity{};
  crypto::Sha1Digest digest{};
  std::uint32_t base = 0;
  std::uint32_t size = 0;
  std::uint32_t entry = 0;
  std::uint32_t mailbox = 0;
  bool secure = false;
  std::uint32_t entry_addr = 0;  ///< address of the wire entry in trusted memory
};

/// One relocation record on the snapshot wire — offset, kind (u8), addend —
/// shared by the RTM's in-flight job (RTMS) and the loader's (LOAD).
void relocation_state(snap::Io& io, isa::Relocation& reloc);

class Rtm {
 public:
  struct MeasureStats {
    std::uint64_t setup = 0;
    std::uint64_t hash = 0;
    std::uint64_t reloc = 0;  ///< revert + re-apply
    std::uint64_t finalize = 0;
    std::uint64_t total = 0;
    std::uint32_t blocks = 0;
    std::uint32_t addresses = 0;
    std::uint32_t quanta = 0;
  };

  explicit Rtm(sim::Machine& machine) : machine_(machine) {}

  static constexpr std::uint32_t kIdent = sim::kFwRtm;

  // -- measurement (resumable) ---------------------------------------------------
  /// Begin measuring a loaded task.  `relocs` are the TBF relocation records
  /// (offsets relative to `tcb.region_base`).  The task must not be running.
  Status begin_measurement(const rtos::Tcb& tcb, std::vector<isa::Relocation> relocs);
  [[nodiscard]] bool measurement_in_progress() const { return job_.has_value(); }
  /// Process one bounded quantum; returns true while work remains.
  bool measure_quantum();
  /// Digest of the completed measurement (consumes the result).
  Result<crypto::Sha1Digest> take_result();

  /// Convenience: run a whole measurement to completion (benches, tests).
  Result<crypto::Sha1Digest> measure_now(const rtos::Tcb& tcb,
                                         std::vector<isa::Relocation> relocs);

  /// First 64 bits of a digest — the task identity (paper footnote 9).
  static rtos::TaskIdentity identity_from_digest(const crypto::Sha1Digest& digest);

  // -- registry ---------------------------------------------------------------------
  Status register_task(const rtos::Tcb& tcb, const crypto::Sha1Digest& digest);
  Status unregister_task(rtos::TaskHandle handle);
  [[nodiscard]] const RegistryEntry* find_by_handle(rtos::TaskHandle handle) const;
  [[nodiscard]] const RegistryEntry* find_by_identity(const rtos::TaskIdentity& id) const;
  /// Task whose region contains `addr` (the Int Mux / IPC proxy sender
  /// lookup).  Returns nullptr for firmware or OS addresses.
  [[nodiscard]] const RegistryEntry* find_by_region(std::uint32_t addr) const;
  [[nodiscard]] const std::vector<RegistryEntry>& entries() const { return entries_; }

  [[nodiscard]] const MeasureStats& last_measure() const { return stats_; }

  // -- snapshots ----------------------------------------------------------------
  /// Walk the registry mirror, the in-flight measurement job (including the
  /// streaming SHA-1 context — a task may be saved mid-measurement), the
  /// pending result, and the last-measure stats (snap::Io).  The job's span
  /// id does not travel (host-side observability; restored as 0).
  Status state(snap::Io& io);

 private:
  struct Job {
    rtos::TaskHandle handle = rtos::kNoTask;
    std::uint32_t base = 0;
    std::uint32_t image_size = 0;
    std::vector<isa::Relocation> relocs;
    crypto::Sha1 sha;
    enum class Phase { kRevert, kHash, kReapply, kDone } phase = Phase::kRevert;
    std::size_t reloc_index = 0;
    std::uint32_t hash_offset = 0;
    std::uint64_t start_cycles = 0;
    obs::SpanRecorder::SpanId span = 0;  ///< rtm-measure span (0 = spans off)
    std::optional<crypto::Sha1Digest> digest;
  };

  void patch_site(const isa::Relocation& reloc, std::uint32_t base, bool revert);
  void serialize_entry(const RegistryEntry& entry);

  sim::Machine& machine_;
  std::optional<Job> job_;
  std::optional<crypto::Sha1Digest> result_;
  MeasureStats stats_;
  std::vector<RegistryEntry> entries_;
};

}  // namespace tytan::core
