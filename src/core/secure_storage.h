// Secure storage (paper §3, "Secure storage").
//
// "For each task a task key Kt = HMAC(id_t | Kp) is generated which is bound
// to the task identity (id_t) and the platform (Kp). [...] a task that tries
// to access data stored before will only succeed if it has the same id_t as
// the task that stored the data."
//
// Implemented as a trusted service: it reads Kp through the EA-MPU-gated key
// register under its own identity, derives Kt per caller identity, and keeps
// sealed blobs (XTEA-CTR + HMAC-SHA1, encrypt-then-MAC) in a trusted memory
// region.  Guest tasks reach it through the kSysSealStore/kSysSealLoad
// syscalls; hosts (tests, benches) may call the typed API directly.
#pragma once

#include <optional>

#include "core/layout.h"
#include "core/rtm.h"
#include "crypto/seal.h"
#include "rtos/task.h"
#include "sim/machine.h"

namespace tytan::core {

class SecureStorage {
 public:
  static constexpr std::uint32_t kIdent = sim::kFwSecureStorage;

  SecureStorage(sim::Machine& machine, Rtm& rtm) : machine_(machine), rtm_(rtm) {}

  /// Seal `data` under the caller's task key and persist it under `slot`.
  /// Re-storing a slot replaces the previous blob.
  Status store(const rtos::TaskIdentity& caller, std::uint32_t slot,
               std::span<const std::uint8_t> data);

  /// Verify and decrypt the blob at `slot`; fails with kCorrupt if the
  /// caller's identity (and hence Kt) differs from the sealer's.
  Result<ByteVec> load(const rtos::TaskIdentity& caller, std::uint32_t slot);

  /// Syscall backends: copy through guest memory under the *storage* identity
  /// (a static EA-MPU rule lets the service touch task memory; the OS cannot).
  std::uint32_t store_from_guest(const rtos::Tcb& caller, std::uint32_t ptr,
                                 std::uint32_t len, std::uint32_t slot);
  std::uint32_t load_to_guest(const rtos::Tcb& caller, std::uint32_t ptr,
                              std::uint32_t capacity, std::uint32_t slot);

  /// Task key Kt = HMAC(Kp, id_t) (the paper's HMAC(id_t | Kp) binding).
  crypto::Key128 task_key(const rtos::TaskIdentity& identity);

  /// Re-seal every blob owned by `from` under `to`'s task key.  Supports the
  /// paper's future-work runtime task update: after an authorized update the
  /// new binary (new id_t) inherits the old version's sealed state.  This is
  /// a trusted-service operation; authorization policy (e.g. a task-provider
  /// signature over old->new) is the caller's responsibility.  All or
  /// nothing: when a blob cannot be unsealed or re-sealed (arena full), the
  /// index is rolled back to how it was and `from` keeps every blob.
  [[nodiscard]] Result<std::size_t> migrate(const rtos::TaskIdentity& from,
                                            const rtos::TaskIdentity& to);

  /// The blob index and arena fill at one moment, for rollback().
  struct Mark {
    std::uint32_t next_offset = 0;
    std::vector<bool> valid;  ///< per index entry then
  };
  [[nodiscard]] Mark mark() const;
  /// Undo every store and migration since `mark`: drop the blobs added
  /// since, re-validate the ones they superseded, and give their arena space
  /// back.  The old blobs' sealed bytes never moved (the arena is
  /// append-only), so this needs no space and cannot fail.  Seal nonces
  /// stay consumed: a (key, nonce) pair is never used twice.
  void rollback(const Mark& mark);

  [[nodiscard]] std::uint32_t bytes_used() const { return next_offset_; }
  [[nodiscard]] std::size_t blob_count() const;
  /// Seal nonces consumed so far.  A failed store must not advance this —
  /// nonces are a consumable bound to persisted data (pinned by test_fault).
  [[nodiscard]] std::uint64_t nonces_used() const { return nonce_counter_ - 1; }
  /// Blobs marked poisoned after a failed unseal (graceful degradation: the
  /// typed kCorrupt error is returned once, later loads fail fast until a
  /// re-store supersedes the blob).
  [[nodiscard]] std::size_t poisoned_count() const;

  // -- snapshots ----------------------------------------------------------------
  /// Walk the blob index and nonce ledger (snap::Io).  The sealed bytes
  /// themselves live in trusted physical memory and travel with the memory
  /// section.
  Status state(snap::Io& io);

 private:
  struct BlobIndex {
    rtos::TaskIdentity owner{};
    std::uint32_t slot = 0;
    std::uint32_t addr = 0;  ///< serialized blob location in trusted memory
    std::uint32_t len = 0;
    bool valid = false;
    bool poisoned = false;  ///< unseal failed; cleared by a superseding store
  };

  crypto::Key128 read_kp();
  [[nodiscard]] BlobIndex* find(const rtos::TaskIdentity& owner, std::uint32_t slot);

  sim::Machine& machine_;
  Rtm& rtm_;
  std::vector<BlobIndex> blobs_;
  std::uint32_t next_offset_ = 0;
  std::uint64_t nonce_counter_ = 1;
};

}  // namespace tytan::core
