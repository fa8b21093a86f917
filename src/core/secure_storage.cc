#include "core/secure_storage.h"

#include "common/bytes.h"
#include "fault/fault.h"

namespace tytan::core {

crypto::Key128 SecureStorage::read_kp() {
  crypto::Key128 kp{};
  TYTAN_CHECK(machine_.fw_read_block(kIdent, sim::kMmioKeyReg, kp, 4).is_ok(),
              "secure storage denied platform-key access");
  return kp;
}

crypto::Key128 SecureStorage::task_key(const rtos::TaskIdentity& identity) {
  const crypto::Key128 kp = read_kp();
  const crypto::HmacTag tag = crypto::HmacSha1::mac(kp, identity);
  crypto::Key128 kt{};
  std::copy(tag.begin(), tag.begin() + crypto::kKeySize, kt.begin());
  return kt;
}

SecureStorage::BlobIndex* SecureStorage::find(const rtos::TaskIdentity& owner,
                                              std::uint32_t slot) {
  for (BlobIndex& blob : blobs_) {
    if (blob.valid && blob.owner == owner && blob.slot == slot) {
      return &blob;
    }
  }
  return nullptr;
}

std::size_t SecureStorage::blob_count() const {
  std::size_t n = 0;
  for (const BlobIndex& blob : blobs_) {
    n += blob.valid ? 1 : 0;
  }
  return n;
}

Status SecureStorage::store(const rtos::TaskIdentity& caller, std::uint32_t slot,
                            std::span<const std::uint8_t> data) {
  // Reserve space before consuming anything: a store that cannot persist
  // must not burn a seal nonce or bill crypt cycles for work never done.
  // Wire size: nonce (8) | ciphertext (n) | tag (20).
  const std::size_t raw_size = 8 + data.size() + crypto::kSha1DigestSize;
  if (next_offset_ + raw_size + 8 > kStorageSize) {
    return make_error(Err::kOutOfMemory, "secure storage area full");
  }
  const crypto::Key128 kt = task_key(caller);
  const crypto::SealedBlob sealed = crypto::seal(kt, nonce_counter_++, data);
  const ByteVec raw = sealed.serialize();
  machine_.charge(machine_.costs().storage_crypt_block *
                  ((data.size() + crypto::kXteaBlockSize - 1) / crypto::kXteaBlockSize + 3));

  const std::uint32_t addr = kStorageBase + next_offset_;
  // Wire format: u32 length, blob bytes.
  if (Status s = machine_.fw_write32(kIdent, addr, static_cast<std::uint32_t>(raw.size()));
      !s.is_ok()) {
    return s;
  }
  if (Status s = machine_.fw_write_block(kIdent, addr + 4, raw, 1); !s.is_ok()) {
    return s;
  }
  next_offset_ += static_cast<std::uint32_t>(4 + raw.size());

  if (BlobIndex* existing = find(caller, slot); existing != nullptr) {
    existing->valid = false;  // superseded; area is append-only (flash-like)
    if (existing->poisoned) {
      // Re-storing over a poisoned blob is the storage recovery path.
      machine_.obs().emit(obs::EventKind::kFaultRecover, -1,
                          static_cast<std::uint32_t>(fault::RecoveryKind::kPoisonMarked));
      if (fault::FaultEngine* engine = machine_.faults(); engine != nullptr) {
        engine->note_recovery(fault::FaultClass::kStorageCorrupt);
      }
      TYTAN_CLOG(machine_.log(), LogLevel::kInfo, "storage")
          << "slot " << slot << ": poisoned blob superseded by fresh store";
    }
  }
  blobs_.push_back(
      {caller, slot, addr, static_cast<std::uint32_t>(raw.size()), true, false});
  machine_.obs().emit(obs::EventKind::kSealStore, -1,
                      static_cast<std::uint32_t>(data.size()));
  return Status::ok();
}

Result<ByteVec> SecureStorage::load(const rtos::TaskIdentity& caller, std::uint32_t slot) {
  BlobIndex* blob = find(caller, slot);
  if (blob == nullptr) {
    return make_error(Err::kNotFound, "no sealed blob for this identity/slot");
  }
  if (blob->poisoned) {
    // Fail fast without re-running the unseal: the blob stays readable as an
    // error until a fresh store supersedes it.
    return make_error(Err::kCorrupt, "sealed blob is poisoned (previous unseal failed)");
  }
  if (fault::FaultEngine* engine = machine_.faults(); engine != nullptr) {
    const std::int64_t bit =
        engine->on_storage_access(slot, machine_.cycles(), blob->len);
    if (bit >= 0) {
      // Flip one persisted bit — the damage is durable, like real flash rot.
      const std::uint32_t addr =
          blob->addr + 4 + static_cast<std::uint32_t>(bit / 8);
      auto byte = machine_.fw_read8(kIdent, addr);
      if (!byte.is_ok()) {
        return byte.status();
      }
      if (Status s = machine_.fw_write8(kIdent, addr,
                                        *byte ^ static_cast<std::uint8_t>(1U << (bit % 8)));
          !s.is_ok()) {
        return s;
      }
      machine_.obs().emit(obs::EventKind::kFaultInject, -1,
                          static_cast<std::uint32_t>(fault::FaultClass::kStorageCorrupt),
                          static_cast<std::uint32_t>(bit));
      TYTAN_CLOG(machine_.log(), LogLevel::kWarn, "storage")
          << "fault injection: flipped bit " << bit << " of slot " << slot;
    }
  }
  ByteVec raw(blob->len);
  if (Status s = machine_.fw_read_block(kIdent, blob->addr + 4, raw, 1); !s.is_ok()) {
    return s;
  }
  auto sealed = crypto::SealedBlob::deserialize(raw);
  if (!sealed.is_ok()) {
    blob->poisoned = true;
    return sealed.status();
  }
  machine_.charge(machine_.costs().storage_crypt_block *
                  (raw.size() / crypto::kXteaBlockSize + 3));
  machine_.obs().emit(obs::EventKind::kSealUnseal, -1,
                      static_cast<std::uint32_t>(raw.size()));
  const crypto::Key128 kt = task_key(caller);
  auto plain = crypto::unseal(kt, *sealed);
  if (!plain.is_ok() && plain.status().code() == Err::kCorrupt) {
    blob->poisoned = true;
    TYTAN_CLOG(machine_.log(), LogLevel::kWarn, "storage")
        << "slot " << slot << ": unseal failed, blob marked poisoned";
  }
  return plain;
}

std::size_t SecureStorage::poisoned_count() const {
  std::size_t n = 0;
  for (const BlobIndex& blob : blobs_) {
    n += (blob.valid && blob.poisoned) ? 1 : 0;
  }
  return n;
}

Result<std::size_t> SecureStorage::migrate(const rtos::TaskIdentity& from,
                                           const rtos::TaskIdentity& to) {
  if (from == to) {
    return make_error(Err::kInvalidArgument, "migrate: identical identities");
  }
  const Mark before = mark();
  // Collect first: store() mutates the index.
  std::vector<std::uint32_t> slots;
  for (const BlobIndex& blob : blobs_) {
    if (blob.valid && blob.owner == from) {
      slots.push_back(blob.slot);
    }
  }
  for (const std::uint32_t slot : slots) {
    auto data = load(from, slot);
    Status s = data.is_ok() ? store(to, slot, *data) : data.status();
    if (!s.is_ok()) {
      rollback(before);
      return s;
    }
    find(from, slot)->valid = false;
  }
  return slots.size();
}

SecureStorage::Mark SecureStorage::mark() const {
  Mark mark{next_offset_, {}};
  for (const BlobIndex& blob : blobs_) {
    mark.valid.push_back(blob.valid);
  }
  return mark;
}

void SecureStorage::rollback(const Mark& mark) {
  blobs_.resize(mark.valid.size());
  for (std::size_t i = 0; i < blobs_.size(); ++i) {
    blobs_[i].valid = mark.valid[i];
  }
  next_offset_ = mark.next_offset;
}

std::uint32_t SecureStorage::store_from_guest(const rtos::Tcb& caller, std::uint32_t ptr,
                                              std::uint32_t len, std::uint32_t slot) {
  if (!caller.measured || len > 4096) {
    return kSysErr;
  }
  ByteVec data(len);
  if (!machine_.fw_read_block(kIdent, ptr, data, 1).is_ok()) {
    return kSysErr;
  }
  return store(caller.identity, slot, data).is_ok() ? kSysOk : kSysErr;
}

std::uint32_t SecureStorage::load_to_guest(const rtos::Tcb& caller, std::uint32_t ptr,
                                           std::uint32_t capacity, std::uint32_t slot) {
  if (!caller.measured) {
    return kSysErr;
  }
  auto data = load(caller.identity, slot);
  if (!data.is_ok() || data->size() > capacity) {
    return kSysErr;
  }
  if (!machine_.fw_write_block(kIdent, ptr, *data, 1).is_ok()) {
    return kSysErr;
  }
  return static_cast<std::uint32_t>(data->size());
}

Status SecureStorage::state(snap::Io& io) {
  io.sequence(blobs_, [&io](BlobIndex& blob) {
    io.raw(blob.owner);
    io.u32(blob.slot);
    io.u32(blob.addr);
    io.u32(blob.len);
    io.boolean(blob.valid);
    io.boolean(blob.poisoned);
  });
  io.u32(next_offset_);
  io.u64(nonce_counter_);
  return Status::ok();
}

}  // namespace tytan::core
