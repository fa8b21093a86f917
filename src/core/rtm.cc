#include "core/rtm.h"

#include "common/bytes.h"
#include "common/log.h"
#include "tbf/tbf.h"

namespace tytan::core {

using rtos::TaskHandle;
using rtos::TaskIdentity;

rtos::TaskIdentity Rtm::identity_from_digest(const crypto::Sha1Digest& digest) {
  TaskIdentity id{};
  std::copy(digest.begin(), digest.begin() + 8, id.begin());
  return id;
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

Status Rtm::begin_measurement(const rtos::Tcb& tcb, std::vector<isa::Relocation> relocs) {
  if (job_.has_value()) {
    return make_error(Err::kUnavailable, "RTM: measurement already in progress");
  }
  if (tcb.image_size == 0) {
    return make_error(Err::kInvalidArgument, "RTM: task has no image");
  }
  for (const isa::Relocation& reloc : relocs) {
    if (reloc.offset + 4 > tcb.image_size) {
      return make_error(Err::kInvalidArgument, "RTM: relocation outside image");
    }
  }
  Job job;
  job.handle = tcb.handle;
  job.base = tcb.region_base;
  job.image_size = tcb.image_size;
  job.relocs = std::move(relocs);
  job.start_cycles = machine_.cycles();
  stats_ = MeasureStats{};
  stats_.addresses = static_cast<std::uint32_t>(job.relocs.size());
  machine_.charge(machine_.costs().rtm_setup);
  stats_.setup = machine_.costs().rtm_setup;
  // Walking the relocation table costs a fixed floor even with zero entries
  // (Table 7's "# of addresses = 0 -> 114 cycles" row).
  machine_.charge(machine_.costs().rtm_reloc_walk);
  stats_.reloc = machine_.costs().rtm_reloc_walk;
  job_ = std::move(job);
  result_.reset();
  // The measurement spans many scheduler quanta; it closes at Phase::kDone.
  job_->span = machine_.obs().spans().begin(obs::SpanPhase::kRtmMeasure, tcb.handle);
  machine_.obs().emit(obs::EventKind::kRtmBegin, tcb.handle, tcb.image_size);
  return Status::ok();
}

void Rtm::patch_site(const isa::Relocation& reloc, std::uint32_t base, bool revert) {
  const std::uint32_t addr = job_->base + reloc.offset;
  auto word = machine_.fw_read32(kIdent, addr);
  TYTAN_CHECK(word.is_ok(), "RTM denied read of task image: " + word.status().to_string());
  std::uint8_t bytes[4];
  store_le32(bytes, *word);
  const isa::Relocation local{.offset = 0, .kind = reloc.kind, .addend = reloc.addend};
  tbf::apply_relocation(local, bytes, revert ? 0 : base);
  const Status s = machine_.fw_write32(kIdent, addr, load_le32(bytes));
  TYTAN_CHECK(s.is_ok(), "RTM denied write of task image: " + s.to_string());
}

bool Rtm::measure_quantum() {
  if (!job_.has_value()) {
    return false;
  }
  Job& job = *job_;
  const sim::CostModel& costs = machine_.costs();
  ++stats_.quanta;

  switch (job.phase) {
    case Job::Phase::kRevert: {
      if (job.reloc_index < job.relocs.size()) {
        machine_.charge(costs.rtm_per_addr / 2);
        stats_.reloc += costs.rtm_per_addr / 2;
        patch_site(job.relocs[job.reloc_index], job.base, /*revert=*/true);
        ++job.reloc_index;
        return true;
      }
      job.phase = Job::Phase::kHash;
      job.reloc_index = 0;
      return true;
    }
    case Job::Phase::kHash: {
      if (job.hash_offset < job.image_size) {
        const std::uint32_t take =
            std::min<std::uint32_t>(crypto::kSha1BlockSize, job.image_size - job.hash_offset);
        std::uint8_t block[crypto::kSha1BlockSize];
        const std::span<std::uint8_t> bytes(block, take);
        TYTAN_CHECK(machine_.fw_read_block(kIdent, job.base + job.hash_offset, bytes).is_ok(),
                    "RTM denied image read");
        job.sha.update(bytes);
        machine_.charge(costs.rtm_hash_block);
        stats_.hash += costs.rtm_hash_block;
        ++stats_.blocks;
        machine_.obs().emit(obs::EventKind::kRtmHashBlock, job.handle, stats_.blocks);
        job.hash_offset += take;
        return true;
      }
      job.digest = job.sha.finish();
      machine_.charge(costs.rtm_finalize);
      stats_.finalize = costs.rtm_finalize;
      job.phase = Job::Phase::kReapply;
      return true;
    }
    case Job::Phase::kReapply: {
      if (job.reloc_index < job.relocs.size()) {
        machine_.charge(costs.rtm_per_addr - costs.rtm_per_addr / 2);
        stats_.reloc += costs.rtm_per_addr - costs.rtm_per_addr / 2;
        patch_site(job.relocs[job.reloc_index], job.base, /*revert=*/false);
        ++job.reloc_index;
        return true;
      }
      job.phase = Job::Phase::kDone;
      result_ = job.digest;
      stats_.total = machine_.cycles() - job.start_cycles;
      machine_.obs().spans().end(job.span, obs::SpanOutcome::kOk);
      machine_.obs().emit(obs::EventKind::kRtmDone, job.handle,
                          static_cast<std::uint32_t>(stats_.total));
      job_.reset();
      return false;
    }
    case Job::Phase::kDone:
      return false;
  }
  return false;
}

Result<crypto::Sha1Digest> Rtm::take_result() {
  if (!result_.has_value()) {
    return make_error(Err::kUnavailable, "RTM: no completed measurement");
  }
  const crypto::Sha1Digest digest = *result_;
  result_.reset();
  return digest;
}

Result<crypto::Sha1Digest> Rtm::measure_now(const rtos::Tcb& tcb,
                                            std::vector<isa::Relocation> relocs) {
  if (Status s = begin_measurement(tcb, std::move(relocs)); !s.is_ok()) {
    return s;
  }
  while (measure_quantum()) {
  }
  return take_result();
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Status Rtm::register_task(const rtos::Tcb& tcb, const crypto::Sha1Digest& digest) {
  if (find_by_handle(tcb.handle) != nullptr) {
    return make_error(Err::kAlreadyExists, "RTM registry: task already registered");
  }
  if ((entries_.size() + 1) * kRegistryEntrySize > kRtmRegistrySize) {
    return make_error(Err::kOutOfMemory, "RTM registry full");
  }
  RegistryEntry entry;
  entry.handle = tcb.handle;
  entry.digest = digest;
  entry.identity = identity_from_digest(digest);
  entry.base = tcb.region_base;
  entry.size = tcb.region_size;
  entry.entry = tcb.entry;
  entry.mailbox = tcb.mailbox;
  entry.secure = tcb.secure;
  entry.entry_addr =
      kRtmRegistryBase + static_cast<std::uint32_t>(entries_.size()) * kRegistryEntrySize;

  // Serialize into the EA-MPU-protected registry region (RTM-only writable);
  // probe the first byte so a misconfigured platform surfaces as an error.
  if (Status s = machine_.fw_write8(kIdent, entry.entry_addr, entry.identity[0]);
      !s.is_ok()) {
    return s;
  }
  serialize_entry(entry);
  entries_.push_back(entry);
  return Status::ok();
}

void Rtm::serialize_entry(const RegistryEntry& entry) {
  std::uint32_t addr = entry.entry_addr;
  for (std::size_t i = 0; i < entry.identity.size(); ++i) {
    machine_.fw_write8(kIdent, addr + static_cast<std::uint32_t>(i), entry.identity[i]);
  }
  addr += 8;
  for (std::size_t i = 0; i < entry.digest.size(); ++i) {
    machine_.fw_write8(kIdent, addr + static_cast<std::uint32_t>(i), entry.digest[i]);
  }
  addr += 20;
  machine_.fw_write32(kIdent, addr + 0, entry.base);
  machine_.fw_write32(kIdent, addr + 4, entry.size);
  machine_.fw_write32(kIdent, addr + 8, entry.entry);
  machine_.fw_write32(kIdent, addr + 12, entry.mailbox);
  machine_.fw_write32(kIdent, addr + 16,
                      kRegistryFlagValid | (entry.secure ? kRegistryFlagSecure : 0));
}

Status Rtm::unregister_task(TaskHandle handle) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].handle == handle) {
      // Invalidate the vacated tail slot, compact, and re-serialize so the
      // wire registry stays dense and consistent with the host index.
      const std::uint32_t last_addr =
          kRtmRegistryBase +
          static_cast<std::uint32_t>(entries_.size() - 1) * kRegistryEntrySize;
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
      for (std::size_t j = i; j < entries_.size(); ++j) {
        entries_[j].entry_addr =
            kRtmRegistryBase + static_cast<std::uint32_t>(j) * kRegistryEntrySize;
        serialize_entry(entries_[j]);
      }
      machine_.fw_write32(kIdent, last_addr + 44, 0);
      return Status::ok();
    }
  }
  return make_error(Err::kNotFound, "RTM registry: no such task");
}

const RegistryEntry* Rtm::find_by_handle(TaskHandle handle) const {
  for (const RegistryEntry& entry : entries_) {
    if (entry.handle == handle) {
      return &entry;
    }
  }
  return nullptr;
}

const RegistryEntry* Rtm::find_by_identity(const TaskIdentity& id) const {
  for (const RegistryEntry& entry : entries_) {
    if (entry.identity == id) {
      return &entry;
    }
  }
  return nullptr;
}

const RegistryEntry* Rtm::find_by_region(std::uint32_t addr) const {
  for (const RegistryEntry& entry : entries_) {
    if (addr >= entry.base && addr - entry.base < entry.size) {
      return &entry;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

void relocation_state(snap::Io& io, isa::Relocation& reloc) {
  io.u32(reloc.offset);
  io.enum8(reloc.kind);
  io.u32(reloc.addend);
}

Status Rtm::state(snap::Io& io) {
  io.optional(job_, [&io](Job& job) {
    io.i32(job.handle);
    io.u32(job.base);
    io.u32(job.image_size);
    io.sequence(job.relocs, [&io](isa::Relocation& reloc) { relocation_state(io, reloc); });
    crypto::Sha1::State sha = job.sha.save_state();
    for (std::uint32_t& word : sha.h) {
      io.u32(word);
    }
    io.raw(sha.buffer);
    io.u64(sha.buffer_len);
    io.u64(sha.total_bits);
    io.u64(sha.blocks);
    if (io.loading()) {
      job.sha.restore_state(sha);
    }
    io.enum8(job.phase);
    io.usize(job.reloc_index);
    io.u32(job.hash_offset);
    io.u64(job.start_cycles);
    io.optional(job.digest, [&io](crypto::Sha1Digest& digest) { io.raw(digest); });
  });
  io.optional(result_, [&io](crypto::Sha1Digest& digest) { io.raw(digest); });
  io.u64(stats_.setup);
  io.u64(stats_.hash);
  io.u64(stats_.reloc);
  io.u64(stats_.finalize);
  io.u64(stats_.total);
  io.u32(stats_.blocks);
  io.u32(stats_.addresses);
  io.u32(stats_.quanta);
  io.sequence(entries_, [&io](RegistryEntry& entry) {
    io.i32(entry.handle);
    io.raw(entry.identity);
    io.raw(entry.digest);
    io.u32(entry.base);
    io.u32(entry.size);
    io.u32(entry.entry);
    io.u32(entry.mailbox);
    io.boolean(entry.secure);
    io.u32(entry.entry_addr);
  });
  return Status::ok();
}

}  // namespace tytan::core
