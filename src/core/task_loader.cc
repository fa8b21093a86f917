#include "core/task_loader.h"

#include "common/bytes.h"
#include "common/log.h"
#include "core/ipc_proxy.h"
#include "fault/fault.h"
#include "tbf/tbf.h"

namespace tytan::core {

using rtos::TaskHandle;

namespace {
constexpr std::uint32_t align_up(std::uint32_t v, std::uint32_t a) {
  return (v + a - 1) & ~(a - 1);
}
/// Words copied per loader quantum (bounded execution time per quantum).
constexpr std::uint32_t kCopyWordsPerQuantum = 64;
/// Relocations applied per loader quantum.
constexpr std::size_t kRelocsPerQuantum = 4;
}  // namespace

// ---------------------------------------------------------------------------
// RamArena
// ---------------------------------------------------------------------------

RamArena::RamArena(std::uint32_t base, std::uint32_t size) {
  blocks_.push_back({base, size, false});
}

Result<std::uint32_t> RamArena::alloc(std::uint32_t size, std::uint32_t align) {
  if (size == 0) {
    return make_error(Err::kInvalidArgument, "arena: zero-size allocation");
  }
  size = align_up(size, align);
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    Block& block = blocks_[i];
    if (block.used) {
      continue;
    }
    const std::uint32_t aligned = align_up(block.base, align);
    const std::uint32_t pad = aligned - block.base;
    if (block.size < pad + size) {
      continue;
    }
    // Split off padding and tail as free blocks.
    if (pad != 0) {
      blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(i),
                     {block.base, pad, false});
      Block& b = blocks_[i + 1];
      b.base += pad;
      b.size -= pad;
      return alloc(size, align);  // retry with clean layout
    }
    if (block.size > size) {
      blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                     {block.base + size, block.size - size, false});
      blocks_[i].size = size;
    }
    blocks_[i].used = true;
    return blocks_[i].base;
  }
  return make_error(Err::kOutOfMemory, "arena: no block large enough");
}

Status RamArena::free(std::uint32_t base) {
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (blocks_[i].base == base && blocks_[i].used) {
      blocks_[i].used = false;
      // Coalesce with neighbours.
      if (i + 1 < blocks_.size() && !blocks_[i + 1].used) {
        blocks_[i].size += blocks_[i + 1].size;
        blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      }
      if (i > 0 && !blocks_[i - 1].used) {
        blocks_[i - 1].size += blocks_[i].size;
        blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(i));
      }
      return Status::ok();
    }
  }
  return make_error(Err::kNotFound, "arena: no allocation at this base");
}

std::uint32_t RamArena::free_bytes() const {
  std::uint32_t total = 0;
  for (const Block& block : blocks_) {
    total += block.used ? 0 : block.size;
  }
  return total;
}

// ---------------------------------------------------------------------------
// TaskLoader
// ---------------------------------------------------------------------------

TaskLoader::TaskLoader(sim::Machine& machine, rtos::Scheduler& scheduler,
                       EaMpuDriver& driver, Rtm& rtm, IntMux& int_mux)
    : machine_(machine),
      scheduler_(scheduler),
      driver_(driver),
      rtm_(rtm),
      int_mux_(int_mux),
      arena_(sim::kRamBase, sim::kRamEnd - sim::kRamBase) {}

Result<TaskHandle> TaskLoader::begin_load(isa::ObjectFile object, LoadParams params) {
  if (job_.has_value()) {
    return make_error(Err::kUnavailable, "loader busy");
  }
  if (object.image.empty()) {
    return make_error(Err::kInvalidArgument, "empty task image");
  }
  if (object.entry >= object.image.size()) {
    return make_error(Err::kInvalidArgument, "entry outside image");
  }
  if (fault::FaultEngine* engine = machine_.faults(); engine != nullptr) {
    const std::int64_t bit = engine->on_load(params.name, object.image.size());
    if (bit >= 0) {
      // Corrupt the image in transit, before any measurement: the RTM must
      // catch this downstream (expected_identity) or the lint gate may.
      object.image[static_cast<std::size_t>(bit / 8)] ^=
          static_cast<std::uint8_t>(1U << (bit % 8));
      machine_.obs().emit(obs::EventKind::kFaultInject, -1,
                          static_cast<std::uint32_t>(fault::FaultClass::kTbfBitflip),
                          static_cast<std::uint32_t>(bit));
      TYTAN_CLOG(machine_.log(), LogLevel::kWarn, "loader")
          << "fault injection: flipped bit " << bit << " of image '" << params.name
          << "'";
    }
  }
  rtos::TaskParams task_params{.name = params.name,
                               .priority = params.priority,
                               .secure = object.secure(),
                               .kind = rtos::TaskKind::kGuest};
  auto handle = scheduler_.create(task_params);
  if (!handle.is_ok()) {
    return handle.status();
  }
  Job job;
  job.object = std::move(object);
  job.params = std::move(params);
  job.handle = *handle;
  job.start_cycles = machine_.cycles();
  stats_ = CreateStats{};
  stats_.secure = job.object.secure();
  stats_.relocations = static_cast<std::uint32_t>(job.object.relocs.size());
  stats_.image_bytes = static_cast<std::uint32_t>(job.object.image.size());
  job_ = std::move(job);
  machine_.obs().emit(obs::EventKind::kLoadBegin, *handle, stats_.image_bytes,
                      stats_.secure ? 1u : 0u);
  return *handle;
}

void TaskLoader::fail_job(Status status) {
  TYTAN_CLOG(machine_.log(), LogLevel::kWarn, "loader") << "load failed: " << status.to_string();
  if (rtos::Tcb* tcb = scheduler_.get(job_->handle); tcb != nullptr) {
    if (tcb->mpu_slot >= 0) {
      driver_.unconfigure(static_cast<std::size_t>(tcb->mpu_slot));
    }
    if (tcb->exec_region_idx >= 0) {
      driver_.remove_exec_region(static_cast<std::size_t>(tcb->exec_region_idx));
    }
    if (Status s = int_mux_.unregister_secure_task(job_->handle); !s.is_ok()) {
      TYTAN_CLOG(machine_.log(), LogLevel::kWarn, "loader")
          << "shadow TCB not cleared: " << s.to_string();
    }
  }
  scheduler_.destroy(job_->handle);
  if (job_->base != 0) {
    arena_.free(job_->base);
  }
  job_->failed = true;
  job_->failure = std::move(status);
}

bool TaskLoader::load_quantum() {
  if (!job_.has_value()) {
    return false;
  }
  if (job_->failed) {
    job_.reset();
    return false;
  }
  const Phase before = job_->phase;
  const TaskHandle handle = job_->handle;
  bool more = false;
  switch (before) {
    case Phase::kVerify: more = quantum_verify(); break;
    case Phase::kAlloc: more = quantum_alloc(); break;
    case Phase::kCopy: more = quantum_copy(); break;
    case Phase::kReloc: more = quantum_reloc(); break;
    case Phase::kStackPrep: more = quantum_stack_prep(); break;
    case Phase::kMpu: more = quantum_mpu(); break;
    case Phase::kMeasure: more = quantum_measure(); break;
    case Phase::kRegister: more = quantum_register(); break;
    case Phase::kDone:
      job_.reset();
      return false;
  }
  // An on_loaded callback may have replaced job_ with a different load; only
  // report a transition of the job this quantum actually advanced.
  if (job_.has_value() && job_->handle == handle && job_->phase != before) {
    machine_.obs().emit(obs::EventKind::kLoadPhase, handle,
                        static_cast<std::uint32_t>(job_->phase));
  }
  return more;
}

bool TaskLoader::quantum_verify() {
  Job& job = *job_;
  // Step 0: static verification.  Runs host-side before any task memory is
  // allocated and charges no simulated cycles — the paper's load-time cost
  // model (Tables 4/5) is unchanged by the lint gate.
  lint_report_ = analysis::Report{};
  if (lint_mode_ != LintMode::kOff) {
    lint_report_ = analysis::analyze(job.object, lint_config_);
    stats_.lint_findings = static_cast<std::uint32_t>(lint_report_.findings.size());
    for (const analysis::Finding& finding : lint_report_.findings) {
      const LogLevel level = finding.severity == analysis::Severity::kError
                                 ? LogLevel::kWarn
                                 : LogLevel::kInfo;
      TYTAN_CLOG(machine_.log(), level, "loader")
          << "lint " << job.params.name << ": " << analysis::format_finding(finding);
    }
    if (lint_mode_ == LintMode::kStrict && lint_report_.errors() > 0) {
      const analysis::Finding* first = lint_report_.first(analysis::Severity::kError);
      fail_job(make_error(Err::kInvalidArgument,
                          "static verifier rejected image: " +
                              analysis::format_finding(*first)));
      return true;
    }
  }
  job.phase = Phase::kAlloc;
  return true;
}

bool TaskLoader::quantum_alloc() {
  Job& job = *job_;
  const std::uint64_t t0 = machine_.cycles();
  machine_.charge(machine_.costs().alloc_base);
  const auto image_end = align_up(static_cast<std::uint32_t>(job.object.image.size()) +
                                      job.object.bss_size,
                                  16);
  job.total_size = image_end + align_up(std::max(job.object.stack_size, 64u), 16);
  auto base = arena_.alloc(job.total_size);
  if (!base.is_ok()) {
    fail_job(base.status());
    return true;
  }
  job.base = *base;
  stats_.alloc = machine_.cycles() - t0;
  job.phase = Phase::kCopy;
  return true;
}

bool TaskLoader::quantum_copy() {
  Job& job = *job_;
  const std::uint64_t t0 = machine_.cycles();
  const auto image_size = static_cast<std::uint32_t>(job.object.image.size());
  // Up to a quantum of whole words in one block write, charged per word
  // written plus the word that failed; a tail shorter than a word goes
  // byte by byte for one more word's charge in the quantum that reaches it.
  const std::uint32_t words =
      std::min(kCopyWordsPerQuantum, (image_size - job.copy_offset) / 4);
  if (words > 0) {
    std::uint32_t done = 0;
    const Status s = machine_.fw_write_block(
        kIdent, job.base + job.copy_offset,
        std::span(job.object.image).subspan(job.copy_offset, std::size_t{words} * 4), 4, &done);
    machine_.charge(machine_.costs().load_per_word * (done + (s.is_ok() ? 0 : 1)));
    job.copy_offset += done * 4;
    if (!s.is_ok()) {
      fail_job(s);
      return true;
    }
  }
  if (words < kCopyWordsPerQuantum && job.copy_offset < image_size) {
    machine_.charge(machine_.costs().load_per_word);
    std::uint32_t done = 0;
    const Status s = machine_.fw_write_block(kIdent, job.base + job.copy_offset,
                                             std::span(job.object.image).subspan(job.copy_offset),
                                             1, &done);
    job.copy_offset += done;
    if (!s.is_ok()) {
      fail_job(s);
      return true;
    }
  }
  stats_.copy += machine_.cycles() - t0;
  if (job.copy_offset >= image_size) {
    job.phase = Phase::kReloc;
    machine_.charge(machine_.costs().reloc_base);
    stats_.reloc += machine_.costs().reloc_base;
  }
  return true;
}

bool TaskLoader::quantum_reloc() {
  Job& job = *job_;
  const std::uint64_t t0 = machine_.cycles();
  std::size_t applied = 0;
  while (job.reloc_index < job.object.relocs.size() && applied < kRelocsPerQuantum) {
    const isa::Relocation& reloc = job.object.relocs[job.reloc_index];
    machine_.charge(machine_.costs().reloc_per_addr);
    if (Status s = patch_relocation(machine_, kIdent, job.base + reloc.offset, reloc, job.base);
        !s.is_ok()) {
      fail_job(s);
      return true;
    }
    ++job.reloc_index;
    ++applied;
  }
  stats_.reloc += machine_.cycles() - t0;
  if (job.reloc_index >= job.object.relocs.size()) {
    job.phase = Phase::kStackPrep;
  }
  return true;
}

bool TaskLoader::quantum_stack_prep() {
  Job& job = *job_;
  const std::uint64_t t0 = machine_.cycles();
  machine_.charge(machine_.costs().stack_prep);

  rtos::Tcb* tcb = scheduler_.get(job.handle);
  TYTAN_CHECK(tcb != nullptr, "loader: TCB vanished");
  tcb->region_base = job.base;
  tcb->region_size = job.total_size;
  tcb->image_size = static_cast<std::uint32_t>(job.object.image.size());
  tcb->entry = job.base + job.object.entry;
  tcb->msg_handler = job.object.msg_handler != 0 ? job.base + job.object.msg_handler : 0;
  tcb->mailbox = job.object.mailbox != 0 ? job.base + job.object.mailbox : 0;
  tcb->stack_top = job.base + job.total_size;

  // Zero bss + stack.
  const auto image_size = static_cast<std::uint32_t>(job.object.image.size());
  machine_.memory().fill(job.base + image_size, job.total_size - image_size, 0);

  if (!tcb->secure) {
    // Paper: "the OS prepares the stack of this task as if it had been
    // executed before and was interrupted" — an initial frame so the normal
    // resume path starts the task: r6..r0 (zero), EIP, EFLAGS.
    const std::uint32_t sp = tcb->stack_top - kFrameSize;
    if (Status s = machine_.fw_write_block(
            kIdent, sp, le_words(0, 0, 0, 0, 0, 0, 0, tcb->entry, isa::kFlagIF), 4);
        !s.is_ok()) {
      fail_job(s);
      return true;
    }
    tcb->saved_sp = sp;
    tcb->context_saved = true;
  }
  stats_.stack = machine_.cycles() - t0;
  job.phase = Phase::kMpu;
  return true;
}

bool TaskLoader::quantum_mpu() {
  Job& job = *job_;
  rtos::Tcb* tcb = scheduler_.get(job.handle);
  const std::uint64_t t0 = machine_.cycles();

  sim::ExecRegion exec{.start = job.base,
                      .size = job.total_size,
                      .entry = tcb->secure ? tcb->entry : sim::ExecRegion::kEntryAnywhere};
  auto exec_idx = driver_.add_exec_region(exec);
  if (!exec_idx.is_ok()) {
    fail_job(exec_idx.status());
    return true;
  }
  tcb->exec_region_idx = static_cast<int>(*exec_idx);

  sim::Rule rule{.code_start = job.base,
                .code_size = job.total_size,
                .data_start = job.base,
                .data_size = job.total_size,
                .perms = sim::kPermRead | sim::kPermWrite,
                .os_accessible = !tcb->secure};
  auto slot = driver_.configure(rule);
  if (!slot.is_ok()) {
    driver_.remove_exec_region(*exec_idx);
    tcb->exec_region_idx = -1;
    fail_job(slot.status());
    return true;
  }
  tcb->mpu_slot = static_cast<int>(*slot);
  stats_.eampu = machine_.cycles() - t0;

  if (tcb->secure) {
    if (Status s = int_mux_.register_secure_task(*tcb); !s.is_ok()) {
      fail_job(s);
      return true;
    }
    job.phase = Phase::kMeasure;
    if (Status s = rtm_.begin_measurement(*tcb, job.object.relocs); !s.is_ok()) {
      fail_job(s);
      return true;
    }
  } else {
    job.phase = Phase::kRegister;
  }
  return true;
}

bool TaskLoader::quantum_measure() {
  // The RTM state machine does one bounded unit per quantum; the loader task
  // simply drives it (the paper's RTM task is preemptible in exactly the
  // same way — see DESIGN.md).
  const std::uint64_t t0 = machine_.cycles();
  const bool more = rtm_.measure_quantum();
  stats_.rtm += machine_.cycles() - t0;
  if (!more) {
    job_->phase = Phase::kRegister;
  }
  return true;
}

bool TaskLoader::quantum_register() {
  Job& job = *job_;
  rtos::Tcb* tcb = scheduler_.get(job.handle);
  machine_.charge(machine_.costs().sched_pick);

  if (tcb->secure) {
    auto digest = rtm_.take_result();
    if (!digest.is_ok()) {
      fail_job(digest.status());
      return true;
    }
    const rtos::TaskIdentity measured = Rtm::identity_from_digest(*digest);
    if (job.params.expected_identity.has_value() &&
        measured != *job.params.expected_identity) {
      // Graceful degradation: quarantine the binary (keep the evidence)
      // instead of registering a task the verifier would reject anyway.
      quarantine_.push_back({job.params.name, measured, machine_.cycles()});
      machine_.obs().emit(obs::EventKind::kFaultRecover, job.handle,
                          static_cast<std::uint32_t>(fault::RecoveryKind::kQuarantine),
                          static_cast<std::uint32_t>(quarantine_.size()));
      if (fault::FaultEngine* engine = machine_.faults(); engine != nullptr) {
        engine->note_recovery(fault::FaultClass::kTbfBitflip);
      }
      fail_job(make_error(Err::kCorrupt,
                          "measured identity of '" + job.params.name +
                              "' differs from golden expectation — quarantined"));
      return true;
    }
    if (Status s = rtm_.register_task(*tcb, *digest); !s.is_ok()) {
      fail_job(s);
      return true;
    }
    tcb->identity = measured;
    tcb->measured = true;
  }
  if (job.params.auto_start) {
    scheduler_.make_ready(job.handle);
  }
  if (obs::HeatRecorder* heat = machine_.heat(); heat != nullptr) {
    // Execution observatory: name the loaded region and seed static block
    // leaders from CFG recovery so heat blocks line up with the disassembler's
    // basic blocks (runtime leader detection alone would split only at
    // discontinuities).  Heat regions deliberately persist across unload —
    // the profile is cumulative history, not live state.
    heat->add_region(job.handle, job.params.name, tcb->region_base, tcb->region_size);
    analysis::Report scratch;
    const analysis::Cfg cfg =
        analysis::recover_cfg(job.object, analysis::decode_image(job.object), scratch);
    std::vector<std::uint32_t> offsets;
    offsets.reserve(cfg.blocks.size());
    for (const auto& [start, block] : cfg.blocks) {
      offsets.push_back(start);
    }
    heat->add_leaders(tcb->region_base, offsets);
  }
  // The decode cache already observed the image copy (write watch) and the
  // EA-MPU slot writes (config epoch); dropping it here is belt and braces
  // so a freshly loaded region can never execute stale decoded blocks.
  machine_.invalidate_decode_cache();
  stats_.total = machine_.cycles() - job.start_cycles;
  machine_.obs().emit(obs::EventKind::kLoadDone, job.handle,
                      static_cast<std::uint32_t>(stats_.total));
  TYTAN_CLOG(machine_.log(), LogLevel::kInfo, "loader")
      << "loaded " << job.params.name << " in " << stats_.total << " cycles";
  last_loaded_ = job.handle;
  job.phase = Phase::kDone;
  if (job.params.on_loaded) {
    // Move the callback out: it may start another load, which replaces job_.
    auto callback = std::move(job.params.on_loaded);
    const rtos::TaskHandle loaded = job.handle;
    job_.reset();
    callback(loaded);
    return job_.has_value();
  }
  return true;
}

Result<TaskHandle> TaskLoader::load_now(isa::ObjectFile object, LoadParams params) {
  auto handle = begin_load(std::move(object), std::move(params));
  if (!handle.is_ok()) {
    return handle;
  }
  Status failure = Status::ok();
  while (job_.has_value()) {
    if (job_->failed) {
      failure = job_->failure;
    }
    load_quantum();
  }
  if (!failure.is_ok()) {
    return failure;
  }
  return handle;
}

Status TaskLoader::unload(TaskHandle handle) {
  rtos::Tcb* tcb = scheduler_.get(handle);
  if (tcb == nullptr) {
    return make_error(Err::kNotFound, "unload: no such task");
  }
  if (tcb->secure) {
    // The registry and shadow-slot writes are the steps that can fail; on a
    // failure the task keeps its memory, rules and schedule.
    if (Status s = rtm_.unregister_task(handle); !s.is_ok() && s.code() != Err::kNotFound) {
      return s;
    }
    if (Status s = int_mux_.unregister_secure_task(handle); !s.is_ok()) {
      return s;
    }
  }
  if (ipc_proxy_ != nullptr) {
    ipc_proxy_->release_grants_of(handle);
  }
  if (tcb->mpu_slot >= 0) {
    driver_.unconfigure(static_cast<std::size_t>(tcb->mpu_slot));
  }
  if (tcb->exec_region_idx >= 0) {
    driver_.remove_exec_region(static_cast<std::size_t>(tcb->exec_region_idx));
  }
  if (tcb->region_base != 0) {
    // Wipe the region so secrets never leak into the next allocation.
    machine_.memory().fill(tcb->region_base, tcb->region_size, 0);
    arena_.free(tcb->region_base);
  }
  // See the matching invalidate in finish_load: the wipe and the EA-MPU
  // teardown above already killed the affected blocks; this pins the
  // invariant even if the region was never wiped (region_base == 0).
  machine_.invalidate_decode_cache();
  return scheduler_.destroy(handle);
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

Status RamArena::state(snap::Io& io) {
  io.sequence(blocks_, [&io](Block& block) {
    io.u32(block.base);
    io.u32(block.size);
    io.boolean(block.used);
  });
  return Status::ok();
}

namespace {

void object_state(snap::Io& io, isa::ObjectFile& object) {
  io.blob(object.image);
  io.u32(object.bss_size);
  io.u32(object.stack_size);
  io.u32(object.entry);
  io.u32(object.msg_handler);
  io.u32(object.mailbox);
  io.u32(object.flags);
  io.sequence(object.relocs, [&io](isa::Relocation& reloc) { relocation_state(io, reloc); });
  io.entries(object.symbols, [&io](std::string& name, std::uint32_t& offset) {
    io.str(name);
    io.u32(offset);
  });
}

}  // namespace

Status TaskLoader::state(snap::Io& io) {
  if (Status s = arena_.state(io); !s.is_ok()) {
    return s;
  }
  io.optional(job_, [&io](Job& job) {
    object_state(io, job.object);
    io.str(job.params.name);
    io.u32(job.params.priority);
    io.boolean(job.params.auto_start);
    io.optional(job.params.expected_identity,
                [&io](rtos::TaskIdentity& identity) { io.raw(identity); });
    io.i32(job.handle);
    io.enum8(job.phase);
    io.u32(job.base);
    io.u32(job.total_size);
    io.u32(job.copy_offset);
    io.usize(job.reloc_index);
    io.u64(job.start_cycles);
    io.boolean(job.failed);
    io.status(job.failure);
  });
  io.i32(last_loaded_);
  io.u64(stats_.alloc);
  io.u64(stats_.copy);
  io.u64(stats_.reloc);
  io.u64(stats_.stack);
  io.u64(stats_.eampu);
  io.u64(stats_.rtm);
  io.u64(stats_.total);
  io.u32(stats_.relocations);
  io.u32(stats_.image_bytes);
  io.boolean(stats_.secure);
  io.u32(stats_.lint_findings);
  io.sequence(quarantine_, [&io](QuarantineRecord& record) {
    io.str(record.name);
    io.raw(record.measured);
    io.u64(record.cycle);
  });
  return Status::ok();
}

}  // namespace tytan::core
