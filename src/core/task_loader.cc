#include "core/task_loader.h"

#include "common/bytes.h"
#include "common/log.h"
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
    int_mux_.unregister_secure_task(job_->handle);
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
  std::uint32_t copied = 0;
  while (job.copy_offset < image_size && copied < kCopyWordsPerQuantum * 4) {
    const std::uint32_t remaining = image_size - job.copy_offset;
    if (remaining >= 4) {
      machine_.charge(machine_.costs().load_per_word);
      const std::uint32_t word = load_le32(job.object.image.data() + job.copy_offset);
      if (Status s = machine_.fw_write32(kIdent, job.base + job.copy_offset, word);
          !s.is_ok()) {
        fail_job(s);
        return true;
      }
      job.copy_offset += 4;
      copied += 4;
    } else {
      machine_.charge(machine_.costs().load_per_word);
      for (std::uint32_t i = 0; i < remaining; ++i) {
        machine_.fw_write8(kIdent, job.base + job.copy_offset + i,
                           job.object.image[job.copy_offset + i]);
      }
      job.copy_offset += remaining;
      copied += remaining;
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
    auto word = machine_.fw_read32(kIdent, job.base + reloc.offset);
    if (!word.is_ok()) {
      fail_job(word.status());
      return true;
    }
    std::uint8_t bytes[4];
    store_le32(bytes, *word);
    const isa::Relocation local{.offset = 0, .kind = reloc.kind, .addend = reloc.addend};
    tbf::apply_relocation(local, bytes, job.base);
    machine_.fw_write32(kIdent, job.base + reloc.offset, load_le32(bytes));
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
    // resume path starts the task.
    std::uint32_t sp = tcb->stack_top;
    sp -= 4;
    machine_.fw_write32(kIdent, sp, isa::kFlagIF);  // EFLAGS
    sp -= 4;
    machine_.fw_write32(kIdent, sp, tcb->entry);  // EIP
    for (unsigned i = 0; i < 7; ++i) {
      sp -= 4;
      machine_.fw_write32(kIdent, sp, 0);  // r0..r6 image (stored r6-first)
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

  hw::ExecRegion exec{.start = job.base,
                      .size = job.total_size,
                      .entry = tcb->secure ? tcb->entry : hw::ExecRegion::kEntryAnywhere};
  auto exec_idx = driver_.add_exec_region(exec);
  if (!exec_idx.is_ok()) {
    fail_job(exec_idx.status());
    return true;
  }
  tcb->exec_region_idx = static_cast<int>(*exec_idx);

  hw::Rule rule{.code_start = job.base,
                .code_size = job.total_size,
                .data_start = job.base,
                .data_size = job.total_size,
                .perms = hw::kPermRead | hw::kPermWrite,
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
    const analysis::Cfg cfg = analysis::recover_cfg(job.object, scratch);
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
  if (tcb->mpu_slot >= 0) {
    driver_.unconfigure(static_cast<std::size_t>(tcb->mpu_slot));
  }
  if (tcb->exec_region_idx >= 0) {
    driver_.remove_exec_region(static_cast<std::size_t>(tcb->exec_region_idx));
  }
  if (tcb->secure) {
    rtm_.unregister_task(handle);
    int_mux_.unregister_secure_task(handle);
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

void RamArena::save_state(snap::Writer& w) const {
  w.u32(static_cast<std::uint32_t>(blocks_.size()));
  for (const Block& block : blocks_) {
    w.u32(block.base);
    w.u32(block.size);
    w.boolean(block.used);
  }
}

Status RamArena::restore_state(snap::Reader& r) {
  const std::uint32_t count = r.u32();
  blocks_.clear();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    Block block{};
    block.base = r.u32();
    block.size = r.u32();
    block.used = r.boolean();
    blocks_.push_back(block);
  }
  return Status::ok();
}

namespace {

void write_object(snap::Writer& w, const isa::ObjectFile& object) {
  w.blob(object.image);
  w.u32(object.bss_size);
  w.u32(object.stack_size);
  w.u32(object.entry);
  w.u32(object.msg_handler);
  w.u32(object.mailbox);
  w.u32(object.flags);
  w.u32(static_cast<std::uint32_t>(object.relocs.size()));
  for (const isa::Relocation& reloc : object.relocs) {
    w.u32(reloc.offset);
    w.u8(static_cast<std::uint8_t>(reloc.kind));
    w.u32(reloc.addend);
  }
  w.u32(static_cast<std::uint32_t>(object.symbols.size()));
  for (const auto& [name, offset] : object.symbols) {
    w.str(name);
    w.u32(offset);
  }
}

isa::ObjectFile read_object(snap::Reader& r) {
  isa::ObjectFile object;
  object.image = r.blob();
  object.bss_size = r.u32();
  object.stack_size = r.u32();
  object.entry = r.u32();
  object.msg_handler = r.u32();
  object.mailbox = r.u32();
  object.flags = r.u32();
  const std::uint32_t relocs = r.u32();
  for (std::uint32_t i = 0; i < relocs && r.ok(); ++i) {
    isa::Relocation reloc;
    reloc.offset = r.u32();
    reloc.kind = static_cast<isa::RelocKind>(r.u8());
    reloc.addend = r.u32();
    object.relocs.push_back(reloc);
  }
  const std::uint32_t symbols = r.u32();
  for (std::uint32_t i = 0; i < symbols && r.ok(); ++i) {
    std::string name = r.str();
    object.symbols[std::move(name)] = r.u32();
  }
  return object;
}

void write_status(snap::Writer& w, const Status& status) {
  w.i32(static_cast<std::int32_t>(status.code()));
  w.str(status.message());
}

Status read_status(snap::Reader& r) {
  const auto code = static_cast<Err>(r.i32());
  std::string message = r.str();
  if (code == Err::kOk) {
    return Status::ok();
  }
  return make_error(code, std::move(message));
}

}  // namespace

void TaskLoader::save_state(snap::Writer& w) const {
  arena_.save_state(w);
  w.boolean(job_.has_value());
  if (job_) {
    write_object(w, job_->object);
    w.str(job_->params.name);
    w.u32(job_->params.priority);
    w.boolean(job_->params.auto_start);
    w.boolean(job_->params.expected_identity.has_value());
    if (job_->params.expected_identity) {
      w.raw(*job_->params.expected_identity);
    }
    w.i32(job_->handle);
    w.u8(static_cast<std::uint8_t>(job_->phase));
    w.u32(job_->base);
    w.u32(job_->total_size);
    w.u32(job_->copy_offset);
    w.u64(job_->reloc_index);
    w.u64(job_->start_cycles);
    w.boolean(job_->failed);
    write_status(w, job_->failure);
  }
  w.i32(last_loaded_);
  w.u64(stats_.alloc);
  w.u64(stats_.copy);
  w.u64(stats_.reloc);
  w.u64(stats_.stack);
  w.u64(stats_.eampu);
  w.u64(stats_.rtm);
  w.u64(stats_.total);
  w.u32(stats_.relocations);
  w.u32(stats_.image_bytes);
  w.boolean(stats_.secure);
  w.u32(stats_.lint_findings);
  w.u32(static_cast<std::uint32_t>(quarantine_.size()));
  for (const QuarantineRecord& record : quarantine_) {
    w.str(record.name);
    w.raw(record.measured);
    w.u64(record.cycle);
  }
}

Status TaskLoader::restore_state(snap::Reader& r) {
  if (Status s = arena_.restore_state(r); !s.is_ok()) {
    return s;
  }
  job_.reset();
  if (r.boolean()) {
    Job job;
    job.object = read_object(r);
    job.params.name = r.str();
    job.params.priority = r.u32();
    job.params.auto_start = r.boolean();
    if (r.boolean()) {
      rtos::TaskIdentity identity{};
      r.raw(identity);
      job.params.expected_identity = identity;
    }
    job.handle = r.i32();
    job.phase = static_cast<Phase>(r.u8());
    job.base = r.u32();
    job.total_size = r.u32();
    job.copy_offset = r.u32();
    job.reloc_index = static_cast<std::size_t>(r.u64());
    job.start_cycles = r.u64();
    job.failed = r.boolean();
    job.failure = read_status(r);
    job_ = std::move(job);
  }
  last_loaded_ = r.i32();
  stats_.alloc = r.u64();
  stats_.copy = r.u64();
  stats_.reloc = r.u64();
  stats_.stack = r.u64();
  stats_.eampu = r.u64();
  stats_.rtm = r.u64();
  stats_.total = r.u64();
  stats_.relocations = r.u32();
  stats_.image_bytes = r.u32();
  stats_.secure = r.boolean();
  stats_.lint_findings = r.u32();
  const std::uint32_t records = r.u32();
  quarantine_.clear();
  for (std::uint32_t i = 0; i < records && r.ok(); ++i) {
    QuarantineRecord record;
    record.name = r.str();
    r.raw(record.measured);
    record.cycle = r.u64();
    quarantine_.push_back(std::move(record));
  }
  return Status::ok();
}

}  // namespace tytan::core
