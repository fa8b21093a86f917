#include "core/ipc_proxy.h"

#include "common/bytes.h"
#include "common/log.h"
#include "fault/fault.h"

namespace tytan::core {

using rtos::TaskHandle;
using rtos::TaskIdentity;
using rtos::Tcb;

void IpcProxy::install() {
  machine_.register_firmware(kIdent, "ipc-proxy", [this](sim::Machine&) { on_ipc(); });
  int_mux_.set_vector_handler(sim::kVecIpc, kIdent);
}

Status IpcProxy::write_mailbox(const RegistryEntry& receiver, const TaskIdentity& sender_id,
                               const std::array<std::uint32_t, 4>& message) {
  if (receiver.mailbox == 0) {
    return make_error(Err::kInvalidArgument, "receiver has no mailbox (normal task?)");
  }
  // The mailbox record: sender identity (two words), then the message.
  std::array<std::uint8_t, 24> record{};
  std::copy(sender_id.begin(), sender_id.end(), record.begin());
  const auto body = le_words(message[0], message[1], message[2], message[3]);
  std::copy(body.begin(), body.end(), record.begin() + sender_id.size());
  // Charged per word written plus the word that failed.
  std::uint32_t done = 0;
  const Status s = machine_.fw_write_block(kIdent, receiver.mailbox, record, 4, &done);
  machine_.charge(machine_.costs().ipc_copy_word * (done + (s.is_ok() ? 0 : 1)));
  return s;
}

void IpcProxy::on_ipc() {
  const sim::CostModel& costs = machine_.costs();
  stats_ = IpcStats{};
  const std::uint64_t t0 = machine_.cycles();
  machine_.charge(costs.ipc_proxy_base);

  Tcb* sender = scheduler_.current();
  if (sender == nullptr || sender->kind != rtos::TaskKind::kGuest ||
      !sender->context_saved) {
    ++rejected_;
    machine_.obs().emit(obs::EventKind::kIpcReject,
                        sender != nullptr ? sender->handle : -1);
    kernel_.reschedule();
    return;
  }

  // Sender identity from the hardware interrupt origin (paper §4: the proxy
  // "obtains the origin of the interrupt from the hardware and determines
  // S's identity id_S") — not from anything the sender could forge.
  const std::uint32_t origin = machine_.int_origin_eip();
  const RegistryEntry* sender_entry = nullptr;
  for (const RegistryEntry& entry : rtm_.entries()) {
    machine_.charge(costs.ipc_registry_probe);
    if (origin >= entry.base && origin - entry.base < entry.size) {
      sender_entry = &entry;
      break;
    }
  }
  const TaskIdentity sender_id =
      sender_entry != nullptr ? sender_entry->identity : TaskIdentity{};

  // Message and receiver identity from the sender's *saved* context, r0..r6.
  std::array<std::uint32_t, 7> regs{};
  if (!int_mux_.read_saved_regs(*sender, regs)) {
    return;
  }
  const std::uint32_t op = regs[0];
  TaskIdentity receiver_id{};
  store_le32(receiver_id.data(), regs[1]);
  store_le32(receiver_id.data() + 4, regs[2]);
  const std::array<std::uint32_t, 4> message{regs[3], regs[4], regs[5], regs[6]};

  if (op != kIpcShmGrant) {
    if (fault::FaultEngine* engine = machine_.faults();
        engine != nullptr && engine->on_ipc_message()) {
      // Lossy transport: the message vanishes, the sender gets the same
      // typed kSysErr it would see on any rejection and may retry.
      ++dropped_;
      machine_.obs().emit(obs::EventKind::kFaultInject, sender->handle,
                          static_cast<std::uint32_t>(fault::FaultClass::kIpcDrop));
      TYTAN_CLOG(machine_.log(), LogLevel::kWarn, "ipc")
          << "fault injection: dropped message from task " << sender->handle;
      reject(*sender);
      return;
    }
  }

  // Receiver lookup.
  const RegistryEntry* receiver_entry = nullptr;
  for (const RegistryEntry& entry : rtm_.entries()) {
    machine_.charge(costs.ipc_registry_probe);
    if (entry.identity == receiver_id) {
      receiver_entry = &entry;
      break;
    }
  }

  if (op == kIpcShmGrant) {
    handle_shm(*sender, sender_entry, receiver_entry, message[0]);
    return;
  }

  if (receiver_entry == nullptr) {
    reject(*sender);
    return;
  }
  Tcb* receiver = scheduler_.get(receiver_entry->handle);
  if (receiver == nullptr || receiver->handle == sender->handle) {
    reject(*sender);
    return;
  }

  // The sender's kSysOk goes in before the mailbox write: a sender that
  // cannot be answered is contained before the receiver's mailbox (which
  // may already hold a pending message) is touched.  A failed mailbox write
  // then overwrites the kSysOk with reject's kSysErr.
  if (!int_mux_.reply(*sender, kSysOk)) {
    return;
  }
  if (Status s = write_mailbox(*receiver_entry, sender_id, message); !s.is_ok()) {
    reject(*sender);
    return;
  }
  ++delivered_;
  stats_.proxy = machine_.cycles() - t0;

  const bool sync = (op == kIpcSendSync) && !int_mux_.message_active(receiver->handle);
  machine_.obs().emit(obs::EventKind::kIpcSend, sender->handle,
                      static_cast<std::uint32_t>(receiver->handle), sync ? 1u : 0u);
  machine_.obs().emit(obs::EventKind::kIpcDeliver, receiver->handle);
  if (sync) {
    // Paper: "For synchronous communication, the IPC proxy branches to R,
    // whose entry routine processes m."  The sender goes back to the ready
    // queue; the receiver runs now.
    scheduler_.yield_current();
    const std::uint64_t t1 = machine_.cycles();
    if (receiver->state == rtos::TaskState::kBlocked ||
        receiver->state == rtos::TaskState::kSuspended) {
      scheduler_.make_ready(receiver->handle);
    }
    receiver->message_pending = true;
    if (Status s = kernel_.activate_message(receiver->handle); !s.is_ok()) {
      // Could not branch (e.g. handler busy): leave it pending (async).
      kernel_.reschedule();
    }
    // The branch into the receiver is proxy work (paper: proxy 1,208 incl.
    // the branch; entry routine 116); attribute it accordingly.
    const std::uint64_t branch = machine_.costs().resume_branch;
    const std::uint64_t entry_span = machine_.cycles() - t1;
    stats_.entry = entry_span > branch ? entry_span - branch : entry_span;
    stats_.proxy += std::min(branch, entry_span);
    stats_.total = machine_.cycles() - t0;
    stats_.delivered = true;
    return;
  }

  // Async: mark pending; R processes m the next time it is scheduled; the
  // proxy continues executing S.
  receiver->message_pending = true;
  if (receiver->state == rtos::TaskState::kBlocked &&
      receiver->block_reason == rtos::BlockReason::kMessage) {
    scheduler_.make_ready(receiver->handle);
  }
  stats_.total = machine_.cycles() - t0;
  stats_.delivered = true;
  kernel_.resume_specific(sender->handle);
}

void IpcProxy::reject(Tcb& sender) {
  ++rejected_;
  machine_.obs().emit(obs::EventKind::kIpcReject, sender.handle);
  if (int_mux_.reply(sender, kSysErr)) {
    kernel_.resume_specific(sender.handle);
  }
}

void IpcProxy::handle_shm(Tcb& sender, const RegistryEntry* sender_entry,
                          const RegistryEntry* receiver_entry, std::uint32_t size) {
  machine_.charge(machine_.costs().ipc_shm_setup);
  if (sender_entry == nullptr || receiver_entry == nullptr || size == 0 ||
      size > 0x10000) {
    TYTAN_CLOG(machine_.log(), LogLevel::kWarn, "ipc")
        << "shm grant rejected: sender_entry=" << (sender_entry != nullptr)
        << " receiver_entry=" << (receiver_entry != nullptr) << " size=" << size;
    reject(sender);
    return;
  }
  auto base = arena_.alloc(size);
  if (!base.is_ok()) {
    reject(sender);
    return;
  }
  const sim::Rule rule_a{.code_start = sender_entry->base,
                        .code_size = sender_entry->size,
                        .data_start = *base,
                        .data_size = size,
                        .perms = sim::kPermRead | sim::kPermWrite};
  const sim::Rule rule_b{.code_start = receiver_entry->base,
                        .code_size = receiver_entry->size,
                        .data_start = *base,
                        .data_size = size,
                        .perms = sim::kPermRead | sim::kPermWrite};
  auto slot_a = driver_.configure(rule_a);
  if (!slot_a.is_ok()) {
    TYTAN_CLOG(machine_.log(), LogLevel::kWarn, "ipc") << "shm rule A rejected: "
                                      << slot_a.status().to_string();
    arena_.free(*base);
    reject(sender);
    return;
  }
  auto slot_b = driver_.configure(rule_b);
  if (!slot_b.is_ok()) {
    TYTAN_CLOG(machine_.log(), LogLevel::kWarn, "ipc") << "shm rule B rejected: "
                                      << slot_b.status().to_string();
    driver_.unconfigure(*slot_a);
    arena_.free(*base);
    reject(sender);
    return;
  }
  // The sender learns the window's base first: a grant whose sender cannot
  // be told is withdrawn before the receiver hears of it.
  if (!int_mux_.reply(sender, *base)) {
    driver_.unconfigure(*slot_b);
    driver_.unconfigure(*slot_a);
    arena_.free(*base);
    return;
  }
  // Tell the receiver where the window lives (async notification message);
  // a grant the receiver cannot be told about is withdrawn.
  Tcb* receiver = scheduler_.get(receiver_entry->handle);
  if (receiver != nullptr &&
      !write_mailbox(*receiver_entry, sender_entry->identity,
                     {0x53484D31u /* "SHM1" */, *base, size, 0})
           .is_ok()) {
    driver_.unconfigure(*slot_b);
    driver_.unconfigure(*slot_a);
    arena_.free(*base);
    reject(sender);
    return;
  }
  grants_.push_back({sender.handle, receiver_entry->handle, *base, size, *slot_a, *slot_b});
  machine_.obs().emit(obs::EventKind::kIpcShmGrant, sender.handle, *base, size);
  if (receiver != nullptr) {
    receiver->message_pending = true;
    if (receiver->state == rtos::TaskState::kBlocked &&
        receiver->block_reason == rtos::BlockReason::kMessage) {
      scheduler_.make_ready(receiver->handle);
    }
  }
  ++delivered_;
  kernel_.resume_specific(sender.handle);
}

Status IpcProxy::deliver(const TaskIdentity& sender_id, const TaskIdentity& receiver_id,
                         const std::array<std::uint32_t, 4>& message, bool sync) {
  if (fault::FaultEngine* engine = machine_.faults();
      engine != nullptr && engine->on_ipc_message()) {
    ++rejected_;
    ++dropped_;
    machine_.obs().emit(obs::EventKind::kFaultInject, -1,
                        static_cast<std::uint32_t>(fault::FaultClass::kIpcDrop));
    machine_.obs().emit(obs::EventKind::kIpcReject, -1);
    return make_error(Err::kUnavailable, "fault injection: ipc message dropped");
  }
  const RegistryEntry* receiver_entry = rtm_.find_by_identity(receiver_id);
  if (receiver_entry == nullptr) {
    return make_error(Err::kNotFound, "deliver: unknown receiver identity");
  }
  Tcb* receiver = scheduler_.get(receiver_entry->handle);
  if (receiver == nullptr) {
    return make_error(Err::kNotFound, "deliver: receiver task gone");
  }
  machine_.charge(machine_.costs().ipc_proxy_base);
  if (Status s = write_mailbox(*receiver_entry, sender_id, message); !s.is_ok()) {
    return s;
  }
  receiver->message_pending = true;
  if (receiver->state == rtos::TaskState::kBlocked &&
      receiver->block_reason == rtos::BlockReason::kMessage) {
    scheduler_.make_ready(receiver->handle);
  }
  ++delivered_;
  machine_.obs().emit(obs::EventKind::kIpcDeliver, receiver->handle,
                      0, sync ? 1u : 0u);
  if (sync && scheduler_.current() == nullptr) {
    return kernel_.activate_message(receiver_entry->handle);
  }
  return Status::ok();
}

Status IpcProxy::release_grant(std::uint32_t base) {
  for (std::size_t i = 0; i < grants_.size(); ++i) {
    if (grants_[i].base == base) {
      driver_.unconfigure(grants_[i].slot_a);
      driver_.unconfigure(grants_[i].slot_b);
      arena_.free(base);
      grants_.erase(grants_.begin() + static_cast<std::ptrdiff_t>(i));
      return Status::ok();
    }
  }
  return make_error(Err::kNotFound, "no grant at this base");
}

Status IpcProxy::state(snap::Io& io) {
  io.u64(stats_.proxy);
  io.u64(stats_.entry);
  io.u64(stats_.total);
  io.boolean(stats_.delivered);
  io.sequence(grants_, [&io](ShmGrant& grant) {
    io.i32(grant.a);
    io.i32(grant.b);
    io.u32(grant.base);
    io.u32(grant.size);
    io.usize(grant.slot_a);
    io.usize(grant.slot_b);
  });
  io.u64(delivered_);
  io.u64(rejected_);
  io.u64(dropped_);
  return Status::ok();
}

}  // namespace tytan::core
