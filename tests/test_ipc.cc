// Secure IPC: delivery, implicit sender authentication, mailbox protection,
// shared-memory grants (paper §3/§4).
#include <array>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/platform.h"
#include "narrow_rule.h"

namespace tytan {
namespace {

using core::Platform;

constexpr std::string_view kReceiver = R"(
    .secure
    .stack 256
    .entry main
    .msg on_msg
main:
    movi r0, 8            ; kSysWaitMsg: park until a message arrives
    int  0x21
hang:
    jmp  hang
on_msg:
    li   r5, __tytan_mailbox
    ldw  r1, [r5+8]       ; message word 0
    movi r0, 4            ; kSysPutchar
    int  0x21
    movi r0, 9            ; kSysMsgDone
    int  0x21
hang2:
    jmp  hang2
)";

/// Sender: loads id_R from its data section (provisioned by the test — the
/// paper leaves id_R provisioning to the task developer), sends one message,
/// then yields forever.  `op` selects sync (0) or async (1).
std::string sender_source(unsigned op, unsigned payload) {
  return R"(
    .secure
    .stack 256
    .entry main
main:
    li   r5, idr
    ldw  r1, [r5]
    ldw  r2, [r5+4]
    movi r0, )" + std::to_string(op) + R"(
    movi r3, )" + std::to_string(payload) + R"(
    movi r4, 0x22
    movi r5, 0x33
    movi r6, 0x44
    int  0x22
spin:
    movi r0, 1
    int  0x21
    jmp  spin
idr:
    .word 0, 0
)";
}

/// Provision the sender's `idr` words with the receiver's identity (host
/// plays the task developer / deployment tooling).
void provision_receiver_id(Platform& platform, rtos::TaskHandle sender,
                           rtos::TaskHandle receiver) {
  const rtos::Tcb* s = platform.scheduler().get(sender);
  const rtos::Tcb* r = platform.scheduler().get(receiver);
  ASSERT_NE(s, nullptr);
  ASSERT_NE(r, nullptr);
  auto object = isa::assemble(sender_source(1, 0));
  ASSERT_TRUE(object.is_ok());
  const std::uint32_t idr_addr = s->region_base + object->symbols.at("idr");
  platform.machine().memory().write32(idr_addr, load_le32(r->identity.data()));
  platform.machine().memory().write32(idr_addr + 4, load_le32(r->identity.data() + 4));
}

class IpcTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(IpcTest, MessageDeliveredWithAuthenticatedSender) {
  const unsigned op = GetParam();  // 0 = sync, 1 = async
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto receiver = platform.load_task_source(kReceiver, {.name = "receiver", .priority = 2});
  ASSERT_TRUE(receiver.is_ok());
  auto sender =
      platform.load_task_source(sender_source(op, 'M'), {.name = "sender", .priority = 2,
                                                         .auto_start = false});
  ASSERT_TRUE(sender.is_ok());
  provision_receiver_id(platform, *sender, *receiver);
  ASSERT_TRUE(platform.resume_task(*sender).is_ok());

  ASSERT_TRUE(
      platform.run_until([&] { return !platform.serial().output().empty(); }, 20'000'000))
      << "message never processed";
  EXPECT_EQ(platform.serial().output(), "M");
  EXPECT_EQ(platform.ipc_proxy().messages_delivered(), 1u);

  // The mailbox carries the *registry* identity of the sender — authenticated
  // by hardware origin, not sender-supplied.
  const rtos::Tcb* r = platform.scheduler().get(*receiver);
  const rtos::Tcb* s = platform.scheduler().get(*sender);
  ASSERT_NE(r, nullptr);
  ASSERT_NE(s, nullptr);
  auto id_lo = platform.machine().fw_read32(core::Rtm::kIdent, r->mailbox);
  auto id_hi = platform.machine().fw_read32(core::Rtm::kIdent, r->mailbox + 4);
  ASSERT_TRUE(id_lo.is_ok());
  ASSERT_TRUE(id_hi.is_ok());
  EXPECT_EQ(*id_lo, load_le32(s->identity.data()));
  EXPECT_EQ(*id_hi, load_le32(s->identity.data() + 4));
}

INSTANTIATE_TEST_SUITE_P(SyncAndAsync, IpcTest, ::testing::Values(0u, 1u));

TEST(Ipc, MailboxWriteDeniedPartWayFailsDelivery) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto receiver = platform.load_task_source(kReceiver, {.name = "receiver", .priority = 2,
                                                        .auto_start = false});
  ASSERT_TRUE(receiver.is_ok());
  const rtos::Tcb* r = platform.scheduler().get(*receiver);
  ASSERT_NE(r->mailbox, 0u);
  // The proxy keeps the mailbox's first word; the receiver's own rule
  // protects the rest of it.
  ASSERT_NO_FATAL_FAILURE(narrow_static_rule(platform, sim::kFwIpcProxy, /*background=*/true,
                                             sim::kRamBase, r->mailbox + 4 - sim::kRamBase));
  const Status s =
      platform.ipc_proxy().deliver(rtos::TaskIdentity{1, 2, 3, 4, 5, 6, 7, 8}, r->identity,
                                   {0x11, 0x22, 0x33, 0x44}, /*sync=*/false);
  EXPECT_EQ(s.code(), Err::kPermissionDenied) << "a partly written message was delivered";
  EXPECT_FALSE(r->message_pending);
  EXPECT_EQ(platform.ipc_proxy().messages_delivered(), 0u);
}

/// Start a sender of one async message to a parked receiver, step the
/// platform to the IPC proxy's entry (the Int Mux has saved the sender's
/// frame), and take the Int Mux's write access to RAM (`readable`) or all
/// its access to the sender's frame and above for that one proxy step.  The
/// sender must then be contained — killed with a stack fault, never resumed
/// — before the proxy touches the receiver's mailbox, and the receiver must
/// never take the message.
void expect_frame_fault_contains_sender(bool readable) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto receiver = platform.load_task_source(kReceiver, {.name = "receiver", .priority = 2});
  ASSERT_TRUE(receiver.is_ok());
  auto sender = platform.load_task_source(sender_source(1, 'M'),
                                          {.name = "sender", .priority = 2, .auto_start = false});
  ASSERT_TRUE(sender.is_ok());
  provision_receiver_id(platform, *sender, *receiver);
  ASSERT_TRUE(platform.resume_task(*sender).is_ok());
  sim::Machine& m = platform.machine();
  for (int i = 0; i < 1'000'000 && m.cpu().eip != core::IpcProxy::kIdent; ++i) {
    m.step();
  }
  ASSERT_EQ(m.cpu().eip, core::IpcProxy::kIdent);
  auto frame = platform.int_mux().shadow_sp(*sender);
  ASSERT_TRUE(frame.is_ok());
  // The mailbox record: sender identity (two words), then the message.
  const rtos::Tcb* r = platform.scheduler().get(*receiver);
  ASSERT_NE(r, nullptr);
  const auto mailbox = [&] {
    std::array<std::uint32_t, 6> words{};
    for (std::uint32_t i = 0; i < words.size(); ++i) {
      auto word = m.fw_read32(core::Rtm::kIdent, r->mailbox + 4 * i);
      EXPECT_TRUE(word.is_ok());
      words[i] = word.is_ok() ? *word : 0;
    }
    return words;
  };
  const auto mailbox_before = mailbox();
  ReplacedRule original;
  ASSERT_NO_FATAL_FAILURE(narrow_static_rule(
      platform, sim::kFwIntMux, /*background=*/true, sim::kRamBase,
      readable ? sim::kRamEnd - sim::kRamBase : *frame - sim::kRamBase,
      readable ? sim::kPermRead : sim::kPermRead | sim::kPermWrite, &original));
  m.step();  // the handler, the only step that meets the narrowed rule
  ASSERT_NE(m.cpu().eip, core::IpcProxy::kIdent);
  EXPECT_EQ(mailbox(), mailbox_before) << "the mailbox was written for a contained sender";
  ASSERT_NO_FATAL_FAILURE(replace_rule(platform, original.slot, original.rule));
  platform.run_for(2'000'000);
  EXPECT_EQ(platform.scheduler().get(*sender), nullptr) << "the sender resumed";
  EXPECT_EQ(platform.kernel().fault_kills(), 1u);
  EXPECT_EQ(m.last_fault().type, sim::FaultType::kStackFault);
  EXPECT_EQ(platform.ipc_proxy().messages_delivered(), 0u);
  EXPECT_EQ(platform.ipc_proxy().messages_rejected(), 0u);
  EXPECT_EQ(platform.serial().output(), "");
}

TEST(Ipc, UnreadableSenderFrameContainsSender) {
  // At the parent the request read as all zeros, was rejected, and the
  // sender resumed with a stale r0.
  expect_frame_fault_contains_sender(/*readable=*/false);
}

TEST(Ipc, UnwritableSenderFrameContainsSender) {
  // The request reads fine, but kSysOk cannot reach the sender's r0: the
  // sender must not resume, and its message must not overwrite a mailbox
  // whose earlier message may still be pending.
  expect_frame_fault_contains_sender(/*readable=*/true);
}

TEST(Ipc, UnknownReceiverRejected) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto sender = platform.load_task_source(sender_source(1, 'X'), {.name = "sender"});
  ASSERT_TRUE(sender.is_ok());
  // idr stays zero — no task has the all-zero identity.
  platform.run_for(3'000'000);
  EXPECT_EQ(platform.ipc_proxy().messages_delivered(), 0u);
  EXPECT_GE(platform.ipc_proxy().messages_rejected(), 1u);
}

TEST(Ipc, MailboxWritableOnlyByProxy) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto receiver = platform.load_task_source(kReceiver, {.name = "receiver"});
  ASSERT_TRUE(receiver.is_ok());
  const rtos::Tcb* r = platform.scheduler().get(*receiver);
  auto& machine = platform.machine();
  // The proxy can write the mailbox; the OS and other identities cannot.
  EXPECT_TRUE(machine.fw_write32(core::IpcProxy::kIdent, r->mailbox, 1).is_ok());
  EXPECT_EQ(machine.fw_write32(sim::kFwOsKernel, r->mailbox, 1).code(),
            Err::kPermissionDenied);
  EXPECT_EQ(machine.fw_write32(sim::kFwRemoteAttest, r->mailbox, 1).code(),
            Err::kPermissionDenied);
}

TEST(Ipc, HostDeliverRoute) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto receiver = platform.load_task_source(kReceiver, {.name = "receiver"});
  ASSERT_TRUE(receiver.is_ok());
  platform.run_for(200'000);  // let the receiver park in wait-msg

  const rtos::Tcb* r = platform.scheduler().get(*receiver);
  rtos::TaskIdentity service_id{};  // a platform service (all-zero identity)
  ASSERT_TRUE(platform.ipc_proxy()
                  .deliver(service_id, r->identity, {'H', 0, 0, 0}, /*sync=*/false)
                  .is_ok());
  ASSERT_TRUE(
      platform.run_until([&] { return !platform.serial().output().empty(); }, 10'000'000));
  EXPECT_EQ(platform.serial().output(), "H");
}

TEST(Ipc, SharedMemoryGrantConfiguresExactlyTwoRules) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto receiver = platform.load_task_source(kReceiver, {.name = "receiver"});
  auto sender = platform.load_task_source(sender_source(core::kIpcShmGrant, 256),
                                          {.name = "sender", .auto_start = false});
  ASSERT_TRUE(receiver.is_ok());
  ASSERT_TRUE(sender.is_ok());
  provision_receiver_id(platform, *sender, *receiver);
  ASSERT_TRUE(platform.resume_task(*sender).is_ok());

  const std::size_t slots_before = platform.mpu().slots_in_use();
  ASSERT_TRUE(
      platform.run_until([&] { return !platform.ipc_proxy().grants().empty(); }, 20'000'000));
  EXPECT_EQ(platform.mpu().slots_in_use(), slots_before + 2);

  const auto& grant = platform.ipc_proxy().grants().front();
  const rtos::Tcb* s = platform.scheduler().get(*sender);
  const rtos::Tcb* r = platform.scheduler().get(*receiver);
  auto& mpu = platform.mpu();
  // Both endpoints can use the window; the OS and third parties cannot.
  EXPECT_TRUE(mpu.allows(s->region_base + 4, grant.base, sim::Access::kWrite));
  EXPECT_TRUE(mpu.allows(r->region_base + 4, grant.base, sim::Access::kRead));
  EXPECT_FALSE(mpu.allows(sim::kFwOsKernel + 4, grant.base, sim::Access::kRead));

  // Releasing the grant frees both slots and the memory.
  ASSERT_TRUE(platform.ipc_proxy().release_grant(grant.base).is_ok());
  EXPECT_EQ(platform.mpu().slots_in_use(), slots_before);
}

// A grant's EA-MPU rules name code addresses, not a task: when the holder
// dies they must go with it, or the next task loaded at the same base
// inherits the dead task's access to the shared window.
TEST(Ipc, KilledGrantHolderLeavesNoWindowAccessBehind) {
  constexpr std::string_view kGrantThenFault = R"(
    .secure
    .stack 256
    .entry main
main:
    li   r5, idr
    ldw  r1, [r5]
    ldw  r2, [r5+4]
    movi r0, 2            ; kIpcShmGrant
    movi r3, 256
    int  0x22
    li   r5, victim
    ldw  r5, [r5]
    ldw  r6, [r5]         ; EA-MPU violation: the kernel kills the grant holder
hang:
    jmp  hang
idr:
    .word 0, 0
victim:
    .word 0
)";
  constexpr std::string_view kWindowReader = R"(
    .secure
    .stack 256
    .entry main
main:
    li   r5, window
    ldw  r5, [r5]
    ldw  r6, [r5]         ; read the dead holder's window
hang:
    jmp  hang
window:
    .word 0
)";
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto receiver = platform.load_task_source(kReceiver, {.name = "receiver"});
  auto holder =
      platform.load_task_source(kGrantThenFault, {.name = "holder", .auto_start = false});
  ASSERT_TRUE(receiver.is_ok());
  ASSERT_TRUE(holder.is_ok());
  auto holder_object = isa::assemble(kGrantThenFault);
  ASSERT_TRUE(holder_object.is_ok());
  const rtos::Tcb* h = platform.scheduler().get(*holder);
  const rtos::Tcb* r = platform.scheduler().get(*receiver);
  const std::uint32_t holder_base = h->region_base;
  auto& memory = platform.machine().memory();
  const std::uint32_t idr = holder_base + holder_object->symbols.at("idr");
  memory.write32(idr, load_le32(r->identity.data()));
  memory.write32(idr + 4, load_le32(r->identity.data() + 4));
  memory.write32(holder_base + holder_object->symbols.at("victim"), r->region_base);
  ASSERT_TRUE(platform.resume_task(*holder).is_ok());

  ASSERT_TRUE(
      platform.run_until([&] { return !platform.ipc_proxy().grants().empty(); }, 20'000'000));
  const std::uint32_t window = platform.ipc_proxy().grants().front().base;
  ASSERT_TRUE(platform.run_until(
      [&] { return platform.scheduler().get(*holder) == nullptr; }, 20'000'000));
  EXPECT_EQ(platform.kernel().fault_kills(), 1u);
  // The holder's rule went with it; the receiver keeps its protected window.
  ASSERT_EQ(platform.ipc_proxy().grants().size(), 1u);
  EXPECT_EQ(platform.ipc_proxy().grants().front().a, rtos::kNoTask);
  EXPECT_TRUE(platform.mpu().allows(r->region_base + 4, window, sim::Access::kRead));

  auto reader =
      platform.load_task_source(kWindowReader, {.name = "reader", .auto_start = false});
  ASSERT_TRUE(reader.is_ok());
  auto reader_object = isa::assemble(kWindowReader);
  ASSERT_TRUE(reader_object.is_ok());
  ASSERT_EQ(platform.scheduler().get(*reader)->region_base, holder_base);
  memory.write32(holder_base + reader_object->symbols.at("window"), window);
  ASSERT_TRUE(platform.resume_task(*reader).is_ok());
  platform.run_for(2'000'000);
  EXPECT_EQ(platform.kernel().fault_kills(), 2u);
  EXPECT_EQ(platform.machine().last_fault().type, sim::FaultType::kMpuData);
  EXPECT_EQ(platform.machine().last_fault().addr, window);
  EXPECT_EQ(platform.scheduler().get(*reader), nullptr);

  // The receiver's unload drops the last side: the window is wiped and freed.
  memory.write32(window, 0x5ec7e7);
  const std::size_t slots_before = platform.mpu().slots_in_use();
  ASSERT_TRUE(platform.unload_task(*receiver).is_ok());
  EXPECT_TRUE(platform.ipc_proxy().grants().empty());
  EXPECT_EQ(platform.mpu().slots_in_use(), slots_before - 2);  // its task rule + window rule
  EXPECT_EQ(memory.read32(window), 0u);
}

TEST(Ipc, StatsNearPaperNumbers) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto receiver = platform.load_task_source(kReceiver, {.name = "receiver", .priority = 2});
  auto sender = platform.load_task_source(sender_source(0, 'Z'),
                                          {.name = "sender", .priority = 2,
                                           .auto_start = false});
  ASSERT_TRUE(receiver.is_ok());
  ASSERT_TRUE(sender.is_ok());
  provision_receiver_id(platform, *sender, *receiver);
  ASSERT_TRUE(platform.resume_task(*sender).is_ok());
  ASSERT_TRUE(
      platform.run_until([&] { return platform.ipc_proxy().last_ipc().delivered; },
                         20'000'000));
  const auto& stats = platform.ipc_proxy().last_ipc();
  // Paper: proxy 1,208 cycles, receiver entry 116 — same order of magnitude.
  EXPECT_GT(stats.proxy, 500u);
  EXPECT_LT(stats.proxy, 3'000u);
  EXPECT_GE(stats.entry, platform.machine().costs().ipc_receiver_entry);
}


TEST(Ipc, NormalSenderIsUnauthenticated) {
  // A normal task may send, but it has no RTM identity: the proxy writes the
  // all-zero sender id, so the receiver can tell the request is anonymous.
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto receiver = platform.load_task_source(kReceiver, {.name = "receiver", .priority = 2});
  ASSERT_TRUE(receiver.is_ok());
  std::string normal_sender = sender_source(1, 'U');
  normal_sender.erase(normal_sender.find("    .secure\n"), 12);
  auto sender = platform.load_task_source(normal_sender, {.name = "anon", .priority = 2,
                                                          .auto_start = false});
  ASSERT_TRUE(sender.is_ok()) << sender.status().to_string();
  // Provision id_R (layout differs from the secure variant: no prologue).
  const rtos::Tcb* s = platform.scheduler().get(*sender);
  const rtos::Tcb* r = platform.scheduler().get(*receiver);
  auto probe = isa::assemble(normal_sender);
  const std::uint32_t idr = s->region_base + probe->symbols.at("idr");
  platform.machine().memory().write32(idr, load_le32(r->identity.data()));
  platform.machine().memory().write32(idr + 4, load_le32(r->identity.data() + 4));
  ASSERT_TRUE(platform.resume_task(*sender).is_ok());

  ASSERT_TRUE(
      platform.run_until([&] { return !platform.serial().output().empty(); }, 20'000'000));
  EXPECT_EQ(platform.serial().output(), "U");
  auto id_lo = platform.machine().fw_read32(core::Rtm::kIdent, r->mailbox);
  auto id_hi = platform.machine().fw_read32(core::Rtm::kIdent, r->mailbox + 4);
  ASSERT_TRUE(id_lo.is_ok());
  EXPECT_EQ(*id_lo, 0u);  // anonymous
  EXPECT_EQ(*id_hi, 0u);
}

TEST(Ipc, SenderCannotForgeItsIdentity) {
  // Even if the sender loads a victim identity into its registers, the proxy
  // derives id_S from the hardware interrupt origin — the mailbox shows the
  // sender's true identity, not anything it supplied.
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto receiver = platform.load_task_source(kReceiver, {.name = "receiver", .priority = 2});
  ASSERT_TRUE(receiver.is_ok());
  // The ABI has no "claimed sender id" field at all — which IS the defense:
  // the only sender identity that exists is the proxy-derived one.  Verify
  // that the mailbox identity matches the registry entry for the sender's
  // code region.
  auto sender = platform.load_task_source(sender_source(1, 'F'),
                                          {.name = "forger", .priority = 2,
                                           .auto_start = false});
  ASSERT_TRUE(sender.is_ok());
  provision_receiver_id(platform, *sender, *receiver);
  ASSERT_TRUE(platform.resume_task(*sender).is_ok());
  ASSERT_TRUE(
      platform.run_until([&] { return !platform.serial().output().empty(); }, 20'000'000));
  const rtos::Tcb* r = platform.scheduler().get(*receiver);
  const core::RegistryEntry* truth = platform.rtm().find_by_handle(*sender);
  ASSERT_NE(truth, nullptr);
  auto id_lo = platform.machine().fw_read32(core::Rtm::kIdent, r->mailbox);
  ASSERT_TRUE(id_lo.is_ok());
  EXPECT_EQ(*id_lo, load_le32(truth->identity.data()));
}

}  // namespace
}  // namespace tytan
