// Runtime task update (paper §8 future work, implemented in
// core/task_update): hitless replacement with storage migration.
#include <gtest/gtest.h>

#include "core/platform.h"
#include "narrow_rule.h"

namespace tytan {
namespace {

using core::Platform;

std::string versioned_task(unsigned version) {
  // Stores its version in sealed storage, prints it every activation.
  return R"(
    .secure
    .stack 256
    .entry main
main:
    movi r0, 4
    movi r1, )" + std::to_string('0' + version) + R"(
    int  0x21
loop:
    movi r0, 2
    movi r1, 2
    int  0x21
    movi r0, 4
    movi r1, )" + std::to_string('0' + version) + R"(
    int  0x21
    jmp  loop
)";
}

// A secure task with a mailbox: parks in wait-msg, prints message word 0.
constexpr std::string_view kReceiver = R"(
    .secure
    .stack 256
    .entry main
    .msg on_msg
main:
    movi r0, 8
    int  0x21
h:  jmp h
on_msg:
    li   r5, __tytan_mailbox
    ldw  r1, [r5+8]
    movi r0, 4
    int  0x21
    movi r0, 9
    int  0x21
h2: jmp h2
)";

TEST(Update, SynchronousSwapReplacesBinary) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto v1 = platform.load_task_source(versioned_task(1), {.name = "svc", .priority = 3});
  ASSERT_TRUE(v1.is_ok());
  platform.run_for(500'000);
  EXPECT_NE(platform.serial().output().find('1'), std::string::npos);

  auto v2 = platform.update_task(*v1, versioned_task(2), {.name = "svc-v2", .priority = 3});
  ASSERT_TRUE(v2.is_ok()) << v2.status().to_string();
  EXPECT_EQ(platform.scheduler().get(*v1), nullptr);  // v1 gone
  const rtos::Tcb* tcb = platform.scheduler().get(*v2);
  ASSERT_NE(tcb, nullptr);
  EXPECT_TRUE(tcb->measured);
  EXPECT_EQ(tcb->priority, 3u);  // inherits the slot's priority

  platform.serial().clear();
  platform.run_for(1'000'000);
  EXPECT_NE(platform.serial().output().find('2'), std::string::npos);
  EXPECT_EQ(platform.serial().output().find('1'), std::string::npos);
}

TEST(Update, IdentityChangesAcrossUpdate) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto v1 = platform.load_task_source(versioned_task(1), {.name = "svc", .priority = 3,
                                                          .auto_start = false});
  ASSERT_TRUE(v1.is_ok());
  const rtos::TaskIdentity id1 = platform.scheduler().get(*v1)->identity;
  auto v2 = platform.update_task(*v1, versioned_task(2), {.name = "svc2", .priority = 3});
  ASSERT_TRUE(v2.is_ok());
  EXPECT_NE(platform.scheduler().get(*v2)->identity, id1);
}

TEST(Update, StorageMigratesWithUpdate) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto v1 = platform.load_task_source(versioned_task(1), {.name = "svc", .priority = 3,
                                                          .auto_start = false});
  ASSERT_TRUE(v1.is_ok());
  const rtos::TaskIdentity id1 = platform.scheduler().get(*v1)->identity;
  const ByteVec state = {0xCA, 0xFE};
  ASSERT_TRUE(platform.secure_storage().store(id1, 7, state).is_ok());

  auto v2 = platform.update_task(*v1, versioned_task(2), {.name = "svc2", .priority = 3},
                                 {.migrate_storage = true});
  ASSERT_TRUE(v2.is_ok());
  const rtos::TaskIdentity id2 = platform.scheduler().get(*v2)->identity;
  auto migrated = platform.secure_storage().load(id2, 7);
  ASSERT_TRUE(migrated.is_ok()) << migrated.status().to_string();
  EXPECT_EQ(*migrated, state);
  // The old identity's blob is retired.
  EXPECT_FALSE(platform.secure_storage().load(id1, 7).is_ok());
}

TEST(Update, WithoutMigrationOldStateUnreachable) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto v1 = platform.load_task_source(versioned_task(1), {.name = "svc", .priority = 3,
                                                          .auto_start = false});
  ASSERT_TRUE(v1.is_ok());
  const rtos::TaskIdentity id1 = platform.scheduler().get(*v1)->identity;
  ASSERT_TRUE(platform.secure_storage().store(id1, 7, ByteVec{1}).is_ok());
  auto v2 = platform.update_task(*v1, versioned_task(2), {.name = "svc2", .priority = 3},
                                 {.migrate_storage = false});
  ASSERT_TRUE(v2.is_ok());
  EXPECT_FALSE(
      platform.secure_storage().load(platform.scheduler().get(*v2)->identity, 7).is_ok());
}

TEST(Update, AsyncUpdateKeepsOldVersionRunningDuringLoad) {
  Platform::Config config;
  config.tick_period = 32'000;
  Platform platform(config);
  ASSERT_TRUE(platform.boot().is_ok());
  auto v1 = platform.load_task_source(versioned_task(1), {.name = "svc", .priority = 5});
  ASSERT_TRUE(v1.is_ok());
  platform.run_for(200'000);

  // Large v2 so the load spans many periods.
  std::string v2_src = versioned_task(2) + "    .space 8000\n";
  auto object = isa::assemble(v2_src);
  ASSERT_TRUE(object.is_ok());
  auto v2 = platform.update_task_async(*v1, object.take(), {.name = "svc2", .priority = 5});
  ASSERT_TRUE(v2.is_ok()) << v2.status().to_string();
  EXPECT_TRUE(platform.updater().update_in_progress());

  // While loading, v1 still prints.
  const std::size_t before = platform.serial().output().size();
  platform.run_for(10 * 32'000);
  EXPECT_GT(platform.serial().output().size(), before);
  EXPECT_NE(platform.scheduler().get(*v1), nullptr);

  ASSERT_TRUE(platform.run_until([&] { return !platform.updater().update_in_progress(); },
                                 50'000'000));
  EXPECT_TRUE(platform.updater().last_swap_status().is_ok())
      << platform.updater().last_swap_status().to_string();
  // The hitless property quantified: the swap itself costs far less than the
  // load (downtime is the swap, not the ~0.5M-cycle load).
  EXPECT_GT(platform.updater().last_swap_cycles(), 0u);
  EXPECT_LT(platform.updater().last_swap_cycles(), 50'000u);
  EXPECT_EQ(platform.scheduler().get(*v1), nullptr);
  ASSERT_NE(platform.scheduler().get(*v2), nullptr);

  platform.serial().clear();
  platform.run_for(2'000'000);
  EXPECT_NE(platform.serial().output().find('2'), std::string::npos);
}

TEST(Update, PendingMailboxCarriedOver) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto v1 = platform.load_task_source(kReceiver, {.name = "recv", .priority = 3});
  ASSERT_TRUE(v1.is_ok());
  platform.run_for(300'000);  // park in wait-msg

  // Deliver a message but don't let the receiver run; then update.
  const rtos::Tcb* r = platform.scheduler().get(*v1);
  ASSERT_TRUE(platform.suspend_task(*v1).is_ok());
  ASSERT_TRUE(platform.ipc_proxy()
                  .deliver(rtos::TaskIdentity{}, r->identity, {'Q', 0, 0, 0}, false)
                  .is_ok());
  std::string v2_src(kReceiver);
  v2_src += "\n    .word 42\n";  // different binary
  auto v2 = platform.update_task(*v1, v2_src, {.name = "recv2", .priority = 3});
  ASSERT_TRUE(v2.is_ok()) << v2.status().to_string();

  // The new instance delivers the carried-over message.
  ASSERT_TRUE(
      platform.run_until([&] { return !platform.serial().output().empty(); }, 20'000'000));
  EXPECT_EQ(platform.serial().output(), "Q");
}

TEST(Update, FailedMailboxCarryOverKeepsOldVersion) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto v1 = platform.load_task_source(kReceiver, {.name = "recv", .priority = 3,
                                                  .auto_start = false});
  ASSERT_TRUE(v1.is_ok());
  const rtos::Tcb* r = platform.scheduler().get(*v1);
  ASSERT_TRUE(platform.ipc_proxy()
                  .deliver(rtos::TaskIdentity{}, r->identity, {'Q', 0, 0, 0}, false)
                  .is_ok());
  ASSERT_TRUE(r->message_pending);
  // The proxy identity that carries the message over may still read the old
  // mailbox but no longer write the replacement's.
  ASSERT_NO_FATAL_FAILURE(narrow_static_rule(platform, sim::kFwIpcProxy, /*background=*/true,
                                             r->region_base, r->region_size));
  const std::size_t tasks_before = platform.scheduler().task_count();
  std::string v2_src(kReceiver);
  v2_src += "\n    .word 42\n";
  auto v2 = platform.update_task(*v1, v2_src, {.name = "recv2", .priority = 3});
  ASSERT_FALSE(v2.is_ok()) << "the swap went ahead without the pending message";
  EXPECT_EQ(v2.status().code(), Err::kPermissionDenied);
  // Nothing was committed: the old version stays, with its message pending.
  ASSERT_EQ(platform.scheduler().get(*v1), r);
  EXPECT_TRUE(r->message_pending);
  EXPECT_EQ(platform.scheduler().task_count(), tasks_before);
}

/// Store a filler blob so that exactly `left` bytes of the storage arena
/// stay free (a blob of n data bytes takes 4 + 28 + n, and a store needs 8
/// bytes of slack past it).
void fill_arena(Platform& platform, std::uint32_t left) {
  core::SecureStorage& storage = platform.secure_storage();
  const std::uint32_t used = storage.bytes_used();
  ASSERT_GE(core::kStorageSize, used + left + 32);
  const ByteVec filler(core::kStorageSize - used - left - 32, 0x5A);
  ASSERT_TRUE(storage.store(rtos::TaskIdentity{0xF1}, 0, filler).is_ok());
  ASSERT_EQ(storage.bytes_used(), core::kStorageSize - left);
}

constexpr std::uint32_t kBlobBytes = 40;
/// Arena bytes one re-seal of a kBlobBytes blob needs free.
constexpr std::uint32_t kResealRoom = 28 + kBlobBytes + 8;

TEST(Update, FailedMigrationKeepsEveryOldBlob) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto v1 = platform.load_task_source(versioned_task(1), {.name = "svc", .priority = 3,
                                                          .auto_start = false});
  ASSERT_TRUE(v1.is_ok());
  const rtos::TaskIdentity id1 = platform.scheduler().get(*v1)->identity;
  core::SecureStorage& storage = platform.secure_storage();
  const ByteVec first(kBlobBytes, 0x11);
  const ByteVec second(kBlobBytes, 0x22);
  ASSERT_TRUE(storage.store(id1, 1, first).is_ok());
  ASSERT_TRUE(storage.store(id1, 2, second).is_ok());
  // Room for the first re-sealed blob, not for the second.
  ASSERT_NO_FATAL_FAILURE(fill_arena(platform, kResealRoom));

  auto v2 = platform.update_task(*v1, versioned_task(2), {.name = "svc2", .priority = 3},
                                 {.migrate_storage = true});
  ASSERT_FALSE(v2.is_ok());
  EXPECT_EQ(v2.status().code(), Err::kOutOfMemory);
  ASSERT_NE(platform.scheduler().get(*v1), nullptr);
  // The old task keeps both blobs, and the arena space the first re-seal
  // took is given back.
  auto one = storage.load(id1, 1);
  auto two = storage.load(id1, 2);
  ASSERT_TRUE(one.is_ok()) << one.status().to_string();
  ASSERT_TRUE(two.is_ok()) << two.status().to_string();
  EXPECT_EQ(*one, first);
  EXPECT_EQ(*two, second);
  EXPECT_EQ(storage.blob_count(), 3u);
  EXPECT_EQ(storage.bytes_used(), core::kStorageSize - kResealRoom);
}

TEST(Update, FailedUnloadAfterMigrationKeepsOldBlobs) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto v1 = platform.load_task_source(versioned_task(1), {.name = "svc", .priority = 3,
                                                          .auto_start = false});
  ASSERT_TRUE(v1.is_ok());
  const rtos::TaskIdentity id1 = platform.scheduler().get(*v1)->identity;
  const ByteVec state(kBlobBytes, 0x33);
  ASSERT_TRUE(platform.secure_storage().store(id1, 7, state).is_ok());
  // Room for the migration's re-seal, none for a second one back.
  ASSERT_NO_FATAL_FAILURE(fill_arena(platform, kResealRoom));
  // The RTM may still register the replacement in the registry slot after
  // v1's, but no longer rewrite v1's own: v1's unload fails after the
  // migration.
  const core::RegistryEntry* entry = platform.rtm().find_by_handle(*v1);
  ASSERT_NE(entry, nullptr);
  const std::uint32_t next_slot = entry->entry_addr + core::kRegistryEntrySize;
  ASSERT_NO_FATAL_FAILURE(narrow_static_rule(
      platform, sim::kFwRtm, /*background=*/false, next_slot,
      core::kRtmRegistryBase + core::kRtmRegistrySize - next_slot));

  auto v2 = platform.update_task(*v1, versioned_task(2), {.name = "svc2", .priority = 3},
                                 {.migrate_storage = true});
  ASSERT_FALSE(v2.is_ok()) << "v1's unload went through";
  ASSERT_NE(platform.scheduler().get(*v1), nullptr);
  auto back = platform.secure_storage().load(id1, 7);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(*back, state);
}

TEST(Update, ErrorsReported) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  // Unknown old handle.
  EXPECT_FALSE(platform.update_task(1234, versioned_task(1), {.name = "x"}).is_ok());
  // Secure -> normal kind change rejected.
  auto v1 = platform.load_task_source(versioned_task(1), {.name = "svc", .priority = 3,
                                                          .auto_start = false});
  ASSERT_TRUE(v1.is_ok());
  std::string normal = versioned_task(2);
  normal.erase(normal.find("    .secure\n"), 12);
  EXPECT_FALSE(platform.update_task(*v1, normal, {.name = "svc2"}).is_ok());
  // The failed update leaves the old version intact.
  EXPECT_NE(platform.scheduler().get(*v1), nullptr);
}

}  // namespace
}  // namespace tytan
