// Fault injection & graceful degradation (src/fault): plan grammar, engine
// determinism, and the negative path for every fault class — each injection
// fires exactly once (deterministically) and each recovery restores a
// verifying device.  Also pins the storage accounting fixes that ride along:
// a failed store burns no seal nonce and charges no cycles, and a re-stored
// slot invalidates the superseded blob.
#include <gtest/gtest.h>

#include "core/platform.h"
#include "fault/fault.h"
#include "fleet/verifier_workload.h"
#include "obs/telemetry.h"

namespace tytan {
namespace {

using core::Platform;

fault::FaultPlan plan_of(const char* text) {
  auto plan = fault::FaultPlan::parse(text);
  EXPECT_TRUE(plan.is_ok()) << plan.status().to_string();
  return plan.is_ok() ? plan.take() : fault::FaultPlan{};
}

rtos::TaskIdentity make_id(std::uint8_t seed) {
  rtos::TaskIdentity id{};
  id.fill(seed);
  return id;
}

constexpr std::string_view kSecureSpinner = R"(
    .secure
    .stack 256
    .entry main
main:
    addi r6, 1
    movi r0, 2          ; kSysDelay
    movi r1, 3
    int  0x21
    jmp  main
)";

constexpr std::string_view kReceiver = R"(
    .secure
    .stack 256
    .entry main
    .msg on_msg
main:
    movi r0, 8            ; kSysWaitMsg
    int  0x21
hang:
    jmp  hang
on_msg:
    li   r5, __tytan_mailbox
    ldw  r1, [r5+8]
    movi r0, 4            ; kSysPutchar
    int  0x21
    movi r0, 9            ; kSysMsgDone
    int  0x21
hang2:
    jmp  hang2
)";

// ----------------------------------------------------------- plan grammar

TEST(FaultPlan, ParsesEveryClass) {
  const fault::FaultPlan plan =
      plan_of("tbf-bitflip@load:task2; storage-corrupt@cycle=10000:slot3; "
              "nonce-replay@attest#2; ipc-drop:pct=5; task-stall:sensor");
  ASSERT_EQ(plan.specs.size(), 5u);

  EXPECT_EQ(plan.specs[0].cls, fault::FaultClass::kTbfBitflip);
  EXPECT_EQ(plan.specs[0].target, "task2");
  EXPECT_EQ(plan.specs[0].max_fires, 1u);

  EXPECT_EQ(plan.specs[1].cls, fault::FaultClass::kStorageCorrupt);
  EXPECT_TRUE(plan.specs[1].has_slot);
  EXPECT_EQ(plan.specs[1].slot, 3u);
  EXPECT_EQ(plan.specs[1].at_cycle, 10'000u);

  EXPECT_EQ(plan.specs[2].cls, fault::FaultClass::kNonceReplay);
  EXPECT_EQ(plan.specs[2].at_count, 2u);

  EXPECT_EQ(plan.specs[3].cls, fault::FaultClass::kIpcDrop);
  EXPECT_EQ(plan.specs[3].pct, 5u);
  EXPECT_EQ(plan.specs[3].max_fires, 0u);  // rate-based: unlimited by default

  EXPECT_EQ(plan.specs[4].cls, fault::FaultClass::kTaskStall);
  EXPECT_EQ(plan.specs[4].target, "sensor");
}

TEST(FaultPlan, ParsesParameters) {
  const fault::FaultPlan capped = plan_of("ipc-drop:pct=100,count=2");
  ASSERT_EQ(capped.specs.size(), 1u);
  EXPECT_EQ(capped.specs[0].pct, 100u);
  EXPECT_EQ(capped.specs[0].max_fires, 2u);

  const fault::FaultPlan pinned = plan_of("tbf-bitflip@load#3:boot,bit=17");
  ASSERT_EQ(pinned.specs.size(), 1u);
  EXPECT_EQ(pinned.specs[0].at_count, 3u);
  EXPECT_EQ(pinned.specs[0].bit, 17);

  // nonce-replay with no trigger defaults to the first attestation.
  EXPECT_EQ(plan_of("nonce-replay").specs[0].at_count, 1u);
}

TEST(FaultPlan, RejectsGarbage) {
  EXPECT_FALSE(fault::FaultPlan::parse("").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("cosmic-ray:everywhere").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("tbf-bitflip@attest#1").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("nonce-replay@load").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("nonce-replay:task2").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("storage-corrupt:banana").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("storage-corrupt").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("ipc-drop").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("ipc-drop:pct=101").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("ipc-drop:pct=5,burst=3").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("task-stall").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("task-stall@cycle=oops:sensor").is_ok());
  // The error names the offending clause.
  auto bad = fault::FaultPlan::parse("task-stall:sensor; frobnicate");
  ASSERT_FALSE(bad.is_ok());
  EXPECT_NE(bad.status().to_string().find("frobnicate"), std::string::npos);
}

TEST(FaultPlan, ToStringReparses) {
  const fault::FaultPlan plan =
      plan_of("tbf-bitflip@load#2:boot,bit=9; storage-corrupt@cycle=500:slot1; "
              "ipc-drop:pct=50,count=4");
  for (const fault::FaultSpec& spec : plan.specs) {
    const fault::FaultPlan again = plan_of(spec.to_string().c_str());
    ASSERT_EQ(again.specs.size(), 1u) << spec.to_string();
    EXPECT_EQ(again.specs[0].cls, spec.cls);
    EXPECT_EQ(again.specs[0].target, spec.target);
    EXPECT_EQ(again.specs[0].slot, spec.slot);
    EXPECT_EQ(again.specs[0].at_cycle, spec.at_cycle);
    EXPECT_EQ(again.specs[0].at_count, spec.at_count);
    EXPECT_EQ(again.specs[0].pct, spec.pct);
    EXPECT_EQ(again.specs[0].max_fires, spec.max_fires);
    EXPECT_EQ(again.specs[0].bit, spec.bit);
  }
}

// ------------------------------------------------------- engine determinism

TEST(FaultEngine, SeededDecisionsAreReproducible) {
  fault::FaultPlan plan = plan_of("tbf-bitflip:victim");
  plan.seed = 1234;
  fault::FaultEngine a(plan);
  fault::FaultEngine b(plan);
  const std::int64_t bit_a = a.on_load("victim", 4096);
  const std::int64_t bit_b = b.on_load("victim", 4096);
  ASSERT_GE(bit_a, 0);
  EXPECT_EQ(bit_a, bit_b);
  EXPECT_LT(bit_a, 4096 * 8);
}

TEST(FaultEngine, EveryClassFiresExactlyOnce) {
  fault::FaultEngine engine(
      plan_of("tbf-bitflip:v; storage-corrupt:slot3; nonce-replay@attest#1; "
              "ipc-drop:pct=100,count=1; task-stall:v"));
  EXPECT_GE(engine.on_load("v", 256), 0);
  EXPECT_EQ(engine.on_load("v", 256), -1);  // spec exhausted
  EXPECT_EQ(engine.on_load("other", 256), -1);

  EXPECT_GE(engine.on_storage_access(3, 0, 64), 0);
  EXPECT_EQ(engine.on_storage_access(3, 0, 64), -1);
  EXPECT_EQ(engine.on_storage_access(4, 0, 64), -1);  // wrong slot

  EXPECT_TRUE(engine.on_attest(1));
  EXPECT_FALSE(engine.on_attest(1));
  EXPECT_FALSE(engine.on_attest(2));

  EXPECT_TRUE(engine.on_ipc_message());
  EXPECT_FALSE(engine.on_ipc_message());  // count=1 cap

  EXPECT_TRUE(engine.on_task_dispatch("v", 100));
  EXPECT_FALSE(engine.on_task_dispatch("v", 200));

  EXPECT_EQ(engine.injected_total(), 5u);
  for (std::size_t c = 0;
       c < static_cast<std::size_t>(fault::FaultClass::kNumClasses); ++c) {
    EXPECT_EQ(engine.injected(static_cast<fault::FaultClass>(c)), 1u);
  }
}

TEST(FaultEngine, TriggersGateFiring) {
  fault::FaultEngine engine(
      plan_of("tbf-bitflip@load#2; storage-corrupt@cycle=5000:slot0"));
  EXPECT_EQ(engine.on_load("a", 128), -1);  // load #1: not yet
  EXPECT_GE(engine.on_load("b", 128), 0);   // load #2 fires (any task)
  EXPECT_EQ(engine.on_storage_access(0, 4999, 64), -1);  // before the cycle
  EXPECT_GE(engine.on_storage_access(0, 5000, 64), 0);
}

// ---------------------------------------- injection + recovery, per class

TEST(FaultInjection, BitflipQuarantinesThenCleanReloadRecovers) {
  // Measure the golden identity on a pristine platform first.
  rtos::TaskIdentity golden{};
  {
    Platform pristine;
    ASSERT_TRUE(pristine.boot().is_ok());
    auto task = pristine.load_task_source(kSecureSpinner, {.name = "victim"});
    ASSERT_TRUE(task.is_ok()) << task.status().to_string();
    golden = pristine.scheduler().get(*task)->identity;
  }

  Platform::Config config;
  config.fault_plan = plan_of("tbf-bitflip@load:victim");
  Platform platform(config);
  ASSERT_TRUE(platform.boot().is_ok());

  core::LoadParams params{.name = "victim"};
  params.expected_identity = golden;
  auto corrupt = platform.load_task_source(kSecureSpinner, params);
  ASSERT_FALSE(corrupt.is_ok());
  EXPECT_EQ(corrupt.status().code(), Err::kCorrupt);
  ASSERT_EQ(platform.loader().quarantine().size(), 1u);
  EXPECT_EQ(platform.loader().quarantine()[0].name, "victim");
  EXPECT_NE(platform.loader().quarantine()[0].measured, golden);

  // The spec fired; a clean reload passes the golden gate — recovery.
  auto clean = platform.load_task_source(kSecureSpinner, params);
  ASSERT_TRUE(clean.is_ok()) << clean.status().to_string();
  EXPECT_EQ(platform.scheduler().get(*clean)->identity, golden);

  const fault::FaultEngine* engine = platform.fault_engine();
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->injected(fault::FaultClass::kTbfBitflip), 1u);
  EXPECT_EQ(engine->recovered(fault::FaultClass::kTbfBitflip), 1u);
}

TEST(FaultInjection, StorageCorruptPoisonsThenReStoreRecovers) {
  Platform::Config config;
  config.fault_plan = plan_of("storage-corrupt:slot3");
  Platform platform(config);
  ASSERT_TRUE(platform.boot().is_ok());
  auto& storage = platform.secure_storage();
  const rtos::TaskIdentity id = make_id(0x42);
  const ByteVec data(48, 0xAB);
  ASSERT_TRUE(storage.store(id, 3, data).is_ok());

  // First load hits the injected bit flip: typed kCorrupt, blob poisoned.
  auto bad = storage.load(id, 3);
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), Err::kCorrupt);
  EXPECT_EQ(storage.poisoned_count(), 1u);

  // Later loads fail fast on the poison mark (no second unseal attempt).
  auto again = storage.load(id, 3);
  ASSERT_FALSE(again.is_ok());
  EXPECT_EQ(again.status().code(), Err::kCorrupt);
  EXPECT_NE(again.status().to_string().find("poisoned"), std::string::npos);

  // A superseding store is the recovery path.
  ASSERT_TRUE(storage.store(id, 3, data).is_ok());
  EXPECT_EQ(storage.poisoned_count(), 0u);
  auto good = storage.load(id, 3);
  ASSERT_TRUE(good.is_ok()) << good.status().to_string();
  EXPECT_EQ(*good, data);

  const fault::FaultEngine* engine = platform.fault_engine();
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->injected(fault::FaultClass::kStorageCorrupt), 1u);
  EXPECT_EQ(engine->recovered(fault::FaultClass::kStorageCorrupt), 1u);
  // Other slots were untouched by the slot-targeted clause.
  ASSERT_TRUE(storage.store(id, 4, data).is_ok());
  EXPECT_TRUE(storage.load(id, 4).is_ok());
}

TEST(FaultInjection, IpcDropReturnsTypedErrorThenDelivers) {
  Platform::Config config;
  config.fault_plan = plan_of("ipc-drop:pct=100,count=1");
  Platform platform(config);
  ASSERT_TRUE(platform.boot().is_ok());
  auto receiver = platform.load_task_source(kReceiver, {.name = "receiver"});
  ASSERT_TRUE(receiver.is_ok());
  platform.run_for(200'000);  // park the receiver in wait-msg

  const rtos::Tcb* r = platform.scheduler().get(*receiver);
  const rtos::TaskIdentity service_id{};
  Status dropped =
      platform.ipc_proxy().deliver(service_id, r->identity, {'H', 0, 0, 0}, false);
  ASSERT_FALSE(dropped.is_ok());
  EXPECT_EQ(dropped.code(), Err::kUnavailable);
  EXPECT_EQ(platform.ipc_proxy().messages_dropped(), 1u);
  EXPECT_EQ(platform.ipc_proxy().messages_delivered(), 0u);

  // The drop cap is exhausted: the retry goes through end-to-end.
  ASSERT_TRUE(platform.ipc_proxy()
                  .deliver(service_id, r->identity, {'H', 0, 0, 0}, false)
                  .is_ok());
  ASSERT_TRUE(platform.run_until([&] { return !platform.serial().output().empty(); },
                                 10'000'000));
  EXPECT_EQ(platform.serial().output(), "H");
  EXPECT_EQ(platform.fault_engine()->injected(fault::FaultClass::kIpcDrop), 1u);
}

TEST(FaultInjection, TaskStallIsRestartedByWatchdog) {
  Platform::Config config;
  config.fault_plan = plan_of("task-stall:spinner");
  Platform platform(config);
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(kSecureSpinner, {.name = "spinner"});
  ASSERT_TRUE(task.is_ok());
  platform.run_for(2'000'000);

  const fault::FaultEngine* engine = platform.fault_engine();
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->injected(fault::FaultClass::kTaskStall), 1u);
  EXPECT_EQ(engine->recovered(fault::FaultClass::kTaskStall), 1u);
  EXPECT_EQ(platform.kernel().watchdog_restarts(), 1u);

  // The task came back: not stalled, restart accounted, still making progress.
  const rtos::Tcb* tcb = platform.scheduler().get(*task);
  ASSERT_NE(tcb, nullptr);
  EXPECT_FALSE(tcb->stalled);
  EXPECT_EQ(tcb->watchdog_restarts, 1u);
  EXPECT_GT(tcb->activations, 1u);
}

TEST(FaultInjection, NonceReplayIsRetriedWithBackoff) {
  fleet::FleetConfig config;
  config.device_count = 2;
  config.threads = 2;
  config.base.fault_plan = plan_of("nonce-replay@attest#2");
  config.fault_plan_device = 1;
  config.attest_retries = 2;
  fleet::Fleet fleet(config);
  ASSERT_TRUE(fleet.bring_up().is_ok());
  ASSERT_TRUE(fleet.deploy(fleet::default_task_source(), "fleet-fw", 1).is_ok());
  fleet.run(200'000);

  // Sweep 1 verifies normally; sweep 2 replays device 1's consumed nonce —
  // the verifier's single-use ledger rejects it — and the bounded-backoff
  // retry restores a verifying device.
  EXPECT_EQ(fleet.attest_all("fleet-fw"), 2u);
  EXPECT_EQ(fleet.attest_all("fleet-fw"), 2u);

  fleet::FleetDevice& victim = fleet.device(1);
  EXPECT_EQ(victim.attest_failed(), 1u);
  EXPECT_EQ(victim.attest_verified(), 2u);
  EXPECT_EQ(victim.attest_recoveries(), 1u);
  const fault::FaultEngine* engine = victim.platform().fault_engine();
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->injected(fault::FaultClass::kNonceReplay), 1u);
  EXPECT_EQ(engine->recovered(fault::FaultClass::kNonceReplay), 1u);
  // The healthy control device never failed.
  EXPECT_EQ(fleet.device(0).attest_failed(), 0u);
  EXPECT_EQ(fleet.device(0).platform().fault_engine(), nullptr);
}

TEST(FleetFault, DeployQuarantineRetriesFromPristineImage) {
  fleet::FleetConfig config;
  config.device_count = 3;
  config.threads = 3;
  config.base.fault_plan = plan_of("tbf-bitflip@load:fleet-fw");
  config.fault_plan_device = 2;
  fleet::Fleet fleet(config);
  ASSERT_TRUE(fleet.bring_up().is_ok());
  ASSERT_TRUE(fleet.deploy(fleet::default_task_source(), "fleet-fw", 1).is_ok());
  fleet.run(200'000);
  EXPECT_EQ(fleet.attest_all("fleet-fw"), 3u);  // victim recovered, all verify

  EXPECT_EQ(fleet.device(2).quarantines(), 1u);
  EXPECT_EQ(fleet.device(0).quarantines(), 0u);
  const fault::FaultEngine* engine = fleet.device(2).platform().fault_engine();
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->injected(fault::FaultClass::kTbfBitflip), 1u);
  EXPECT_EQ(engine->recovered(fault::FaultClass::kTbfBitflip), 1u);
  EXPECT_EQ(fleet.device(2).platform().loader().quarantine().size(), 1u);
}

// --------------------------------------------------- fleet determinism

std::string faulted_fleet_jsonl(std::size_t threads) {
  fleet::FleetConfig config;
  config.device_count = 4;
  config.threads = threads;
  config.telemetry.enabled = true;
  config.base.fault_plan = plan_of("task-stall:fleet-fw; nonce-replay@attest#2");
  config.fault_plan_device = 1;
  config.attest_retries = 2;
  fleet::Fleet fleet(config);
  EXPECT_TRUE(fleet.bring_up().is_ok());
  EXPECT_TRUE(fleet.deploy(fleet::default_task_source(), "fleet-fw", 1).is_ok());
  fleet.run(400'000);
  EXPECT_EQ(fleet.attest_all("fleet-fw"), 4u);
  EXPECT_EQ(fleet.attest_all("fleet-fw"), 4u);
  return fleet.telemetry().to_jsonl();
}

TEST(FleetFault, TelemetryByteIdenticalAcrossThreadCounts) {
  const std::string serial = faulted_fleet_jsonl(1);
  const std::string threaded = faulted_fleet_jsonl(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded);
  // The stream carries the injection counters for the victim device.
  EXPECT_NE(serial.find("\"faults_injected\":"), std::string::npos);
  EXPECT_NE(serial.find("\"watchdog_restarts\":1"), std::string::npos);
}

// ------------------------------------------- storage accounting satellites

TEST(StorageAccounting, FailedStoreBurnsNoNonceAndChargesNoCycles) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto& storage = platform.secure_storage();
  const rtos::TaskIdentity id = make_id(0x11);
  ASSERT_TRUE(storage.store(id, 0, ByteVec{1, 2, 3}).is_ok());
  const std::uint64_t nonces_before = storage.nonces_used();
  const std::uint64_t cycles_before = platform.machine().cycles();
  const std::uint32_t bytes_before = storage.bytes_used();

  // Larger than the whole storage area: rejected before any consumption.
  const ByteVec huge(core::kStorageSize, 0xEE);
  Status full = storage.store(id, 1, huge);
  ASSERT_FALSE(full.is_ok());
  EXPECT_EQ(full.code(), Err::kOutOfMemory);
  EXPECT_EQ(storage.nonces_used(), nonces_before);
  EXPECT_EQ(platform.machine().cycles(), cycles_before);
  EXPECT_EQ(storage.bytes_used(), bytes_before);
  EXPECT_EQ(storage.blob_count(), 1u);

  // The sequence of nonces visible in stored blobs stays gapless: a store
  // right after the failure reuses the nonce the failed store never burned.
  ASSERT_TRUE(storage.store(id, 1, ByteVec{4, 5}).is_ok());
  EXPECT_EQ(storage.nonces_used(), nonces_before + 1);
}

TEST(StorageAccounting, ReStoreInvalidatesOldBlobAndWins) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto& storage = platform.secure_storage();
  const rtos::TaskIdentity id = make_id(0x22);
  const ByteVec first(32, 0x01);
  const ByteVec second(40, 0x02);

  ASSERT_TRUE(storage.store(id, 5, first).is_ok());
  const std::uint32_t after_first = storage.bytes_used();
  ASSERT_TRUE(storage.store(id, 5, second).is_ok());

  // Exactly one valid blob for the slot; the load returns the new data.
  EXPECT_EQ(storage.blob_count(), 1u);
  auto back = storage.load(id, 5);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(*back, second);
  // The area is append-only (flash-like): the superseded blob still occupies
  // space, it is just no longer reachable.
  EXPECT_GT(storage.bytes_used(), after_first);
  EXPECT_EQ(storage.nonces_used(), 2u);
}

}  // namespace
}  // namespace tytan
