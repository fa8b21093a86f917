// Randomized property tests over the allocator, the scheduler, the EA-MPU,
// and the crypto layer (deterministic seeds; invariants checked throughout).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "core/task_loader.h"
#include "crypto/seal.h"
#include "crypto/sha1.h"
#include "sim/eampu.h"
#include "rtos/scheduler.h"

namespace tytan {
namespace {

// ---------------------------------------------------------------------------
// Arena: random alloc/free sequences keep the accounting exact and never
// produce overlapping live blocks.
// ---------------------------------------------------------------------------

TEST(ArenaProperty, RandomAllocFreeNeverOverlapsAndNeverLeaks) {
  std::mt19937 rng(42);
  core::RamArena arena(0x10000, 0x20000);
  const std::uint32_t total = arena.free_bytes();
  std::map<std::uint32_t, std::uint32_t> live;  // base -> size (aligned)

  for (int step = 0; step < 2'000; ++step) {
    const bool do_alloc = live.empty() || (rng() % 2 == 0);
    if (do_alloc) {
      const std::uint32_t request = 16 + rng() % 2048;
      auto base = arena.alloc(request);
      if (base.is_ok()) {
        const std::uint32_t aligned = (request + 63u) & ~63u;
        // No overlap with any live block.
        for (const auto& [other_base, other_size] : live) {
          EXPECT_FALSE(ranges_overlap(*base, aligned, other_base, other_size))
              << "step " << step;
        }
        live[*base] = aligned;
      }
    } else {
      auto it = live.begin();
      std::advance(it, rng() % live.size());
      EXPECT_TRUE(arena.free(it->first).is_ok()) << "step " << step;
      live.erase(it);
    }
    // Accounting: free + live == total.
    std::uint32_t live_bytes = 0;
    for (const auto& [base, size] : live) {
      live_bytes += size;
    }
    ASSERT_EQ(arena.free_bytes() + live_bytes, total) << "step " << step;
  }
  for (const auto& [base, size] : live) {
    (void)size;
    EXPECT_TRUE(arena.free(base).is_ok());
  }
  EXPECT_EQ(arena.free_bytes(), total);
  EXPECT_EQ(arena.block_count(), 1u);  // fully coalesced at the end
}

TEST(ArenaProperty, DoubleFreeRejected) {
  core::RamArena arena(0x1000, 0x1000);
  auto a = arena.alloc(64);
  ASSERT_TRUE(a.is_ok());
  EXPECT_TRUE(arena.free(*a).is_ok());
  EXPECT_FALSE(arena.free(*a).is_ok());
}

// ---------------------------------------------------------------------------
// Scheduler: random operations never violate the structural invariants:
// at most one running task; ready tasks are exactly those in ready state;
// the picked task always has maximal priority.
// ---------------------------------------------------------------------------

TEST(SchedulerProperty, RandomOpsPreserveInvariants) {
  std::mt19937 rng(7);
  rtos::Scheduler sched;
  std::vector<rtos::TaskHandle> handles;

  auto check_invariants = [&] {
    // The picked candidate outranks every other ready task.
    const rtos::TaskHandle next = sched.pick_next();
    if (next != rtos::kNoTask) {
      const unsigned p = sched.get(next)->priority;
      for (const rtos::TaskHandle h : sched.handles()) {
        const rtos::Tcb* tcb = sched.get(h);
        if (tcb->state == rtos::TaskState::kReady) {
          ASSERT_LE(tcb->priority, std::max(p, tcb->priority));
          ASSERT_GE(p, tcb->priority);
        }
      }
    }
    // At most one running task, and it matches current_handle().
    int running = 0;
    for (const rtos::TaskHandle h : sched.handles()) {
      if (sched.get(h)->state == rtos::TaskState::kRunning) {
        ++running;
        ASSERT_EQ(sched.current_handle(), h);
      }
    }
    ASSERT_LE(running, 1);
  };

  for (int step = 0; step < 3'000; ++step) {
    switch (rng() % 8) {
      case 0: {
        auto h = sched.create({.name = "t" + std::to_string(step),
                               .priority = static_cast<unsigned>(rng() % rtos::kNumPriorities)});
        if (h.is_ok()) {
          sched.make_ready(*h);
          handles.push_back(*h);
        }
        break;
      }
      case 1:
        if (!handles.empty()) {
          const auto h = handles[rng() % handles.size()];
          if (sched.get(h) != nullptr) {
            sched.destroy(h);
          }
        }
        break;
      case 2: {
        const rtos::TaskHandle next = sched.pick_next();
        if (next != rtos::kNoTask && sched.current_handle() == rtos::kNoTask) {
          ASSERT_TRUE(sched.dispatch(next).is_ok());
        }
        break;
      }
      case 3:
        if (sched.current() != nullptr) {
          sched.preempt_current();
        }
        break;
      case 4:
        if (sched.current() != nullptr) {
          sched.delay_until(sched.current_handle(), sched.tick_count() + 1 + rng() % 5);
        }
        break;
      case 5:
        sched.tick();
        break;
      case 6:
        if (!handles.empty()) {
          const auto h = handles[rng() % handles.size()];
          if (sched.get(h) != nullptr) {
            sched.suspend(h);
          }
        }
        break;
      case 7:
        if (!handles.empty()) {
          const auto h = handles[rng() % handles.size()];
          const rtos::Tcb* tcb = sched.get(h);
          if (tcb != nullptr && tcb->state == rtos::TaskState::kSuspended) {
            sched.resume(h);
          }
        }
        break;
    }
    check_invariants();
  }
}

TEST(SchedulerProperty, DelayedTasksWakeExactlyOnTime) {
  rtos::Scheduler sched;
  std::vector<std::pair<rtos::TaskHandle, std::uint64_t>> wakes;
  std::mt19937 rng(3);
  for (int i = 0; i < 30; ++i) {
    auto h = sched.create({.name = "d" + std::to_string(i), .priority = 2});
    ASSERT_TRUE(h.is_ok());
    sched.make_ready(*h);
    const std::uint64_t wake = 1 + rng() % 50;
    ASSERT_TRUE(sched.delay_until(*h, wake).is_ok());
    wakes.emplace_back(*h, wake);
  }
  for (std::uint64_t tick = 1; tick <= 60; ++tick) {
    sched.tick();
    for (const auto& [h, wake] : wakes) {
      const rtos::Tcb* tcb = sched.get(h);
      if (tick >= wake) {
        EXPECT_EQ(tcb->state, rtos::TaskState::kReady) << "tick " << tick;
      } else {
        EXPECT_EQ(tcb->state, rtos::TaskState::kBlocked) << "tick " << tick;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// EA-MPU: random rule sets — an access is allowed iff the reference model
// (direct evaluation of the semantics) says so.
// ---------------------------------------------------------------------------

TEST(EaMpuProperty, MatchesReferenceModelOnRandomConfigurations) {
  std::mt19937 rng(99);
  for (int config = 0; config < 50; ++config) {
    sim::EaMpu mpu;
    std::vector<sim::Rule> rules;
    const std::size_t rule_count = 1 + rng() % 6;
    for (std::size_t i = 0; i < rule_count; ++i) {
      sim::Rule rule;
      rule.code_start = 0x40000 + (rng() % 8) * 0x1000;
      rule.code_size = 0x800;
      rule.data_start = 0x60000 + (rng() % 8) * 0x1000;
      rule.data_size = 0x800;
      rule.perms = static_cast<std::uint8_t>(1 + rng() % 3);  // R, W, or RW
      ASSERT_TRUE(mpu.write_slot(i, rule).is_ok());
      rules.push_back(rule);
    }
    for (int query = 0; query < 200; ++query) {
      const std::uint32_t ip = 0x40000 + rng() % 0x9000;
      const std::uint32_t addr = 0x5F000 + rng() % 0xA000;
      const auto access = (rng() % 2 == 0) ? sim::Access::kRead : sim::Access::kWrite;
      const std::uint8_t wanted =
          access == sim::Access::kRead ? sim::kPermRead : sim::kPermWrite;
      // Reference model: protected iff covered by any rule; allowed iff some
      // covering rule grants (no exec regions / background / os bits here).
      bool covered = false;
      bool granted = false;
      for (const sim::Rule& rule : rules) {
        if (addr >= rule.data_start && addr - rule.data_start < rule.data_size) {
          covered = true;
          if (ip >= rule.code_start && ip - rule.code_start < rule.code_size &&
              (rule.perms & wanted) != 0) {
            granted = true;
          }
        }
      }
      const bool expected = !covered || granted;
      EXPECT_EQ(mpu.allows(ip, addr, access), expected)
          << "config " << config << " ip=0x" << std::hex << ip << " addr=0x" << addr;
    }
  }
}

// ---------------------------------------------------------------------------
// Crypto properties.
// ---------------------------------------------------------------------------

TEST(CryptoProperty, Sha1ChunkingInvariance) {
  std::mt19937 rng(5);
  ByteVec data(3'000);
  for (auto& byte : data) {
    byte = static_cast<std::uint8_t>(rng());
  }
  const auto reference = crypto::Sha1::hash(data);
  for (const std::size_t chunk : {1ul, 7ul, 64ul, 65ul, 1000ul}) {
    crypto::Sha1 ctx;
    for (std::size_t i = 0; i < data.size(); i += chunk) {
      ctx.update(std::span(data).subspan(i, std::min(chunk, data.size() - i)));
    }
    EXPECT_EQ(ctx.finish(), reference) << "chunk " << chunk;
  }
}

TEST(CryptoProperty, SealRoundTripForRandomSizes) {
  std::mt19937 rng(11);
  crypto::Key128 key{};
  key[7] = 0x5a;
  for (int i = 0; i < 60; ++i) {
    ByteVec data(rng() % 600);
    for (auto& byte : data) {
      byte = static_cast<std::uint8_t>(rng());
    }
    const auto blob = crypto::seal(key, i + 1, data);
    auto back = crypto::unseal(key, blob);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(*back, data);
  }
}

TEST(CryptoProperty, SingleBitFlipsAlwaysDetected) {
  crypto::Key128 key{};
  const ByteVec data = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const auto blob = crypto::seal(key, 1, data);
  ByteVec wire = blob.serialize();
  std::mt19937 rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    ByteVec mutated = wire;
    mutated[rng() % mutated.size()] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    if (mutated == wire) {
      continue;
    }
    auto parsed = crypto::SealedBlob::deserialize(mutated);
    if (!parsed.is_ok()) {
      continue;  // structurally rejected — fine
    }
    EXPECT_FALSE(crypto::unseal(key, *parsed).is_ok()) << "trial " << trial;
  }
}

TEST(CryptoProperty, IdentityCollisionFreeOverGeneratedBinaries) {
  // 200 distinct tiny binaries -> 200 distinct 64-bit identities.
  std::set<std::array<std::uint8_t, 8>> seen;
  for (int i = 0; i < 200; ++i) {
    ByteVec image(32);
    store_le32(image.data(), static_cast<std::uint32_t>(i));
    const auto digest = crypto::Sha1::hash(image);
    std::array<std::uint8_t, 8> id{};
    std::copy(digest.begin(), digest.begin() + 8, id.begin());
    EXPECT_TRUE(seen.insert(id).second) << "collision at " << i;
  }
}

}  // namespace
}  // namespace tytan
