// Scheduler, queue, and software-timer logic (pure RTOS layer, no machine).
#include <gtest/gtest.h>

#include "rtos/queue.h"
#include "rtos/scheduler.h"
#include "rtos/timers.h"

namespace tytan::rtos {
namespace {

TaskHandle make_task(Scheduler& sched, const std::string& name, unsigned priority) {
  auto handle = sched.create({.name = name, .priority = priority});
  EXPECT_TRUE(handle.is_ok());
  sched.make_ready(*handle);
  return *handle;
}

TEST(Scheduler, HighestPriorityWins) {
  Scheduler sched;
  const TaskHandle low = make_task(sched, "low", 1);
  const TaskHandle high = make_task(sched, "high", 5);
  EXPECT_EQ(sched.pick_next(), high);
  ASSERT_TRUE(sched.dispatch(high).is_ok());
  EXPECT_EQ(sched.current_handle(), high);
  EXPECT_EQ(sched.pick_next(), low);
}

TEST(Scheduler, RoundRobinWithinPriority) {
  Scheduler sched;
  const TaskHandle a = make_task(sched, "a", 3);
  const TaskHandle b = make_task(sched, "b", 3);
  ASSERT_TRUE(sched.dispatch(sched.pick_next()).is_ok());
  EXPECT_EQ(sched.current_handle(), a);
  sched.preempt_current();  // a goes to the back
  ASSERT_TRUE(sched.dispatch(sched.pick_next()).is_ok());
  EXPECT_EQ(sched.current_handle(), b);
  sched.preempt_current();
  EXPECT_EQ(sched.pick_next(), a);
}

TEST(Scheduler, DelayUnblocksOnTick) {
  Scheduler sched;
  const TaskHandle t = make_task(sched, "t", 2);
  ASSERT_TRUE(sched.dispatch(t).is_ok());
  ASSERT_TRUE(sched.delay_until(t, sched.tick_count() + 3).is_ok());
  EXPECT_EQ(sched.get(t)->state, TaskState::kBlocked);
  EXPECT_EQ(sched.current_handle(), kNoTask);
  sched.tick();
  sched.tick();
  EXPECT_EQ(sched.get(t)->state, TaskState::kBlocked);
  sched.tick();
  EXPECT_EQ(sched.get(t)->state, TaskState::kReady);
}

TEST(Scheduler, TickReportsPreemptionNeed) {
  Scheduler sched;
  const TaskHandle low = make_task(sched, "low", 1);
  ASSERT_TRUE(sched.dispatch(low).is_ok());
  const TaskHandle high = make_task(sched, "high", 6);
  ASSERT_TRUE(sched.delay_until(high, sched.tick_count() + 1).is_ok());
  EXPECT_TRUE(sched.tick());  // high woke and outranks low
}

TEST(Scheduler, SuspendResume) {
  Scheduler sched;
  const TaskHandle t = make_task(sched, "t", 2);
  ASSERT_TRUE(sched.suspend(t).is_ok());
  EXPECT_EQ(sched.pick_next(), kNoTask);
  EXPECT_FALSE(sched.resume(t).is_ok() == false);  // resume succeeds
  EXPECT_EQ(sched.pick_next(), t);
  // Resuming a non-suspended task is an error.
  EXPECT_FALSE(sched.resume(t).is_ok());
}

TEST(Scheduler, DestroyRemovesFromReady) {
  Scheduler sched;
  const TaskHandle t = make_task(sched, "t", 2);
  ASSERT_TRUE(sched.destroy(t).is_ok());
  EXPECT_EQ(sched.pick_next(), kNoTask);
  EXPECT_EQ(sched.get(t), nullptr);
  EXPECT_FALSE(sched.destroy(t).is_ok());
}

TEST(Scheduler, HandleReuseAfterDeath) {
  Scheduler sched;
  const TaskHandle t = make_task(sched, "t", 2);
  ASSERT_TRUE(sched.destroy(t).is_ok());
  const TaskHandle u = make_task(sched, "u", 2);
  EXPECT_EQ(u, t);  // dead slot reused
  EXPECT_EQ(sched.get(u)->name, "u");
}

TEST(Scheduler, RejectsBadParams) {
  Scheduler sched;
  EXPECT_FALSE(sched.create({.name = "", .priority = 1}).is_ok());
  EXPECT_FALSE(sched.create({.name = "x", .priority = kNumPriorities}).is_ok());
}

TEST(Scheduler, HigherPriorityReady) {
  Scheduler sched;
  const TaskHandle low = make_task(sched, "low", 1);
  ASSERT_TRUE(sched.dispatch(low).is_ok());
  EXPECT_FALSE(sched.higher_priority_ready());
  make_task(sched, "high", 4);
  EXPECT_TRUE(sched.higher_priority_ready());
}

TEST(Queue, SendReceiveFifo) {
  QueueSet queues;
  auto q = queues.create(2);
  ASSERT_TRUE(q.is_ok());
  EXPECT_TRUE(queues.send(*q, {1, 2, 3, 4}).is_ok());
  EXPECT_TRUE(queues.send(*q, {5, 6, 7, 8}).is_ok());
  EXPECT_EQ(queues.send(*q, {9, 9, 9, 9}).code(), Err::kUnavailable);  // full
  auto item = queues.receive(*q);
  ASSERT_TRUE(item.is_ok());
  EXPECT_EQ((*item)[0], 1u);
  EXPECT_EQ(*queues.depth(*q), 1u);
}

TEST(Queue, EmptyReceiveFails) {
  QueueSet queues;
  auto q = queues.create(1);
  EXPECT_EQ(queues.receive(*q).status().code(), Err::kUnavailable);
}

// Queue syscalls never block, so a snapshot's per-queue waiter counts are
// always zero: one that lists a waiting task is corrupt input.
TEST(Queue, RestoreRefusesBlockedWaiters) {
  QueueSet queues;
  auto q = queues.create(2);
  ASSERT_TRUE(queues.send(*q, {1, 2, 3, 4}).is_ok());
  snap::Writer saved;
  snap::Io save(saved);
  ASSERT_TRUE(queues.state(save).is_ok());

  QueueSet copy;
  snap::Reader clean(saved.buffer());
  snap::Io load_clean(clean);
  ASSERT_TRUE(copy.state(load_clean).is_ok());
  ASSERT_TRUE(clean.finish("queues").is_ok());
  EXPECT_EQ(*copy.depth(*q), 1u);
  EXPECT_EQ((*copy.receive(*q))[0], 1u);

  // The walk ends with the queue's receive-waiter count (u32, LE): forge one
  // waiting task, handle 7.
  ByteVec forged = saved.buffer();
  forged[forged.size() - 4] = 1;
  append_le32(forged, 7);
  QueueSet restored;
  snap::Reader reader(forged);
  snap::Io load(reader);
  EXPECT_EQ(restored.state(load).code(), Err::kCorrupt);
}

TEST(Queue, DestroyInvalidatesHandle) {
  QueueSet queues;
  auto q = queues.create(1);
  ASSERT_TRUE(queues.destroy(*q).is_ok());
  EXPECT_FALSE(queues.send(*q, {}).is_ok());
}

TEST(Timers, OneShotFiresOnce) {
  TimerService timers;
  int fired = 0;
  ASSERT_TRUE(timers.create_oneshot(5, [&](TimerHandle) { ++fired; }).is_ok());
  EXPECT_EQ(timers.advance(4), 0u);
  EXPECT_EQ(timers.advance(5), 1u);
  EXPECT_EQ(timers.advance(100), 0u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(timers.active_count(), 0u);
}

TEST(Timers, PeriodicFiresRepeatedlyAndCatchesUp) {
  TimerService timers;
  int fired = 0;
  ASSERT_TRUE(timers.create_periodic(2, 3, [&](TimerHandle) { ++fired; }).is_ok());
  EXPECT_EQ(timers.advance(2), 1u);
  EXPECT_EQ(timers.advance(11), 3u);  // deadlines 5, 8, 11
  EXPECT_EQ(fired, 4);
}

TEST(Timers, CancelFromCallback) {
  TimerService timers;
  int fired = 0;
  auto handle = timers.create_periodic(1, 1, [&](TimerHandle h) {
    ++fired;
    timers.cancel(h);
  });
  ASSERT_TRUE(handle.is_ok());
  timers.advance(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(timers.active_count(), 0u);
}

TEST(Timers, CancelUnknownFails) {
  TimerService timers;
  EXPECT_FALSE(timers.cancel(3).is_ok());
}

}  // namespace
}  // namespace tytan::rtos
