// Tests for the two-layer process implementation: event channels, scheduling,
// blocking/wakeup, dedicated virtual processors, and the two interrupt
// strategies.

#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "src/proc/traffic_controller.h"

namespace multics {
namespace {

Principal TestUser() { return Principal{"Tester", "Proj", "a"}; }

std::unique_ptr<Task> CountingTask(int* counter, int steps) {
  return std::make_unique<FnTask>([counter, steps](TaskContext& ctx) {
    ctx.Charge(100);
    if (++*counter >= steps) {
      return TaskState::kDone;
    }
    return TaskState::kReady;
  });
}

// --- EventChannelTable ------------------------------------------------------------

TEST(EventChannelTest, CreateWakeupReceive) {
  EventChannelTable table;
  ChannelId chan = table.Create(/*owner=*/1, /*guard_uid=*/42);
  EXPECT_TRUE(table.Exists(chan));
  EXPECT_EQ(table.OwnerOf(chan).value(), 1u);
  EXPECT_EQ(table.GuardOf(chan).value(), 42u);

  auto waiter = table.Wakeup(chan, EventMessage{7, 2});
  ASSERT_TRUE(waiter.ok());
  EXPECT_EQ(waiter.value(), kNoProcess);  // Nobody was waiting.

  auto msg = table.TryReceive(chan);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->data, 7u);
  EXPECT_EQ(msg->sender, 2u);
  EXPECT_EQ(table.TryReceive(chan).status(), Status::kNotFound);
}

TEST(EventChannelTest, WakeupReturnsWaiter) {
  EventChannelTable table;
  ChannelId chan = table.Create(1);
  ASSERT_EQ(table.SetWaiter(chan, 33), Status::kOk);
  auto waiter = table.Wakeup(chan, EventMessage{1, 1});
  ASSERT_TRUE(waiter.ok());
  EXPECT_EQ(waiter.value(), 33u);
  // Waiter is one-shot.
  auto again = table.Wakeup(chan, EventMessage{2, 1});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), kNoProcess);
}

TEST(EventChannelTest, EventsQueueFifo) {
  EventChannelTable table;
  ChannelId chan = table.Create(1);
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(table.Wakeup(chan, EventMessage{i, 1}).ok());
  }
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(table.TryReceive(chan)->data, i);
  }
}

TEST(EventChannelTest, DestroyedChannelRejects) {
  EventChannelTable table;
  ChannelId chan = table.Create(1);
  ASSERT_EQ(table.Destroy(chan), Status::kOk);
  EXPECT_EQ(table.Wakeup(chan, {}).status(), Status::kNoSuchChannel);
  EXPECT_EQ(table.Destroy(chan), Status::kNoSuchChannel);
}

// --- Scheduling --------------------------------------------------------------------

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : machine_(MachineConfig{}), tc_(&machine_, /*virtual_processors=*/8) {}
  Machine machine_;
  TrafficController tc_;
};

TEST_F(SchedulerTest, RunsProcessesToCompletion) {
  int a = 0;
  int b = 0;
  ASSERT_TRUE(tc_.CreateProcess("a", TestUser(), {}, kRingUser, CountingTask(&a, 3)).ok());
  ASSERT_TRUE(tc_.CreateProcess("b", TestUser(), {}, kRingUser, CountingTask(&b, 5)).ok());
  tc_.RunUntilQuiescent();
  EXPECT_EQ(a, 3);
  EXPECT_EQ(b, 5);
}

// Destroying a ready process takes it out of its run queue under either
// policy: the scheduler never dispatches, or even reads, the freed process.
TEST(SchedulerDestroyTest, DestroyingAReadyProcessDequeuesIt) {
  for (SchedulerPolicy policy : {SchedulerPolicy::kMultilevelFeedback, SchedulerPolicy::kFifo}) {
    Machine machine(MachineConfig{});
    TrafficController tc(&machine, /*virtual_processors=*/8);
    tc.SetSchedulerPolicy(policy);
    int doomed = 0;
    int survivor = 0;
    auto victim = tc.CreateProcess("doomed", TestUser(), {}, kRingUser, CountingTask(&doomed, 3));
    ASSERT_TRUE(victim.ok());
    ASSERT_TRUE(
        tc.CreateProcess("survivor", TestUser(), {}, kRingUser, CountingTask(&survivor, 3)).ok());
    const ProcessId pid = victim.value()->pid();
    ASSERT_TRUE(victim.value()->in_run_queue());
    tc.Destroy(victim.value());
    EXPECT_EQ(tc.Find(pid), nullptr);
    EXPECT_EQ(tc.process_count(), 1u);
    size_t queued = tc.SharedReadyQueued();
    for (uint32_t cpu = 0; cpu < machine.cpu_count(); ++cpu) {
      queued += tc.CpuQueued(cpu);
    }
    EXPECT_EQ(queued, 1u);
    tc.RunUntilQuiescent();
    EXPECT_EQ(doomed, 0);
    EXPECT_EQ(survivor, 3);
  }
}

// The CPU's record of what it ran last lets go of a destroyed process, so a
// process allocated where it lived is still dispatched as a switch.
TEST_F(SchedulerTest, DispatchAfterDestroyingTheLastRunProcessSwitches) {
  int a = 0;
  auto first = tc_.CreateProcess("a", TestUser(), {}, kRingUser, CountingTask(&a, 2));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(tc_.RunSlice());  // "a" ran once and is queued again.
  const uint64_t switches = tc_.context_switches();
  tc_.Destroy(first.value());
  int b = 0;
  ASSERT_TRUE(tc_.CreateProcess("b", TestUser(), {}, kRingUser, CountingTask(&b, 1)).ok());
  ASSERT_TRUE(tc_.RunSlice());
  EXPECT_EQ(b, 1);
  EXPECT_EQ(tc_.context_switches(), switches + 1);
}

TEST_F(SchedulerTest, SharedProcessesInterleaveFairly) {
  std::vector<int> order;
  auto make = [&](int id) {
    return std::make_unique<FnTask>([&order, id](TaskContext& ctx) {
      ctx.Charge(10);
      order.push_back(id);
      return order.size() >= 6 ? TaskState::kDone : TaskState::kReady;
    });
  };
  ASSERT_TRUE(tc_.CreateProcess("p1", TestUser(), {}, kRingUser, make(1)).ok());
  ASSERT_TRUE(tc_.CreateProcess("p2", TestUser(), {}, kRingUser, make(2)).ok());
  tc_.RunUntilQuiescent();
  // Round-robin: 1,2,1,2,...
  ASSERT_GE(order.size(), 4u);
  EXPECT_NE(order[0], order[1]);
  EXPECT_EQ(order[0], order[2]);
}

TEST_F(SchedulerTest, BlockAndWakeupThroughChannels) {
  ChannelId chan = tc_.channels().Create(0);
  std::vector<uint64_t> received;

  auto consumer = std::make_unique<FnTask>([&, chan](TaskContext& ctx) {
    if (!ctx.Await(chan)) {
      return TaskState::kBlocked;
    }
    received.push_back(ctx.last_message().data);
    ctx.Charge(50);
    return received.size() >= 3 ? TaskState::kDone : TaskState::kReady;
  });
  int sent = 0;
  auto producer = std::make_unique<FnTask>([&, chan](TaskContext& ctx) {
    ctx.Charge(20);
    (void)ctx.Wakeup(chan, 100 + sent);
    return ++sent >= 3 ? TaskState::kDone : TaskState::kReady;
  });

  ASSERT_TRUE(tc_.CreateProcess("consumer", TestUser(), {}, kRingUser, std::move(consumer)).ok());
  ASSERT_TRUE(tc_.CreateProcess("producer", TestUser(), {}, kRingUser, std::move(producer)).ok());
  tc_.RunUntilQuiescent();
  EXPECT_EQ(received, (std::vector<uint64_t>{100, 101, 102}));
}

TEST_F(SchedulerTest, BlockedProcessConsumesNoCpu) {
  ChannelId chan = tc_.channels().Create(0);
  auto waiter = std::make_unique<FnTask>([chan](TaskContext& ctx) {
    if (!ctx.Await(chan)) {
      return TaskState::kBlocked;
    }
    return TaskState::kDone;
  });
  auto process = tc_.CreateProcess("waiter", TestUser(), {}, kRingUser, std::move(waiter));
  ASSERT_TRUE(process.ok());
  int worked = 0;
  ASSERT_TRUE(tc_.CreateProcess("worker", TestUser(), {}, kRingUser, CountingTask(&worked, 10))
                  .ok());
  tc_.RunUntilQuiescent();
  EXPECT_EQ(worked, 10);
  // The waiter ran once (to block) and never again.
  EXPECT_EQ(process.value()->accounting().dispatches, 1u);
  EXPECT_EQ(process.value()->state(), TaskState::kBlocked);
}

TEST_F(SchedulerTest, DedicatedProcessesHavePriority) {
  std::vector<char> order;
  ChannelId chan = tc_.channels().Create(0);
  auto daemon = std::make_unique<FnTask>([&order, chan](TaskContext& ctx) {
    if (!ctx.Await(chan)) {
      return TaskState::kBlocked;
    }
    ctx.Charge(10);
    order.push_back('D');
    return TaskState::kReady;
  });
  auto user = std::make_unique<FnTask>([&order, chan](TaskContext& ctx) {
    ctx.Charge(10);
    order.push_back('U');
    (void)ctx.Wakeup(chan, 1);  // Each user step queues daemon work.
    return order.size() > 8 ? TaskState::kDone : TaskState::kReady;
  });
  ASSERT_TRUE(
      tc_.CreateProcess("daemon", TestUser(), {}, kRingKernel, std::move(daemon), true).ok());
  ASSERT_TRUE(tc_.CreateProcess("user", TestUser(), {}, kRingUser, std::move(user)).ok());
  tc_.RunUntilQuiescent();
  // After every user step the daemon ran before the next user step.
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    if (order[i] == 'U') {
      EXPECT_EQ(order[i + 1], 'D') << "at " << i;
    }
  }
}

TEST_F(SchedulerTest, DedicatedLimitLeavesSharedVp) {
  Machine machine(MachineConfig{});
  TrafficController small(&machine, 2);
  int x = 0;
  ASSERT_TRUE(
      small.CreateProcess("d1", TestUser(), {}, kRingKernel, CountingTask(&x, 1), true).ok());
  EXPECT_EQ(small
                .CreateProcess("d2", TestUser(), {}, kRingKernel, CountingTask(&x, 1), true)
                .status(),
            Status::kProcessLimit);
}

TEST_F(SchedulerTest, IdleJumpsToNextEvent) {
  ChannelId chan = tc_.channels().Create(0);
  auto waiter = std::make_unique<FnTask>([chan](TaskContext& ctx) {
    if (!ctx.Await(chan)) {
      return TaskState::kBlocked;
    }
    return TaskState::kDone;
  });
  ASSERT_TRUE(tc_.CreateProcess("w", TestUser(), {}, kRingUser, std::move(waiter)).ok());
  // An external completion fires far in the future.
  machine_.events().ScheduleAfter(50'000, [this, chan] {
    (void)tc_.Wakeup(chan, EventMessage{1, kNoProcess});
  });
  tc_.RunUntilQuiescent();
  EXPECT_GE(machine_.clock().now(), 50'000u);
  EXPECT_GT(tc_.idle_jumps(), 0u);
}

// --- Interrupt strategies ------------------------------------------------------------

class InterruptStrategyTest : public SchedulerTest {
 protected:
  // A victim process that computes in fixed-size steps.
  Process* MakeVictim(int steps) {
    auto counter = std::make_shared<int>(0);
    auto victim = std::make_unique<FnTask>([counter, steps](TaskContext& ctx) {
      ctx.Charge(200, "victim_cpu");
      return ++*counter >= steps ? TaskState::kDone : TaskState::kReady;
    });
    auto process = tc_.CreateProcess("victim", TestUser(), {}, kRingUser, std::move(victim));
    CHECK(process.ok());
    return process.value();
  }
};

TEST_F(InterruptStrategyTest, InlineHandlerStealsVictimTime) {
  tc_.SetInterruptStrategy(InterruptStrategy::kInlineInCurrentProcess);
  ASSERT_EQ(tc_.RegisterInlineHandler(2, /*work=*/500), Status::kOk);
  Process* victim = MakeVictim(5);
  // Run one slice so the victim is the "current" process, then interrupt.
  ASSERT_TRUE(tc_.RunSlice());
  ASSERT_EQ(machine_.interrupts().Assert(2), Status::kOk);
  tc_.RunUntilQuiescent();
  EXPECT_GT(victim->accounting().stolen_by_interrupts, 0u);
  EXPECT_EQ(tc_.interrupt_latency().count(), 1u);
}

TEST_F(InterruptStrategyTest, DedicatedHandlerRunsInOwnProcess) {
  tc_.SetInterruptStrategy(InterruptStrategy::kDedicatedProcesses);
  ChannelId chan = tc_.channels().Create(0);
  int handled = 0;
  auto handler = std::make_unique<FnTask>([&handled, chan](TaskContext& ctx) {
    if (!ctx.Await(chan)) {
      return TaskState::kBlocked;
    }
    ctx.Charge(500, "interrupt_handler");
    ctx.controller().RecordInterruptLatency(ctx.last_message().data);
    ++handled;
    return TaskState::kReady;
  });
  ASSERT_TRUE(
      tc_.CreateProcess("int-handler", TestUser(), {}, kRingKernel, std::move(handler), true)
          .ok());
  ASSERT_EQ(tc_.RegisterInterruptProcess(2, chan), Status::kOk);

  Process* victim = MakeVictim(5);
  ASSERT_TRUE(tc_.RunSlice());
  ASSERT_EQ(machine_.interrupts().Assert(2), Status::kOk);
  ASSERT_EQ(machine_.interrupts().Assert(2), Status::kOk);
  tc_.RunUntilQuiescent();
  EXPECT_EQ(handled, 2);
  // The victim paid nothing: the handler work landed on its own process.
  EXPECT_EQ(victim->accounting().stolen_by_interrupts, 0u);
  EXPECT_EQ(tc_.interrupt_latency().count(), 2u);
}

TEST_F(InterruptStrategyTest, UnregisteredLinesAreDropped) {
  ASSERT_EQ(machine_.interrupts().Assert(9), Status::kOk);
  MakeVictim(2);
  tc_.RunUntilQuiescent();  // Must not hang or crash.
  EXPECT_EQ(tc_.interrupt_latency().count(), 0u);
}

// --- Two-layer vs single-layer (E11 shape) --------------------------------------------

TEST_F(SchedulerTest, TwoLayerKeepsDaemonRunnableUnderLoad) {
  // A daemon with a perpetual queue of work, plus many compute-bound users.
  ChannelId chan = tc_.channels().Create(0);
  int daemon_steps = 0;
  auto daemon = std::make_unique<FnTask>([&daemon_steps, chan](TaskContext& ctx) {
    if (!ctx.Await(chan)) {
      return TaskState::kBlocked;
    }
    ctx.Charge(10);
    ++daemon_steps;
    (void)ctx.Wakeup(chan, 1);  // Self-perpetuating workload.
    return TaskState::kReady;
  });
  ASSERT_TRUE(
      tc_.CreateProcess("daemon", TestUser(), {}, kRingKernel, std::move(daemon), true).ok());
  (void)tc_.Wakeup(chan, EventMessage{1, kNoProcess});

  std::array<int, 10> counters{};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tc_.CreateProcess("user" + std::to_string(i), TestUser(), {}, kRingUser,
                                  CountingTask(&counters[i], 100))
                    .ok());
  }
  // Run a bounded number of slices; daemon must get a large share.
  for (int i = 0; i < 400 && tc_.RunSlice(); ++i) {
  }
  EXPECT_GT(daemon_steps, 100);  // Interleaved 1:1 with user slices.
}

}  // namespace
}  // namespace multics
