// Tests for the session engine: a closed-loop multi-user workload running
// entirely above the gate interface. Covers clean completion, work-class
// assignment, failure accounting, and end-to-end determinism of a whole
// booted system under session load.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "src/init/bootstrap.h"
#include "src/session/engine.h"

namespace multics {
namespace {

struct RunOutcome {
  uint32_t completed = 0;
  uint32_t failed_sessions = 0;
  uint32_t failed_logins = 0;
  Cycles makespan = 0;
  uint64_t slices = 0;
  double p99 = 0;
  uint64_t logins = 0;
};

RunOutcome RunSessions(uint32_t sessions, uint32_t cpus, uint64_t seed) {
  KernelParams params;
  params.machine.cpus = cpus;
  Kernel kernel(params);
  auto boot = Bootstrap::Run(kernel, {.users = DefaultUsers()});
  EXPECT_TRUE(boot.ok());

  session::SessionEngineConfig config;
  config.sessions = sessions;
  config.seed = seed;
  config.user_pool = 8;
  config.project_dirs = 4;
  config.hot_segments = 8;
  config.mean_think = 5000;
  config.mean_interarrival = 1500;
  config.interactions = 3;
  config.compile_steps = 8;
  auto engine = session::SessionEngine::Create(&kernel, config);
  EXPECT_TRUE(engine.ok());
  EXPECT_EQ(engine.value()->Run(), Status::kOk);

  const session::SessionEngineStats& stats = engine.value()->stats();
  RunOutcome outcome;
  outcome.completed = stats.completed;
  outcome.failed_sessions = stats.failed_sessions;
  outcome.failed_logins = stats.failed_logins;
  outcome.makespan = stats.makespan;
  outcome.slices = stats.slices;
  outcome.p99 = stats.latency.Percentile(0.99);
  outcome.logins = engine.value()->answering().successful_logins();
  return outcome;
}

// What the kernel still holds once every session has logged out.
struct RetainedState {
  uint32_t processes = 0;
  uint64_t kst_entries = 0;
  size_t trailers = 0;
  size_t fault_sinks = 0;
  size_t channels = 0;
  size_t slab_slots = 0;
};

RetainedState ServeSessions(uint32_t sessions) {
  KernelParams params;
  params.machine.cpus = 2;
  Kernel kernel(params);
  EXPECT_TRUE(Bootstrap::Run(kernel, {.users = DefaultUsers()}).ok());
  session::SessionEngineConfig config;
  config.sessions = sessions;
  config.seed = 5;
  config.user_pool = 8;
  config.project_dirs = 4;
  config.hot_segments = 8;
  config.mean_think = 5000;
  config.mean_interarrival = 1500;
  config.interactions = 3;
  config.compile_steps = 8;
  auto engine = session::SessionEngine::Create(&kernel, config);
  EXPECT_TRUE(engine.ok());
  EXPECT_EQ(engine.value()->Run(), Status::kOk);
  EXPECT_EQ(engine.value()->stats().completed, sessions);

  RetainedState state;
  TrafficController& traffic = kernel.traffic();
  state.processes = traffic.process_count();
  traffic.ForEachProcess([&state](Process& p) { state.kst_entries += p.kst().size(); });
  state.trailers = kernel.trailer_count();
  state.fault_sinks = kernel.fault_sink_count();
  state.channels = traffic.channels().live_count();
  state.slab_slots = kernel.machine().events().slab_slots();
  return state;
}

// Logout destroys each session's process, so retained state follows the
// live sessions (none at the end), not the sessions served.
TEST(SessionEngineTest, RetainedStateFollowsLiveSessions) {
  const RetainedState n = ServeSessions(200);
  const RetainedState twice_n = ServeSessions(400);
  // The initializer, the answering service and the session operator.
  EXPECT_EQ(n.processes, 3u);
  EXPECT_EQ(twice_n.processes, n.processes);
  EXPECT_EQ(twice_n.kst_entries, n.kst_entries);
  EXPECT_EQ(twice_n.trailers, n.trailers);
  EXPECT_EQ(twice_n.fault_sinks, n.fault_sinks);
  EXPECT_EQ(twice_n.channels, n.channels);
  EXPECT_LE(twice_n.slab_slots, n.slab_slots);
  // Meter profile nodes are left out: they are the observer's per-pid record.
}

TEST(SessionEngineTest, AllSessionsCompleteCleanly) {
  const RunOutcome outcome = RunSessions(/*sessions=*/24, /*cpus=*/2, /*seed=*/7);
  EXPECT_EQ(outcome.completed, 24u);
  EXPECT_EQ(outcome.failed_sessions, 0u);
  EXPECT_EQ(outcome.failed_logins, 0u);
  EXPECT_EQ(outcome.logins, 24u);
  EXPECT_GT(outcome.makespan, 0u);
  EXPECT_GT(outcome.p99, 0.0);
}

TEST(SessionEngineTest, WholeSystemRunIsDeterministic) {
  const RunOutcome first = RunSessions(16, 2, 3);
  const RunOutcome second = RunSessions(16, 2, 3);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.makespan, second.makespan);
  EXPECT_EQ(first.slices, second.slices);
  EXPECT_EQ(first.p99, second.p99);
}

TEST(SessionEngineTest, DifferentSeedsDiverge) {
  const RunOutcome a = RunSessions(16, 2, 3);
  const RunOutcome b = RunSessions(16, 2, 4);
  // Different arrival/think streams: the runs should not be cycle-identical.
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(SessionEngineTest, WorkClassesAreDefinedOnTheController) {
  KernelParams params;
  Kernel kernel(params);
  auto boot = Bootstrap::Run(kernel, {.users = DefaultUsers()});
  ASSERT_TRUE(boot.ok());
  session::SessionEngineConfig config;
  config.sessions = 4;
  auto engine = session::SessionEngine::Create(&kernel, config);
  ASSERT_TRUE(engine.ok());
  TrafficController& traffic = kernel.traffic();
  ASSERT_GE(traffic.work_class_count(), 3u);
  EXPECT_EQ(traffic.work_class_info(engine.value()->interactive_class()).name, "interactive");
  EXPECT_EQ(traffic.work_class_info(engine.value()->batch_class()).name, "absentee");
  EXPECT_GT(traffic.work_class_info(engine.value()->interactive_class()).weight,
            traffic.work_class_info(engine.value()->batch_class()).weight);
}

TEST(SessionEngineTest, RejectsDegenerateConfig) {
  KernelParams params;
  Kernel kernel(params);
  auto boot = Bootstrap::Run(kernel, {.users = DefaultUsers()});
  ASSERT_TRUE(boot.ok());
  session::SessionEngineConfig config;
  config.sessions = 0;
  EXPECT_FALSE(session::SessionEngine::Create(&kernel, config).ok());
}

// Regression: the bulk store and the disk both hand out addresses from 0,
// and asynchronous transfer completions used to recognise their page by
// address alone. On a 16-page bulk store that overflows to disk, a page
// evicted to disk address 7, reclaimed, and evicted again to bulk address 7
// had its stale disk write match the bulk daemon's move of bulk address 7:
// the stale completion released a frame that by then belonged to another
// segment (a CHECK in CoreMap::Release, or two segments sharing one frame).
TEST(SessionEngineTest, OverflowingBulkStoreNeverAliasesTransfers) {
  KernelParams params;
  params.machine.cpus = 4;
  params.machine.core_frames = 24;
  params.ast_capacity = 128;
  params.bulk_pages = 16;
  Kernel kernel(params);
  ASSERT_TRUE(Bootstrap::Run(kernel, {.users = DefaultUsers()}).ok());

  session::SessionEngineConfig config;
  config.sessions = 120;
  config.seed = 777;
  config.mean_interarrival = 4500;
  auto engine = session::SessionEngine::Create(&kernel, config);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine.value()->Run(), Status::kOk);
  EXPECT_EQ(engine.value()->stats().completed, 120u);
  EXPECT_GT(kernel.page_control().metrics().bulk_evictions, 0u);  // The bulk store overflowed.

  // Once the daemons drain, a page is in core exactly when its PTE is
  // present, and no two present pages share a frame.
  kernel.page_control().PumpIdle();
  std::set<FrameIndex> frames;
  uint32_t present = 0;
  kernel.store().ast()->ForEach([&](ActiveSegment* seg) {
    for (PageNo page = 0; page < seg->pages; ++page) {
      const PageTableEntry& pte = seg->page_table.entries[page];
      EXPECT_EQ(pte.present, seg->location[page].level == PageLevel::kCore)
          << "segment " << seg->uid << " page " << page;
      if (pte.present) {
        ++present;
        frames.insert(pte.frame);
      }
    }
  });
  EXPECT_EQ(frames.size(), present);
}

}  // namespace
}  // namespace multics
