// Fault-injection subsystem tests: all four fault categories (device,
// interrupt, gate-crash, hierarchy-tear), the retry/degrade/deny recovery
// paths, and the crash-restart driver's post-salvage invariants. Also pins
// the no-op property: a machine with an empty plan registered runs
// cycle-for-cycle identically to one with no injector at all.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/fs/salvager.h"
#include "src/init/bootstrap.h"
#include "src/inject/plan.h"
#include "src/inject/recovery.h"
#include "src/mem/page_control_sequential.h"
#include "src/net/device_io.h"
#include "src/userring/initiator.h"

namespace multics {
namespace {

// --- Low-level fixture: machine + store + hierarchy, no kernel ------------------

class InjectTest : public ::testing::Test {
 protected:
  InjectTest()
      : machine_(MachineConfig{.core_frames = 32}),
        core_map_(32),
        bulk_("bulk-store", 64, 2000, 2000, &machine_),
        disk_("disk", 4096, 20000, 20000, &machine_),
        ast_(64),
        store_(&machine_, &ast_, &disk_),
        page_control_(&machine_, &core_map_, &bulk_, &disk_, &policy_),
        hierarchy_(&store_) {
    store_.AttachPageControl(&page_control_);
    CHECK(hierarchy_.Init() == Status::kOk);
  }

  ~InjectTest() override { machine_.SetInjector(nullptr); }

  SegmentAttributes Any() {
    SegmentAttributes attrs;
    attrs.acl.Set(AclEntry{"*", "*", "*", kModeRead | kModeWrite});
    return attrs;
  }

  Machine machine_;
  CoreMap core_map_;
  PagingDevice bulk_;
  PagingDevice disk_;
  ActiveSegmentTable ast_;
  ClockPolicy policy_;
  SegmentStore store_;
  SequentialPageControl page_control_;
  Hierarchy hierarchy_;
};

// --- Category 1: device faults --------------------------------------------------

TEST_F(InjectTest, TransientDeviceFaultRecoveredByRetry) {
  // The page lands before the plan is registered, so only the read sees it.
  PageBlock page = std::make_unique<Word[]>(kPageWords);
  std::fill_n(page.get(), kPageWords, Word{7});
  ASSERT_EQ(disk_.WriteSync(3, &page), Status::kOk);

  InjectionPlan plan;
  // Two consecutive read faults: below the 4-attempt budget, so the retry
  // path must absorb them without surfacing an error.
  plan.Add(FaultSpec{.kind = FaultKind::kDeviceError, .match = "disk", .burst = 2});
  machine_.SetInjector(&plan);

  PageBlock out;
  EXPECT_EQ(disk_.ReadSync(3, PagingDevice::ReadMode::kCopy, &out), Status::kOk);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out[0], 7u);

  EXPECT_EQ(disk_.injected_faults(), 2u);
  EXPECT_EQ(disk_.retries(), 2u);
  EXPECT_EQ(disk_.failed_transfers(), 0u);
  // Every retry's backoff is cycle-accounted under fault_recovery.
  EXPECT_GT(machine_.charges().Get("fault_recovery"), 0u);
}

TEST_F(InjectTest, PersistentDeviceFaultSurfacesStatus) {
  InjectionPlan plan;
  plan.Add(FaultSpec{.kind = FaultKind::kDeviceError, .match = "disk", .burst = 100});
  machine_.SetInjector(&plan);

  PageBlock out;
  EXPECT_EQ(disk_.ReadSync(9, PagingDevice::ReadMode::kCopy, &out), Status::kDeviceError);
  EXPECT_EQ(disk_.failed_transfers(), 1u);
  EXPECT_EQ(disk_.retries(), static_cast<uint64_t>(PagingDevice::kMaxTransferAttempts - 1));
}

TEST_F(InjectTest, AsyncTransferRetriesThroughEventQueue) {
  InjectionPlan plan;
  plan.Add(FaultSpec{.kind = FaultKind::kDeviceError, .match = "bulk-store", .burst = 1});
  machine_.SetInjector(&plan);

  auto addr = bulk_.Allocate();
  ASSERT_TRUE(addr.ok());
  Status result = Status::kInternal;
  bool done = false;
  PageBlock page = std::make_unique<Word[]>(kPageWords);
  std::fill_n(page.get(), kPageWords, Word{1});
  bulk_.WriteAsync(addr.value(), std::move(page), [&](Status st, PageBlock back) {
    result = st;
    EXPECT_EQ(back, nullptr);  // Committed: the block stayed in the slot.
    done = true;
  });
  machine_.events().RunUntilIdle();
  ASSERT_TRUE(done);
  EXPECT_EQ(result, Status::kOk);  // One fault, absorbed by the retry.
  EXPECT_EQ(bulk_.retries(), 1u);
  EXPECT_EQ(bulk_.failed_transfers(), 0u);
}

TEST_F(InjectTest, PeripheralFaultDegradesToStatus) {
  TapeDrive tape(&machine_);
  ASSERT_EQ(tape.WriteRecord("hello"), Status::kOk);
  ASSERT_EQ(tape.Rewind(), Status::kOk);

  InjectionPlan plan;
  plan.Add(FaultSpec{.kind = FaultKind::kDeviceError, .match = "tape", .burst = 100});
  machine_.SetInjector(&plan);
  auto read = tape.ReadRecord();
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status(), Status::kDeviceError);

  // Transient variant on a fresh plan: one fault, retry succeeds.
  InjectionPlan transient;
  transient.Add(FaultSpec{.kind = FaultKind::kDeviceError, .match = "tape", .burst = 1});
  machine_.SetInjector(&transient);
  auto retried = tape.ReadRecord();
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.value(), "hello");
}

// --- Category 2: dropped interrupts ---------------------------------------------

TEST_F(InjectTest, DroppedInterruptNeverReachesPendingQueue) {
  InjectionPlan plan;
  plan.Add(FaultSpec{.kind = FaultKind::kDroppedInterrupt, .match = "", .burst = 1});
  machine_.SetInjector(&plan);

  EXPECT_EQ(machine_.interrupts().Assert(2, 99), Status::kOk);  // Device believes it fired.
  EXPECT_FALSE(machine_.interrupts().Pending());
  EXPECT_EQ(machine_.interrupts().total_dropped(), 1u);

  // The burst is spent: the next assert goes through.
  EXPECT_EQ(machine_.interrupts().Assert(2, 100), Status::kOk);
  EXPECT_TRUE(machine_.interrupts().Pending());
  InterruptEvent ev;
  ASSERT_TRUE(machine_.interrupts().TakePending(&ev));
  EXPECT_EQ(ev.payload, 100u);
}

TEST_F(InjectTest, DropSpecificLineOnly) {
  InjectionPlan plan;
  plan.Add(FaultSpec{.kind = FaultKind::kDroppedInterrupt, .match = "", .burst = 100, .detail = 5});
  machine_.SetInjector(&plan);

  EXPECT_EQ(machine_.interrupts().Assert(5, 1), Status::kOk);
  EXPECT_FALSE(machine_.interrupts().Pending());  // Line 5 dropped.
  EXPECT_EQ(machine_.interrupts().Assert(6, 2), Status::kOk);
  EXPECT_TRUE(machine_.interrupts().Pending());  // Line 6 unaffected.
}

// --- No-op property -------------------------------------------------------------

TEST(InjectNoOpTest, EmptyPlanIsCycleIdenticalToNoInjector) {
  // The same device workload on two machines; one has an (empty) plan
  // registered, one none. The clocks must agree bit-for-bit.
  auto run = [](bool with_plan) -> Cycles {
    Machine machine(MachineConfig{.core_frames = 16});
    InjectionPlan plan;
    if (with_plan) {
      machine.SetInjector(&plan);
    }
    PagingDevice disk = MakeDisk(256, &machine);
    for (DevAddr a = 0; a < 32; ++a) {
      PageBlock buf = std::make_unique<Word[]>(kPageWords);
      std::fill_n(buf.get(), kPageWords, Word{3});
      CHECK(disk.WriteSync(a, &buf) == Status::kOk);
    }
    PageBlock out;
    for (DevAddr a = 0; a < 32; ++a) {
      CHECK(disk.ReadSync(a, PagingDevice::ReadMode::kCopy, &out) == Status::kOk);
    }
    bool done = false;
    disk.ReadAsync(7, PagingDevice::ReadMode::kCopy, [&](Status st, PageBlock) {
      CHECK(st == Status::kOk);
      done = true;
    });
    machine.events().RunUntilIdle();
    CHECK(done);
    machine.SetInjector(nullptr);
    return machine.clock().now();
  };
  EXPECT_EQ(run(false), run(true));
}

// --- Category 3: gate crashes (full kernel) -------------------------------------

class InjectKernelTest : public ::testing::Test {
 protected:
  InjectKernelTest() {
    KernelParams params;
    params.config = KernelConfiguration::Kernelized6180();
    params.machine.core_frames = 96;
    kernel_ = std::make_unique<Kernel>(params);
    BootstrapOptions options;
    options.users = DefaultUsers();
    CHECK(Bootstrap::Run(*kernel_, options).ok());
    auto process = kernel_->BootstrapProcess("victim", Principal{"Doe", "Students", "a"},
                                             MlsLabel::SystemLow());
    CHECK(process.ok());
    process_ = process.value();
    UserInitiator initiator(kernel_.get(), process_);
    auto home = initiator.InitiateDirPath(">udd>Students>Doe");
    CHECK(home.ok());
    home_ = home.value();
  }

  ~InjectKernelTest() override { kernel_->machine().SetInjector(nullptr); }

  SegmentAttributes Any() {
    SegmentAttributes attrs;
    attrs.acl.Set(AclEntry{"*", "*", "*", kModeRead | kModeWrite});
    return attrs;
  }

  std::unique_ptr<Kernel> kernel_;
  Process* process_ = nullptr;
  SegNo home_ = kInvalidSegNo;
};

TEST_F(InjectKernelTest, GateCrashBecomesAuditedDenial) {
  const uint64_t denials_before = kernel_->audit().denials();

  InjectionPlan plan;
  // Crash the process inside fs_create_seg after 500 cycles of gate body.
  plan.Add(FaultSpec{.kind = FaultKind::kGateCrash, .match = "fs_create_seg", .delay = 500});
  kernel_->machine().SetInjector(&plan);

  auto crashed = kernel_->FsCreateSegment(*process_, home_, "doomed", Any());
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status(), Status::kProcessCrashed);

  // The crash was audited as a denial, charged to the fault path, and left
  // no half-created state behind.
  EXPECT_EQ(kernel_->audit().denials(), denials_before + 1);
  EXPECT_EQ(kernel_->audit().denials_with(Status::kProcessCrashed), 1u);
  EXPECT_GE(kernel_->machine().charges().Get("fault_path"), 500u);
  EXPECT_FALSE(kernel_->FsStatus(*process_, home_, "doomed").ok());

  // Burst spent: the same call now succeeds — the kernel survived the crash.
  auto retried = kernel_->FsCreateSegment(*process_, home_, "doomed", Any());
  EXPECT_TRUE(retried.ok());

  // The hierarchy is salvager-clean despite the mid-gate crash.
  kernel_->machine().SetInjector(nullptr);
  auto scan = Salvager::Run(kernel_->hierarchy(), /*repair=*/false);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->total_repairs(), 0u);
}

TEST_F(InjectKernelTest, MemoryParityFaultSurfacesToProgram) {
  auto seg = kernel_->FsCreateSegment(*process_, home_, "data", Any());
  ASSERT_TRUE(seg.ok());
  auto init = kernel_->Initiate(*process_, home_, "data");
  ASSERT_TRUE(init.ok());
  ASSERT_EQ(kernel_->SegSetLength(*process_, init->segno, 1), Status::kOk);
  ASSERT_EQ(kernel_->RunAs(*process_), Status::kOk);
  ASSERT_EQ(kernel_->cpu().Write(init->segno, 0, 42), Status::kOk);

  InjectionPlan plan;
  plan.Add(FaultSpec{.kind = FaultKind::kMemoryParity, .match = "", .burst = 1});
  kernel_->machine().SetInjector(&plan);

  auto faulted = kernel_->cpu().Read(init->segno, 0);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status(), Status::kParityError);

  // Transient: the next reference succeeds and the data is intact.
  auto retried = kernel_->cpu().Read(init->segno, 0);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.value(), 42u);
}

// --- Category 4: hierarchy tears + crash-restart --------------------------------

TEST_F(InjectTest, TornCreateSegmentLeavesOrphanSalvageReattaches) {
  auto dir = hierarchy_.CreateDirectory(hierarchy_.root(), "d", Any(), /*quota=*/8);
  ASSERT_TRUE(dir.ok());
  SecuritySnapshot before = CaptureSecuritySnapshot(hierarchy_);

  InjectionPlan plan;
  plan.Add(FaultSpec{.kind = FaultKind::kHierarchyTear, .match = "create_segment"});
  machine_.SetInjector(&plan);

  auto torn = hierarchy_.CreateSegment(dir.value(), "s", Any());
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status(), Status::kProcessCrashed);
  EXPECT_EQ(plan.injected(), 1u);

  auto recovery = CrashRestart(hierarchy_, before);
  ASSERT_TRUE(recovery.ok());
  EXPECT_GE(recovery->salvage.orphans_reattached, 1u);
  EXPECT_TRUE(recovery->clean())
      << "residual=" << recovery->residual_defects << " acl=" << recovery->acl_changes
      << " labels=" << recovery->labels_changed << " orphans=" << recovery->orphan_branches;
}

TEST_F(InjectTest, TornCreateDirectoryRebuildsCatalogue) {
  SecuritySnapshot before = CaptureSecuritySnapshot(hierarchy_);

  InjectionPlan plan;
  plan.Add(FaultSpec{.kind = FaultKind::kHierarchyTear, .match = "create_directory"});
  machine_.SetInjector(&plan);

  auto torn = hierarchy_.CreateDirectory(hierarchy_.root(), "newdir", Any(), 4);
  ASSERT_FALSE(torn.ok());

  auto recovery = CrashRestart(hierarchy_, before);
  ASSERT_TRUE(recovery.ok());
  EXPECT_GE(recovery->salvage.directories_rebuilt, 1u);
  EXPECT_GE(recovery->salvage.orphans_reattached, 1u);
  EXPECT_TRUE(recovery->clean());
}

TEST_F(InjectTest, TornDeleteLeavesDanglingEntrySalvageRemoves) {
  auto seg = hierarchy_.CreateSegment(hierarchy_.root(), "victim", Any());
  ASSERT_TRUE(seg.ok());
  SecuritySnapshot before = CaptureSecuritySnapshot(hierarchy_);

  InjectionPlan plan;
  plan.Add(FaultSpec{.kind = FaultKind::kHierarchyTear, .match = "delete_entry"});
  machine_.SetInjector(&plan);

  EXPECT_EQ(hierarchy_.DeleteEntry(hierarchy_.root(), "victim"), Status::kProcessCrashed);
  // Torn: the branch is gone but the entry still names it.
  EXPECT_TRUE(hierarchy_.Lookup(hierarchy_.root(), "victim").ok());
  EXPECT_FALSE(store_.Exists(seg.value()));

  auto recovery = CrashRestart(hierarchy_, before);
  ASSERT_TRUE(recovery.ok());
  EXPECT_GE(recovery->salvage.dangling_entries_removed, 1u);
  EXPECT_TRUE(recovery->clean());
  EXPECT_FALSE(hierarchy_.Lookup(hierarchy_.root(), "victim").ok());
}

TEST_F(InjectTest, TornRenameOrphansBranchSalvageReattaches) {
  auto seg = hierarchy_.CreateSegment(hierarchy_.root(), "old", Any());
  ASSERT_TRUE(seg.ok());
  SecuritySnapshot before = CaptureSecuritySnapshot(hierarchy_);

  InjectionPlan plan;
  plan.Add(FaultSpec{.kind = FaultKind::kHierarchyTear, .match = "rename"});
  machine_.SetInjector(&plan);

  EXPECT_EQ(hierarchy_.Rename(hierarchy_.root(), "old", "new"), Status::kProcessCrashed);
  // Torn: neither name resolves, the branch is an orphan.
  EXPECT_FALSE(hierarchy_.Lookup(hierarchy_.root(), "old").ok());
  EXPECT_FALSE(hierarchy_.Lookup(hierarchy_.root(), "new").ok());
  EXPECT_TRUE(store_.Exists(seg.value()));

  auto recovery = CrashRestart(hierarchy_, before);
  ASSERT_TRUE(recovery.ok());
  EXPECT_GE(recovery->salvage.orphans_reattached, 1u);
  EXPECT_TRUE(recovery->clean());

  // The branch survived, reachable under >lost_found, ACL and label intact.
  auto lost = hierarchy_.ResolvePath(
      Path::Parse(">lost_found>orphan_" + std::to_string(seg.value())).value());
  ASSERT_TRUE(lost.ok());
  EXPECT_EQ(lost.value(), seg.value());
}

// --- Salvager quiescence (bugfix satellite) -------------------------------------

TEST_F(InjectTest, SalvagerRefusesRepairWhileSegmentsActive) {
  auto seg = hierarchy_.CreateSegment(hierarchy_.root(), "busy", Any());
  ASSERT_TRUE(seg.ok());
  ASSERT_EQ(store_.SetLength(seg.value(), 1), Status::kOk);
  ASSERT_TRUE(store_.Activate(seg.value()).ok());
  ASSERT_GT(store_.active_count(), 0u);

  auto repair = Salvager::Run(hierarchy_, /*repair=*/true);
  ASSERT_FALSE(repair.ok());
  EXPECT_EQ(repair.status(), Status::kFailedPrecondition);

  // Scanning a live system stays legal.
  EXPECT_TRUE(Salvager::Run(hierarchy_, /*repair=*/false).ok());

  // Quiescent again: repair is allowed.
  ASSERT_EQ(store_.DeactivateAll(), Status::kOk);
  EXPECT_TRUE(Salvager::Run(hierarchy_, /*repair=*/true).ok());
}

// --- Seeded storm determinism ---------------------------------------------------

TEST(InjectStormTest, StormIsReproducibleFromSeed) {
  auto run = [](uint64_t seed) -> std::pair<uint64_t, Cycles> {
    Machine machine(MachineConfig{.core_frames = 16});
    InjectionPlan plan;
    StormConfig storm;
    storm.seed = seed;
    storm.device_rate = 1.0 / 8;
    plan.EnableStorm(storm);
    machine.SetInjector(&plan);
    PagingDevice disk = MakeDisk(256, &machine);
    PageBlock out;
    uint64_t failures = 0;
    for (int i = 0; i < 200; ++i) {
      PageBlock buf = std::make_unique<Word[]>(kPageWords);
      std::fill_n(buf.get(), kPageWords, Word{1});
      if (disk.WriteSync(static_cast<DevAddr>(i % 64), &buf) != Status::kOk) {
        ++failures;
      }
      if (disk.ReadSync(static_cast<DevAddr>(i % 64), PagingDevice::ReadMode::kCopy, &out) !=
          Status::kOk) {
        ++failures;
      }
    }
    machine.SetInjector(nullptr);
    return {plan.injected(), machine.clock().now()};
  };
  auto a = run(1975);
  auto b = run(1975);
  EXPECT_EQ(a, b);           // Same seed: identical fault pattern and timing.
  EXPECT_GT(a.first, 0u);    // The storm actually injected something.
  auto c = run(42);
  EXPECT_NE(a.first, c.first);  // Different seed: different storm.
}

}  // namespace
}  // namespace multics
