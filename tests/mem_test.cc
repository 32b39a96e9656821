// Tests for the memory hierarchy: devices, core map, replacement policies,
// the two page-control designs, and the policy/mechanism gate split.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/injection.h"
#include "src/hw/machine.h"
#include "src/mem/active_segment.h"
#include "src/mem/core_map.h"
#include "src/mem/page_control_parallel.h"
#include "src/mem/page_control_sequential.h"
#include "src/mem/paging_device.h"
#include "src/mem/policy_gate.h"
#include "src/mem/replacement.h"

namespace multics {
namespace {

PageBlock PatternPage(Word tag) {
  PageBlock page = std::make_unique<Word[]>(kPageWords);
  for (uint32_t i = 0; i < kPageWords; ++i) {
    page[i] = tag * 100000 + i;
  }
  return page;
}

// True when `block` holds exactly PatternPage(tag).
bool HoldsPattern(const PageBlock& block, Word tag) {
  if (block == nullptr) {
    return false;
  }
  for (uint32_t i = 0; i < kPageWords; ++i) {
    if (block[i] != tag * 100000 + i) {
      return false;
    }
  }
  return true;
}

// Fails every transfer at one site on one device while armed: a persistent
// device fault, switched off again to check what survived it.
class DeviceFaultSwitch : public FaultInjector {
 public:
  void Arm(InjectSite site, std::string device) {
    site_ = site;
    device_ = std::move(device);
    armed_ = true;
  }
  void Disarm() { armed_ = false; }

  InjectionDecision Consult(const InjectionPoint& point) override {
    if (armed_ && point.site == site_ && device_ == point.name) {
      return InjectionDecision{Status::kDeviceError, 0};
    }
    return InjectionDecision{};
  }

 private:
  bool armed_ = false;
  InjectSite site_ = InjectSite::kDeviceWrite;
  std::string device_;
};

// --- PagingDevice -------------------------------------------------------------

class PagingDeviceTest : public ::testing::Test {
 protected:
  PagingDeviceTest() : machine_(MachineConfig{}), dev_("test", 8, 1000, 1000, &machine_) {}
  Machine machine_;
  PagingDevice dev_;
};

TEST_F(PagingDeviceTest, AllocateFreeRoundTrip) {
  EXPECT_EQ(dev_.free_pages(), 8u);
  auto a = dev_.Allocate();
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(dev_.free_pages(), 7u);
  EXPECT_EQ(dev_.Free(a.value()), Status::kOk);
  EXPECT_EQ(dev_.free_pages(), 8u);
}

TEST_F(PagingDeviceTest, ExhaustionReported) {
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(dev_.Allocate().ok());
  }
  EXPECT_TRUE(dev_.Full());
  EXPECT_EQ(dev_.Allocate().status(), Status::kResourceExhausted);
}

TEST_F(PagingDeviceTest, SyncTransferAdvancesClock) {
  auto addr = dev_.Allocate();
  ASSERT_TRUE(addr.ok());
  Cycles before = machine_.clock().now();
  PageBlock page = PatternPage(1);
  ASSERT_EQ(dev_.WriteSync(addr.value(), &page), Status::kOk);
  EXPECT_EQ(page, nullptr);  // The block moved into the slot.
  Cycles elapsed = machine_.clock().now() - before;
  EXPECT_GE(elapsed, 1000u);  // Latency plus start overhead.

  PageBlock out;
  ASSERT_EQ(dev_.ReadSync(addr.value(), PagingDevice::ReadMode::kCopy, &out), Status::kOk);
  EXPECT_TRUE(HoldsPattern(out, 1));
}

TEST_F(PagingDeviceTest, UnwrittenSlotReadsZeros) {
  auto addr = dev_.Allocate();
  ASSERT_TRUE(addr.ok());
  PageBlock out = PatternPage(9);
  ASSERT_EQ(dev_.ReadSync(addr.value(), PagingDevice::ReadMode::kCopy, &out), Status::kOk);
  EXPECT_EQ(out, nullptr);  // A page of zeros.
}

TEST_F(PagingDeviceTest, MoveReadEmptiesTheSlotCopyReadDoesNot) {
  auto addr = dev_.Allocate();
  ASSERT_TRUE(addr.ok());
  PageBlock page = PatternPage(4);
  const Word* words = page.get();
  ASSERT_EQ(dev_.WriteSync(addr.value(), &page), Status::kOk);

  PageBlock copy;
  ASSERT_EQ(dev_.ReadSync(addr.value(), PagingDevice::ReadMode::kCopy, &copy), Status::kOk);
  EXPECT_TRUE(HoldsPattern(copy, 4));
  EXPECT_NE(copy.get(), words);  // A new block; the slot keeps its own.

  PageBlock moved;
  ASSERT_EQ(dev_.ReadSync(addr.value(), PagingDevice::ReadMode::kMove, &moved), Status::kOk);
  EXPECT_EQ(moved.get(), words);  // The very block that was written.
  PageBlock after;
  ASSERT_EQ(dev_.ReadSync(addr.value(), PagingDevice::ReadMode::kCopy, &after), Status::kOk);
  EXPECT_EQ(after, nullptr);
}

TEST_F(PagingDeviceTest, FreeDropsTheSlotsBlock) {
  auto addr = dev_.Allocate();
  ASSERT_TRUE(addr.ok());
  PageBlock page = PatternPage(2);
  ASSERT_EQ(dev_.WriteSync(addr.value(), &page), Status::kOk);
  ASSERT_EQ(dev_.Free(addr.value()), Status::kOk);
  auto again = dev_.Allocate();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), addr.value());  // Freed slots are reused first.
  PageBlock out;
  ASSERT_EQ(dev_.ReadSync(again.value(), PagingDevice::ReadMode::kCopy, &out), Status::kOk);
  EXPECT_EQ(out, nullptr);
}

TEST_F(PagingDeviceTest, FreeOfUnallocatedSlotIsRefused) {
  // Never allocated.
  EXPECT_EQ(dev_.Free(3), Status::kFailedPrecondition);
  EXPECT_EQ(dev_.free_pages(), 8u);
  // Allocated once, freed twice: the second free must not put a second copy
  // of the address on the free list.
  auto addr = dev_.Allocate();
  ASSERT_TRUE(addr.ok());
  ASSERT_EQ(dev_.Free(addr.value()), Status::kOk);
  EXPECT_EQ(dev_.Free(addr.value()), Status::kFailedPrecondition);
  EXPECT_EQ(dev_.free_pages(), 8u);
  // Out of range stays an argument error.
  EXPECT_EQ(dev_.Free(8), Status::kInvalidArgument);
  // Every slot is handed out exactly once.
  std::vector<DevAddr> handed;
  for (int i = 0; i < 8; ++i) {
    auto a = dev_.Allocate();
    ASSERT_TRUE(a.ok());
    handed.push_back(a.value());
  }
  std::sort(handed.begin(), handed.end());
  EXPECT_EQ(std::adjacent_find(handed.begin(), handed.end()), handed.end());
  EXPECT_EQ(dev_.Allocate().status(), Status::kResourceExhausted);
}

TEST_F(PagingDeviceTest, SlotsMaterializeOnDemand) {
  // A device that never pages holds no slots, however large its capacity.
  PagingDevice disk = MakeDisk(32768, &machine_);
  EXPECT_EQ(disk.materialized_slots(), 0u);
  PageBlock out;
  ASSERT_EQ(disk.ReadSync(1000, PagingDevice::ReadMode::kCopy, &out), Status::kOk);
  EXPECT_EQ(disk.materialized_slots(), 0u);  // Reads of empty slots allocate nothing.
  ASSERT_TRUE(disk.Allocate().ok());
  ASSERT_TRUE(disk.Allocate().ok());
  EXPECT_EQ(disk.materialized_slots(), 2u);
}

TEST_F(PagingDeviceTest, FailedWriteHandsTheBlockBack) {
  DeviceFaultSwitch faults;
  faults.Arm(InjectSite::kDeviceWrite, "test");
  machine_.SetInjector(&faults);
  auto addr = dev_.Allocate();
  ASSERT_TRUE(addr.ok());

  PageBlock page = PatternPage(5);
  EXPECT_EQ(dev_.WriteSync(addr.value(), &page), Status::kDeviceError);
  EXPECT_TRUE(HoldsPattern(page, 5));  // The caller still holds the only copy.

  bool done = false;
  dev_.WriteAsync(addr.value(), std::move(page), [&](Status st, PageBlock back) {
    EXPECT_EQ(st, Status::kDeviceError);
    EXPECT_TRUE(HoldsPattern(back, 5));
    done = true;
  });
  machine_.events().RunUntilIdle();
  EXPECT_TRUE(done);
  machine_.SetInjector(nullptr);
}

TEST_F(PagingDeviceTest, FailedMoveReadLeavesTheSlotIntact) {
  auto addr = dev_.Allocate();
  ASSERT_TRUE(addr.ok());
  PageBlock page = PatternPage(6);
  ASSERT_EQ(dev_.WriteSync(addr.value(), &page), Status::kOk);

  DeviceFaultSwitch faults;
  faults.Arm(InjectSite::kDeviceRead, "test");
  machine_.SetInjector(&faults);
  PageBlock out;
  EXPECT_EQ(dev_.ReadSync(addr.value(), PagingDevice::ReadMode::kMove, &out),
            Status::kDeviceError);
  bool done = false;
  dev_.ReadAsyncUrgent(addr.value(), PagingDevice::ReadMode::kMove,
                       [&](Status st, PageBlock block) {
                         EXPECT_EQ(st, Status::kDeviceError);
                         EXPECT_EQ(block, nullptr);
                         done = true;
                       });
  machine_.events().RunUntilIdle();
  EXPECT_TRUE(done);
  faults.Disarm();
  ASSERT_EQ(dev_.ReadSync(addr.value(), PagingDevice::ReadMode::kMove, &out), Status::kOk);
  EXPECT_TRUE(HoldsPattern(out, 6));
  machine_.SetInjector(nullptr);
}

// A lent slot's block lives in a core frame: the slot refuses reads (they
// would return zeros) until the block comes back, and takes a block back
// only from the loan it made, never into a home freed and reallocated since.
TEST_F(PagingDeviceTest, LentSlotRefusesReadsAndForeignTakeBack) {
  auto addr = dev_.Allocate();
  ASSERT_TRUE(addr.ok());
  PageBlock page = PatternPage(3);
  const Word* words = page.get();
  ASSERT_EQ(dev_.WriteSync(addr.value(), &page), Status::kOk);
  const uint64_t writes = dev_.writes();

  PageBlock lent;
  ASSERT_EQ(dev_.ReadSync(addr.value(), PagingDevice::ReadMode::kLend, &lent), Status::kOk);
  EXPECT_EQ(lent.get(), words);  // The very block, not a copy.
  EXPECT_EQ(dev_.used_pages(), 1u);  // The slot stays allocated as the home.
  PageBlock out;
  EXPECT_EQ(dev_.ReadSync(addr.value(), PagingDevice::ReadMode::kCopy, &out),
            Status::kFailedPrecondition);
  EXPECT_EQ(dev_.ReadSync(addr.value(), PagingDevice::ReadMode::kLend, &out),
            Status::kFailedPrecondition);
  bool done = false;
  dev_.ReadAsyncUrgent(addr.value(), PagingDevice::ReadMode::kMove,
                       [&](Status st, PageBlock block) {
                         EXPECT_EQ(st, Status::kFailedPrecondition);
                         EXPECT_EQ(block, nullptr);
                         done = true;
                       });
  machine_.events().RunUntilIdle();
  EXPECT_TRUE(done);

  // The loan ends with no transfer; the slot reads the page again.
  ASSERT_EQ(dev_.TakeBack(addr.value(), &lent), Status::kOk);
  EXPECT_EQ(lent, nullptr);
  EXPECT_EQ(dev_.writes(), writes);
  ASSERT_EQ(dev_.ReadSync(addr.value(), PagingDevice::ReadMode::kCopy, &out), Status::kOk);
  EXPECT_TRUE(HoldsPattern(out, 3));
  // A slot that lent nothing takes nothing back.
  PageBlock stray = PatternPage(8);
  EXPECT_EQ(dev_.TakeBack(addr.value(), &stray), Status::kFailedPrecondition);
  EXPECT_TRUE(HoldsPattern(stray, 8));
  EXPECT_EQ(dev_.TakeBack(5, &stray), Status::kFailedPrecondition);
  // Neither does an unallocated slot lend.
  EXPECT_EQ(dev_.ReadSync(5, PagingDevice::ReadMode::kLend, &out), Status::kFailedPrecondition);

  // Lend again, then free the home and hand it to another page.
  ASSERT_EQ(dev_.ReadSync(addr.value(), PagingDevice::ReadMode::kLend, &lent), Status::kOk);
  ASSERT_EQ(dev_.Free(addr.value()), Status::kOk);
  auto reused = dev_.Allocate();
  ASSERT_TRUE(reused.ok());
  ASSERT_EQ(reused.value(), addr.value());
  ASSERT_EQ(dev_.ReadSync(reused.value(), PagingDevice::ReadMode::kCopy, &out), Status::kOk);
  EXPECT_EQ(out, nullptr);  // The new owner's page, never written: zeros.
  PageBlock other = PatternPage(9);
  ASSERT_EQ(dev_.WriteSync(reused.value(), &other), Status::kOk);
  EXPECT_EQ(dev_.TakeBack(reused.value(), &lent), Status::kFailedPrecondition);
  EXPECT_TRUE(HoldsPattern(lent, 3));  // The stale page stays with its caller.
  ASSERT_EQ(dev_.ReadSync(reused.value(), PagingDevice::ReadMode::kCopy, &out), Status::kOk);
  EXPECT_TRUE(HoldsPattern(out, 9));

  // A write into a lent slot ends the loan: the page was rewritten at home.
  ASSERT_EQ(dev_.ReadSync(reused.value(), PagingDevice::ReadMode::kLend, &lent), Status::kOk);
  PageBlock rewritten = PatternPage(10);
  ASSERT_EQ(dev_.WriteSync(reused.value(), &rewritten), Status::kOk);
  ASSERT_EQ(dev_.ReadSync(reused.value(), PagingDevice::ReadMode::kCopy, &out), Status::kOk);
  EXPECT_TRUE(HoldsPattern(out, 10));
  EXPECT_EQ(dev_.TakeBack(reused.value(), &lent), Status::kFailedPrecondition);
}

TEST_F(PagingDeviceTest, AsyncCompletionViaEvents) {
  auto addr = dev_.Allocate();
  ASSERT_TRUE(addr.ok());
  bool wrote = false;
  dev_.WriteAsync(addr.value(), PatternPage(7), [&](Status st, PageBlock back) {
    EXPECT_EQ(st, Status::kOk);
    EXPECT_EQ(back, nullptr);
    wrote = true;
  });
  EXPECT_FALSE(wrote);  // Not complete until events run.
  machine_.events().RunUntilIdle();
  EXPECT_TRUE(wrote);

  bool read = false;
  dev_.ReadAsync(addr.value(), PagingDevice::ReadMode::kCopy, [&](Status st, PageBlock data) {
    EXPECT_EQ(st, Status::kOk);
    EXPECT_TRUE(HoldsPattern(data, 7));
    read = true;
  });
  machine_.events().RunUntilIdle();
  EXPECT_TRUE(read);
}

TEST_F(PagingDeviceTest, TransfersSerializeOnTheDevice) {
  auto a = dev_.Allocate();
  auto b = dev_.Allocate();
  ASSERT_TRUE(a.ok() && b.ok());
  int completed = 0;
  Cycles first_done = 0;
  Cycles second_done = 0;
  dev_.WriteAsync(a.value(), PatternPage(1), [&](Status, PageBlock) {
    first_done = machine_.clock().now();
    ++completed;
  });
  dev_.WriteAsync(b.value(), PatternPage(2), [&](Status, PageBlock) {
    second_done = machine_.clock().now();
    ++completed;
  });
  machine_.events().RunUntilIdle();
  ASSERT_EQ(completed, 2);
  // The second transfer queues behind the first: roughly double the latency.
  EXPECT_GE(second_done, first_done + 1000);
}

TEST_F(PagingDeviceTest, InterruptAssertedOnCompletion) {
  dev_.AttachInterrupt(&machine_.interrupts(), 3);
  auto addr = dev_.Allocate();
  ASSERT_TRUE(addr.ok());
  dev_.WriteAsync(addr.value(), PatternPage(1), [](Status, PageBlock) {});
  machine_.events().RunUntilIdle();
  InterruptEvent ev;
  ASSERT_TRUE(machine_.interrupts().TakePending(&ev));
  EXPECT_EQ(ev.line, 3u);
}

// --- CoreMap -------------------------------------------------------------------

TEST(CoreMapTest, AllocateBindRelease) {
  CoreMap map(4);
  EXPECT_EQ(map.free_count(), 4u);
  auto frame = map.AllocateFree();
  ASSERT_TRUE(frame.ok());
  ActiveSegment seg(99, 1);
  map.Bind(frame.value(), &seg, 0);
  EXPECT_EQ(map.info(frame.value()).owner, &seg);
  EXPECT_FALSE(map.info(frame.value()).free);
  map.Release(frame.value());
  EXPECT_EQ(map.free_count(), 4u);
  EXPECT_TRUE(map.info(frame.value()).free);
}

TEST(CoreMapTest, UsedModifiedBitsReadThrough) {
  CoreMap map(2);
  ActiveSegment seg(1, 1);
  auto frame = map.AllocateFree();
  ASSERT_TRUE(frame.ok());
  map.Bind(frame.value(), &seg, 0);
  seg.page_table.entries[0].used = true;
  seg.page_table.entries[0].modified = true;
  EXPECT_TRUE(map.UsedBit(frame.value()));
  EXPECT_TRUE(map.ModifiedBit(frame.value()));
  map.ClearUsedBit(frame.value());
  EXPECT_FALSE(map.UsedBit(frame.value()));
  EXPECT_FALSE(seg.page_table.entries[0].used);
}

// --- ActiveSegmentTable ----------------------------------------------------------

TEST(ActiveSegmentTableTest, ActivateFindDeactivate) {
  ActiveSegmentTable ast(2);
  auto seg = ast.Activate(42, 3, {});
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ(ast.Find(42), seg.value());
  EXPECT_EQ(seg.value()->pages, 3u);
  EXPECT_EQ(seg.value()->location[0].level, PageLevel::kZero);
  EXPECT_EQ(ast.Deactivate(42), Status::kOk);
  EXPECT_EQ(ast.Find(42), nullptr);
}

TEST(ActiveSegmentTableTest, CapacityEnforced) {
  ActiveSegmentTable ast(1);
  ASSERT_TRUE(ast.Activate(1, 1, {}).ok());
  EXPECT_EQ(ast.Activate(2, 1, {}).status(), Status::kResourceExhausted);
}

TEST(ActiveSegmentTableTest, DuplicateActivationRejected) {
  ActiveSegmentTable ast(4);
  ASSERT_TRUE(ast.Activate(1, 1, {}).ok());
  EXPECT_EQ(ast.Activate(1, 1, {}).status(), Status::kAlreadyExists);
}

TEST(ActiveSegmentTableTest, DiskHomesInstalled) {
  ActiveSegmentTable ast(4);
  auto seg = ast.Activate(7, 2, {5, kInvalidDevAddr});
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ(seg.value()->location[0].level, PageLevel::kDisk);
  EXPECT_EQ(seg.value()->location[0].addr, 5u);
  EXPECT_EQ(seg.value()->location[1].level, PageLevel::kZero);
}

TEST(ActiveSegmentTableTest, DeactivateWithResidentPagesRefused) {
  ActiveSegmentTable ast(4);
  auto seg = ast.Activate(7, 1, {});
  ASSERT_TRUE(seg.ok());
  seg.value()->location[0].level = PageLevel::kCore;
  EXPECT_EQ(ast.Deactivate(7), Status::kFailedPrecondition);
}

// --- Replacement policies (parameterized across implementations) ----------------

class PolicyTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<ReplacementPolicy> policy_ = MakePolicy(GetParam());
};

TEST_P(PolicyTest, EmptyCoreMapYieldsNoVictim) {
  CoreMap map(4);
  EXPECT_EQ(policy_->SelectVictim(map), kInvalidFrame);
}

TEST_P(PolicyTest, SelectsOnlyEvictableFrames) {
  CoreMap map(4);
  ActiveSegment seg(1, 4);
  // Frames 0..2 allocated; frame 1 wired.
  for (uint32_t i = 0; i < 3; ++i) {
    auto f = map.AllocateFree();
    ASSERT_TRUE(f.ok());
    map.Bind(f.value(), &seg, i, /*wired=*/i == 1);
    policy_->NotifyLoaded(f.value());
  }
  for (int round = 0; round < 3; ++round) {
    FrameIndex victim = policy_->SelectVictim(map);
    ASSERT_NE(victim, kInvalidFrame);
    EXPECT_FALSE(map.info(victim).wired);
    EXPECT_FALSE(map.info(victim).free);
  }
}

TEST_P(PolicyTest, AllWiredYieldsNoVictim) {
  CoreMap map(2);
  ActiveSegment seg(1, 2);
  for (uint32_t i = 0; i < 2; ++i) {
    auto f = map.AllocateFree();
    ASSERT_TRUE(f.ok());
    map.Bind(f.value(), &seg, i, /*wired=*/true);
    policy_->NotifyLoaded(f.value());
  }
  EXPECT_EQ(policy_->SelectVictim(map), kInvalidFrame);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyTest,
                         ::testing::Values("clock", "fifo", "aging-lru"));

TEST(ClockPolicyTest, SecondChanceSparesUsedPages) {
  CoreMap map(3);
  ActiveSegment seg(1, 3);
  ClockPolicy policy;
  for (uint32_t i = 0; i < 3; ++i) {
    auto f = map.AllocateFree();
    ASSERT_TRUE(f.ok());
    map.Bind(f.value(), &seg, i);
    policy.NotifyLoaded(f.value());
  }
  // Mark page in frame 0 used; the first victim must not be frame 0.
  seg.page_table.entries[map.info(0).page].used = true;
  FrameIndex victim = policy.SelectVictim(map);
  EXPECT_NE(victim, 0u);
  // The sweep cleared frame 0's used bit along the way.
  EXPECT_FALSE(seg.page_table.entries[map.info(0).page].used);
}

TEST(FifoPolicyTest, EvictsOldestFirst) {
  CoreMap map(3);
  ActiveSegment seg(1, 3);
  FifoPolicy policy;
  std::vector<FrameIndex> order;
  for (uint32_t i = 0; i < 3; ++i) {
    auto f = map.AllocateFree();
    ASSERT_TRUE(f.ok());
    map.Bind(f.value(), &seg, i);
    policy.NotifyLoaded(f.value());
    order.push_back(f.value());
  }
  EXPECT_EQ(policy.SelectVictim(map), order[0]);
}

TEST(MakePolicyTest, UnknownNameReturnsNull) { EXPECT_EQ(MakePolicy("optimal"), nullptr); }

// --- Page control fixtures --------------------------------------------------------

class PageControlTest : public ::testing::Test {
 protected:
  PageControlTest()
      : machine_(MachineConfig{.core_frames = 8}),
        core_map_(8),
        bulk_("bulk", 16, 2000, 2000, &machine_),
        disk_("disk", 512, 20000, 20000, &machine_),
        ast_(32) {}

  ActiveSegment* NewSegment(uint64_t uid, uint32_t pages) {
    auto seg = ast_.Activate(uid, pages, {});
    CHECK(seg.ok());
    return seg.value();
  }

  // Simulates a store through the faulted-in page.
  void WriteThrough(PageControl& pc, ActiveSegment* seg, PageNo page, uint32_t offset,
                    Word value) {
    ASSERT_EQ(pc.EnsureResident(seg, page, AccessMode::kWrite), Status::kOk);
    PageTableEntry& pte = seg->page_table.entries[page];
    machine_.core().WriteWord(pte.frame, offset, value);
    pte.used = true;
    pte.modified = true;
  }

  Word ReadThrough(PageControl& pc, ActiveSegment* seg, PageNo page, uint32_t offset) {
    CHECK(pc.EnsureResident(seg, page, AccessMode::kRead) == Status::kOk);
    PageTableEntry& pte = seg->page_table.entries[page];
    pte.used = true;
    return machine_.core().ReadWord(pte.frame, offset);
  }

  Machine machine_;
  CoreMap core_map_;
  PagingDevice bulk_;
  PagingDevice disk_;
  ActiveSegmentTable ast_;
  ClockPolicy policy_;
};

TEST_F(PageControlTest, SequentialZeroFillFirstTouch) {
  SequentialPageControl pc(&machine_, &core_map_, &bulk_, &disk_, &policy_);
  ActiveSegment* seg = NewSegment(1, 4);
  EXPECT_EQ(pc.EnsureResident(seg, 0, AccessMode::kRead), Status::kOk);
  EXPECT_TRUE(seg->page_table.entries[0].present);
  EXPECT_EQ(pc.metrics().zero_fills, 1u);
  EXPECT_EQ(seg->location[0].level, PageLevel::kCore);
}

TEST_F(PageControlTest, SequentialEvictionPreservesData) {
  SequentialPageControl pc(&machine_, &core_map_, &bulk_, &disk_, &policy_);
  // 2 segments x 8 pages = 16 pages through 8 frames.
  ActiveSegment* a = NewSegment(1, 8);
  ActiveSegment* b = NewSegment(2, 8);
  for (PageNo p = 0; p < 8; ++p) {
    WriteThrough(pc, a, p, 5, 1000 + p);
  }
  for (PageNo p = 0; p < 8; ++p) {
    WriteThrough(pc, b, p, 5, 2000 + p);
  }
  EXPECT_GT(pc.metrics().core_evictions, 0u);
  // Everything must read back despite having travelled through the hierarchy.
  for (PageNo p = 0; p < 8; ++p) {
    EXPECT_EQ(ReadThrough(pc, a, p, 5), 1000 + p);
  }
  for (PageNo p = 0; p < 8; ++p) {
    EXPECT_EQ(ReadThrough(pc, b, p, 5), 2000 + p);
  }
}

TEST_F(PageControlTest, SequentialCascadeWhenBulkFull) {
  SequentialPageControl pc(&machine_, &core_map_, &bulk_, &disk_, &policy_);
  // Touch many more pages than core + bulk can hold: 8 + 16 = 24 < 40.
  ActiveSegment* seg = NewSegment(1, 40);
  for (PageNo p = 0; p < 40; ++p) {
    WriteThrough(pc, seg, p, 0, p);
  }
  EXPECT_GT(pc.metrics().cascades, 0u);
  EXPECT_GT(pc.metrics().bulk_evictions, 0u);
  // Re-read a page that must have reached disk.
  EXPECT_EQ(ReadThrough(pc, seg, 0, 0), 0u);
  EXPECT_GT(pc.metrics().fetches_from_disk, 0u);
}

TEST_F(PageControlTest, SequentialFaultPathLengthGrowsUnderPressure) {
  SequentialPageControl pc(&machine_, &core_map_, &bulk_, &disk_, &policy_);
  ActiveSegment* seg = NewSegment(1, 40);
  for (PageNo p = 0; p < 40; ++p) {
    WriteThrough(pc, seg, p, 0, p);
  }
  // Under cascade pressure some fault paths execute 3 protected steps.
  EXPECT_EQ(pc.metrics().fault_path_steps.max(), 3.0);
}

TEST_F(PageControlTest, SequentialFlushWritesEverythingToDisk) {
  SequentialPageControl pc(&machine_, &core_map_, &bulk_, &disk_, &policy_);
  ActiveSegment* seg = NewSegment(1, 4);
  for (PageNo p = 0; p < 4; ++p) {
    WriteThrough(pc, seg, p, 9, 70 + p);
  }
  ASSERT_EQ(pc.FlushSegment(seg), Status::kOk);
  for (PageNo p = 0; p < 4; ++p) {
    EXPECT_EQ(seg->location[p].level, PageLevel::kDisk);
    EXPECT_FALSE(seg->page_table.entries[p].present);
  }
  EXPECT_EQ(core_map_.free_count(), 8u);
  // Deactivation is now legal, and reactivation finds the data.
  std::vector<DevAddr> homes;
  for (PageNo p = 0; p < 4; ++p) {
    homes.push_back(seg->location[p].addr);
  }
  ASSERT_EQ(ast_.Deactivate(1), Status::kOk);
  auto again = ast_.Activate(1, 4, homes);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(ReadThrough(pc, again.value(), 2, 9), 72u);
}

TEST_F(PageControlTest, ParallelDaemonKeepsFramesFree) {
  ParallelPageControl pc(&machine_, &core_map_, &bulk_, &disk_, &policy_,
                         ParallelPageControlConfig{.core_low_water = 2, .core_high_water = 4});
  ActiveSegment* seg = NewSegment(1, 8);
  for (PageNo p = 0; p < 8; ++p) {
    WriteThrough(pc, seg, p, 0, p);
  }
  // Core is now full; the daemon was woken. Let it run.
  machine_.events().RunUntilIdle();
  EXPECT_GE(core_map_.free_count(), 2u);
  EXPECT_GT(pc.core_daemon_wakeups(), 0u);
}

TEST_F(PageControlTest, ParallelPreservesDataThroughHierarchy) {
  ParallelPageControl pc(&machine_, &core_map_, &bulk_, &disk_, &policy_);
  ActiveSegment* a = NewSegment(1, 12);
  ActiveSegment* b = NewSegment(2, 12);
  for (PageNo p = 0; p < 12; ++p) {
    WriteThrough(pc, a, p, 3, 5000 + p);
    WriteThrough(pc, b, p, 3, 6000 + p);
  }
  machine_.events().RunUntilIdle();
  for (PageNo p = 0; p < 12; ++p) {
    EXPECT_EQ(ReadThrough(pc, a, p, 3), 5000 + p) << p;
    EXPECT_EQ(ReadThrough(pc, b, p, 3), 6000 + p) << p;
  }
}

TEST_F(PageControlTest, ParallelFaultPathIsAlwaysOneStep) {
  ParallelPageControl pc(&machine_, &core_map_, &bulk_, &disk_, &policy_);
  ActiveSegment* seg = NewSegment(1, 30);
  for (PageNo p = 0; p < 30; ++p) {
    WriteThrough(pc, seg, p, 0, p);
    machine_.events().RunUntil(machine_.clock().now());  // Let daemons breathe.
  }
  EXPECT_EQ(pc.metrics().fault_path_steps.max(), 1.0);  // The paper's claim.
}

TEST_F(PageControlTest, ParallelFlushDrainsInFlightWork) {
  ParallelPageControl pc(&machine_, &core_map_, &bulk_, &disk_, &policy_,
                         ParallelPageControlConfig{.core_low_water = 4, .core_high_water = 8});
  ActiveSegment* seg = NewSegment(1, 16);
  for (PageNo p = 0; p < 16; ++p) {
    WriteThrough(pc, seg, p, 1, 800 + p);
  }
  // Do not run events: evictions may be mid-flight. Flush must drain them.
  ASSERT_EQ(pc.FlushSegment(seg), Status::kOk);
  for (PageNo p = 0; p < 16; ++p) {
    EXPECT_EQ(seg->location[p].level, PageLevel::kDisk) << p;
  }
  ASSERT_EQ(pc.FlushSegment(seg), Status::kOk);  // Idempotent.
  EXPECT_EQ(ReadThrough(pc, seg, 7, 1), 807u);
}

// A flush home and the fetch back both release their source, so the page
// travels as the very block the frame held: no words are copied.
TEST_F(PageControlTest, FlushAndFetchHandTheBlockOver) {
  SequentialPageControl sequential(&machine_, &core_map_, &bulk_, &disk_, &policy_);
  ParallelPageControl parallel(&machine_, &core_map_, &bulk_, &disk_, &policy_);
  uint64_t uid = 1;
  for (PageControl* pc : std::initializer_list<PageControl*>{&sequential, &parallel}) {
    SCOPED_TRACE(pc->name());
    ActiveSegment* seg = NewSegment(uid++, 1);
    WriteThrough(*pc, seg, 0, 3, 42);
    auto block_of = [&](PageNo page) {
      const FrameIndex frame = seg->page_table.entries[page].frame;
      PageBlock block = machine_.core().TakePage(frame);
      const Word* words = block.get();
      machine_.core().PutPage(frame, std::move(block));
      return words;
    };
    const Word* written = block_of(0);
    ASSERT_NE(written, nullptr);
    ASSERT_EQ(pc->FlushSegment(seg), Status::kOk);
    ASSERT_EQ(seg->location[0].level, PageLevel::kDisk);
    EXPECT_EQ(ReadThrough(*pc, seg, 0, 3), 42u);
    EXPECT_EQ(block_of(0), written);
    ASSERT_EQ(pc->FlushSegment(seg), Status::kOk);
  }
}

TEST_F(PageControlTest, OutOfRangePageRejected) {
  SequentialPageControl pc(&machine_, &core_map_, &bulk_, &disk_, &policy_);
  ActiveSegment* seg = NewSegment(1, 2);
  EXPECT_EQ(pc.EnsureResident(seg, 2, AccessMode::kRead), Status::kOutOfRange);
}

TEST_F(PageControlTest, ResidentPageIsANoop) {
  SequentialPageControl pc(&machine_, &core_map_, &bulk_, &disk_, &policy_);
  ActiveSegment* seg = NewSegment(1, 1);
  ASSERT_EQ(pc.EnsureResident(seg, 0, AccessMode::kRead), Status::kOk);
  uint64_t faults = pc.metrics().faults;
  ASSERT_EQ(pc.EnsureResident(seg, 0, AccessMode::kRead), Status::kOk);
  EXPECT_EQ(pc.metrics().faults, faults);  // No new fault recorded.
}

// --- Page-control failure contract -------------------------------------------------
//
// A device fault that outlasts the device's retries must never lose a page:
// every path that moves or copies a page block either hands the block back
// to where it came from or leaves the authoritative copy in place. Each test
// arms a persistent fault on one device and one direction, drives the path,
// checks the page is still where it was, then clears the fault and reads
// every page back.

class PageControlFailureTest : public PageControlTest {
 protected:
  PageControlFailureTest() { machine_.SetInjector(&faults_); }
  ~PageControlFailureTest() override { machine_.SetInjector(nullptr); }

  // Stamps both ends of the page with `tag`.
  void Stamp(PageControl& pc, ActiveSegment* seg, PageNo page, Word tag) {
    WriteThrough(pc, seg, page, 0, tag);
    WriteThrough(pc, seg, page, kPageWords - 1, tag);
  }

  // Faults the page in (if needed) and checks both stamps.
  void ExpectStamp(PageControl& pc, ActiveSegment* seg, PageNo page, Word tag) {
    EXPECT_EQ(ReadThrough(pc, seg, page, 0), tag) << "page " << page;
    EXPECT_EQ(ReadThrough(pc, seg, page, kPageWords - 1), tag) << "page " << page;
  }

  // The first page of `seg` at `level`, or seg->pages if none is.
  static PageNo FirstAt(const ActiveSegment* seg, PageLevel level) {
    PageNo page = 0;
    while (page < seg->pages && seg->location[page].level != level) {
      ++page;
    }
    return page;
  }

  void StampAll(PageControl& pc, ActiveSegment* seg) {
    for (PageNo p = 0; p < seg->pages; ++p) {
      Stamp(pc, seg, p, 7000 + p);
    }
  }

  void ExpectAllStamps(PageControl& pc, ActiveSegment* seg) {
    for (PageNo p = 0; p < seg->pages; ++p) {
      ExpectStamp(pc, seg, p, 7000 + p);
    }
  }

  DeviceFaultSwitch faults_;
};

TEST_F(PageControlFailureTest, SequentialEvictionWriteFaultKeepsPageInCore) {
  SequentialPageControl pc(&machine_, &core_map_, &bulk_, &disk_, &policy_);
  ActiveSegment* seg = NewSegment(1, 9);
  for (PageNo p = 0; p < 8; ++p) {  // Fills core.
    Stamp(pc, seg, p, 7000 + p);
  }
  faults_.Arm(InjectSite::kDeviceWrite, "bulk");
  EXPECT_EQ(pc.EnsureResident(seg, 8, AccessMode::kWrite), Status::kDeviceError);
  EXPECT_GT(bulk_.failed_transfers(), 0u);
  EXPECT_EQ(bulk_.used_pages(), 0u);  // The slot went back.
  for (PageNo p = 0; p < 8; ++p) {
    EXPECT_TRUE(seg->page_table.entries[p].present) << p;  // Victim reconnected.
  }
  faults_.Disarm();
  Stamp(pc, seg, 8, 7008);
  EXPECT_GT(pc.metrics().core_evictions, 0u);
  ExpectAllStamps(pc, seg);
}

TEST_F(PageControlFailureTest, SequentialBulkToDiskWriteFaultKeepsBulkCopy) {
  SequentialPageControl pc(&machine_, &core_map_, &bulk_, &disk_, &policy_);
  ActiveSegment* seg = NewSegment(1, 25);
  for (PageNo p = 0; p < 24; ++p) {  // Fills core (8) and the bulk store (16).
    Stamp(pc, seg, p, 7000 + p);
  }
  ASSERT_TRUE(bulk_.Full());
  faults_.Arm(InjectSite::kDeviceWrite, "disk");
  EXPECT_EQ(pc.EnsureResident(seg, 24, AccessMode::kWrite), Status::kDeviceError);
  EXPECT_GT(disk_.failed_transfers(), 0u);
  EXPECT_EQ(pc.metrics().bulk_evictions, 0u);
  EXPECT_TRUE(bulk_.Full());  // The cascade victim is still on bulk.
  EXPECT_EQ(disk_.used_pages(), 0u);
  faults_.Disarm();
  Stamp(pc, seg, 24, 7024);
  EXPECT_GT(pc.metrics().bulk_evictions, 0u);
  ExpectAllStamps(pc, seg);
}

TEST_F(PageControlFailureTest, SequentialFetchReadFaultKeepsSlot) {
  SequentialPageControl pc(&machine_, &core_map_, &bulk_, &disk_, &policy_);
  ActiveSegment* seg = NewSegment(1, 10);
  StampAll(pc, seg);  // Pages 0 and 1 were evicted to bulk.
  ASSERT_EQ(seg->location[0].level, PageLevel::kBulk);
  faults_.Arm(InjectSite::kDeviceRead, "bulk");
  const uint32_t free_before = core_map_.free_count();
  EXPECT_EQ(pc.EnsureResident(seg, 0, AccessMode::kRead), Status::kDeviceError);
  EXPECT_EQ(core_map_.free_count(), free_before + 1);  // The victim's frame, not leaked.
  EXPECT_EQ(seg->location[0].level, PageLevel::kBulk);
  faults_.Disarm();
  ExpectAllStamps(pc, seg);

  // The same from disk.
  ASSERT_EQ(pc.FlushSegment(seg), Status::kOk);
  faults_.Arm(InjectSite::kDeviceRead, "disk");
  EXPECT_EQ(pc.EnsureResident(seg, 3, AccessMode::kRead), Status::kDeviceError);
  EXPECT_EQ(seg->location[3].level, PageLevel::kDisk);
  faults_.Disarm();
  ExpectAllStamps(pc, seg);
}

// FlushSegment is shared: run its contract under both designs.
class PageControlFlushFailureTest : public PageControlFailureTest,
                                    public ::testing::WithParamInterface<bool> {
 protected:
  std::unique_ptr<PageControl> MakeControl() {
    if (GetParam()) {
      return std::make_unique<ParallelPageControl>(&machine_, &core_map_, &bulk_, &disk_,
                                                   &policy_);
    }
    return std::make_unique<SequentialPageControl>(&machine_, &core_map_, &bulk_, &disk_,
                                                   &policy_);
  }
};

TEST_P(PageControlFlushFailureTest, FlushWriteFaultKeepsCoreCopy) {
  std::unique_ptr<PageControl> pc = MakeControl();
  ActiveSegment* seg = NewSegment(1, 4);
  StampAll(*pc, seg);
  faults_.Arm(InjectSite::kDeviceWrite, "disk");
  EXPECT_EQ(pc->FlushSegment(seg), Status::kDeviceError);
  EXPECT_EQ(seg->location[0].level, PageLevel::kCore);
  EXPECT_TRUE(seg->page_table.entries[0].present);
  EXPECT_EQ(disk_.used_pages(), 0u);
  faults_.Disarm();
  ExpectAllStamps(*pc, seg);
  ASSERT_EQ(pc->FlushSegment(seg), Status::kOk);
  EXPECT_EQ(seg->location[0].level, PageLevel::kDisk);
  ExpectAllStamps(*pc, seg);
}

TEST_P(PageControlFlushFailureTest, FlushWriteFaultKeepsBulkCopy) {
  std::unique_ptr<PageControl> pc = MakeControl();
  ActiveSegment* seg = NewSegment(1, 12);
  StampAll(*pc, seg);
  machine_.events().RunUntilIdle();  // Let any eviction land.
  // The flush writes pages home in order: make sure the first one it must
  // write is on bulk.
  const PageNo on_bulk = FirstAt(seg, PageLevel::kBulk);
  ASSERT_LT(on_bulk, seg->pages);
  for (PageNo p = 0; p < on_bulk; ++p) {
    ASSERT_EQ(seg->location[p].level, PageLevel::kDisk) << p;
  }
  const uint32_t bulk_used = bulk_.used_pages();
  const uint32_t disk_used = disk_.used_pages();
  faults_.Arm(InjectSite::kDeviceWrite, "disk");
  EXPECT_EQ(pc->FlushSegment(seg), Status::kDeviceError);
  EXPECT_EQ(seg->location[on_bulk].level, PageLevel::kBulk);
  EXPECT_EQ(bulk_.used_pages(), bulk_used);
  EXPECT_EQ(disk_.used_pages(), disk_used);
  faults_.Disarm();
  ExpectAllStamps(*pc, seg);
  ASSERT_EQ(pc->FlushSegment(seg), Status::kOk);
  ExpectAllStamps(*pc, seg);
}

// A page fetched from disk keeps its record as its home. A fault on the
// write that puts a modified page back into that home must leave the page
// in core, dirty and readable, and cost no disk record.
TEST_P(PageControlFlushFailureTest, DirtyHomeWriteFaultKeepsCoreCopy) {
  std::unique_ptr<PageControl> pc = MakeControl();
  ActiveSegment* seg = NewSegment(1, 4);
  StampAll(*pc, seg);
  ASSERT_EQ(pc->FlushSegment(seg), Status::kOk);
  ExpectAllStamps(*pc, seg);  // Every page back in core, lent by its home.
  const DevAddr home = seg->location[0].addr;
  ASSERT_EQ(seg->location[0].level, PageLevel::kCore);
  ASSERT_NE(home, kInvalidDevAddr);
  Stamp(*pc, seg, 0, 9100);
  const uint32_t disk_used = disk_.used_pages();
  faults_.Arm(InjectSite::kDeviceWrite, "disk");
  EXPECT_EQ(pc->FlushSegment(seg), Status::kDeviceError);
  EXPECT_GT(disk_.failed_transfers(), 0u);
  EXPECT_EQ(seg->location[0].level, PageLevel::kCore);
  EXPECT_EQ(seg->location[0].addr, home);
  EXPECT_TRUE(seg->page_table.entries[0].present);
  EXPECT_TRUE(seg->page_table.entries[0].modified);
  EXPECT_EQ(disk_.used_pages(), disk_used);
  ExpectStamp(*pc, seg, 0, 9100);
  faults_.Disarm();
  const uint64_t writes = disk_.writes();
  ASSERT_EQ(pc->FlushSegment(seg), Status::kOk);
  EXPECT_EQ(disk_.writes(), writes + 1);  // Only the dirty page; the rest go home clean.
  EXPECT_EQ(seg->location[0].level, PageLevel::kDisk);
  EXPECT_EQ(seg->location[0].addr, home);
  EXPECT_EQ(disk_.used_pages(), disk_used);
  ExpectStamp(*pc, seg, 0, 9100);
  for (PageNo p = 1; p < seg->pages; ++p) {
    ExpectStamp(*pc, seg, p, 7000 + p);
  }
}

INSTANTIATE_TEST_SUITE_P(BothDesigns, PageControlFlushFailureTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& design) {
                           return design.param ? "Parallel" : "Sequential";
                         });

// --- Disk homes: page control writes only modified pages ------------------------

class PageHomeTest : public PageControlFlushFailureTest {};

TEST_P(PageHomeTest, CleanPageGoesHomeWithoutAWrite) {
  std::unique_ptr<PageControl> pc = MakeControl();
  ActiveSegment* seg = NewSegment(1, 2);
  Stamp(*pc, seg, 0, 4400);
  ASSERT_EQ(pc->FlushSegment(seg), Status::kOk);
  const DevAddr home = seg->location[0].addr;
  const uint32_t disk_used = disk_.used_pages();
  ExpectStamp(*pc, seg, 0, 4400);  // Fetched from disk, never modified.
  EXPECT_EQ(seg->location[0].level, PageLevel::kCore);
  EXPECT_EQ(seg->location[0].addr, home);
  EXPECT_EQ(disk_.used_pages(), disk_used);  // The record stays the page's home.
  const uint64_t writes = disk_.writes();
  ASSERT_EQ(pc->FlushSegment(seg), Status::kOk);
  EXPECT_EQ(disk_.writes(), writes);
  EXPECT_EQ(seg->location[0].level, PageLevel::kDisk);
  EXPECT_EQ(seg->location[0].addr, home);
  EXPECT_EQ(disk_.used_pages(), disk_used);
  ExpectStamp(*pc, seg, 0, 4400);
}

TEST_P(PageHomeTest, DirtyPageIsRewrittenInItsHome) {
  std::unique_ptr<PageControl> pc = MakeControl();
  ActiveSegment* seg = NewSegment(1, 2);
  Stamp(*pc, seg, 0, 4500);
  ASSERT_EQ(pc->FlushSegment(seg), Status::kOk);
  const DevAddr home = seg->location[0].addr;
  Stamp(*pc, seg, 0, 4501);  // Fetched from disk, then modified.
  const uint32_t disk_used = disk_.used_pages();
  const uint64_t writes = disk_.writes();
  ASSERT_EQ(pc->FlushSegment(seg), Status::kOk);
  EXPECT_EQ(disk_.writes(), writes + 1);
  EXPECT_EQ(disk_.used_pages(), disk_used);
  EXPECT_EQ(seg->location[0].level, PageLevel::kDisk);
  EXPECT_EQ(seg->location[0].addr, home);
  ExpectStamp(*pc, seg, 0, 4501);
}

// Evicting a page to the bulk store makes the bulk copy its only one, so the
// disk home goes back to the free pool.
TEST_P(PageHomeTest, EvictionToBulkFreesTheHome) {
  std::unique_ptr<PageControl> pc = MakeControl();
  ActiveSegment* seg = NewSegment(1, 12);
  StampAll(*pc, seg);
  machine_.events().RunUntilIdle();
  ASSERT_EQ(pc->FlushSegment(seg), Status::kOk);
  ASSERT_EQ(disk_.used_pages(), 12u);
  ExpectAllStamps(*pc, seg);  // Fetches every page back; core holds only 8.
  machine_.events().RunUntilIdle();
  uint32_t homes = 0;
  for (PageNo p = 0; p < seg->pages; ++p) {
    const PageLoc& loc = seg->location[p];
    if (loc.level == PageLevel::kDisk ||
        (loc.level == PageLevel::kCore && loc.addr != kInvalidDevAddr)) {
      ++homes;
    }
  }
  EXPECT_GT(pc->metrics().core_evictions, 0u);
  EXPECT_LT(homes, 12u);
  EXPECT_EQ(disk_.used_pages(), homes);
  ExpectAllStamps(*pc, seg);
}

INSTANTIATE_TEST_SUITE_P(BothDesigns, PageHomeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& design) {
                           return design.param ? "Parallel" : "Sequential";
                         });

TEST_F(PageControlFailureTest, ParallelAsyncEvictionWriteFaultKeepsPageInCore) {
  ParallelPageControl pc(&machine_, &core_map_, &bulk_, &disk_, &policy_,
                         ParallelPageControlConfig{.core_low_water = 2, .core_high_water = 4});
  ActiveSegment* seg = NewSegment(1, 9);
  for (PageNo p = 0; p < 8; ++p) {  // Fills core and wakes the free-core daemon.
    Stamp(pc, seg, p, 7000 + p);
  }
  faults_.Arm(InjectSite::kDeviceWrite, "bulk");
  machine_.events().RunUntilIdle();  // The daemon's writes fail past their retries.
  EXPECT_GT(bulk_.failed_transfers(), 0u);
  EXPECT_EQ(pc.evictions_in_flight(), 0u);
  EXPECT_EQ(pc.metrics().core_evictions, 0u);  // Every eviction was undone.
  EXPECT_EQ(bulk_.used_pages(), 0u);
  for (PageNo p = 0; p < 8; ++p) {
    EXPECT_EQ(seg->location[p].level, PageLevel::kCore) << p;
    EXPECT_TRUE(seg->page_table.entries[p].present) << p;
  }
  faults_.Disarm();
  Stamp(pc, seg, 8, 7008);  // Needs a frame: the daemon now evicts for real.
  machine_.events().RunUntilIdle();
  EXPECT_GT(pc.metrics().core_evictions, 0u);
  ExpectAllStamps(pc, seg);
}

TEST_F(PageControlFailureTest, ParallelBulkToDiskWriteFaultKeepsBulkCopy) {
  // The free-bulk daemon starts moving pages to disk once fewer than 12 of
  // the 16 bulk slots are free.
  ParallelPageControl pc(
      &machine_, &core_map_, &bulk_, &disk_, &policy_,
      ParallelPageControlConfig{.bulk_low_water = 12, .bulk_high_water = 16});
  ActiveSegment* seg = NewSegment(1, 16);
  faults_.Arm(InjectSite::kDeviceWrite, "disk");
  for (PageNo p = 0; p < seg->pages; ++p) {
    Stamp(pc, seg, p, 7000 + p);
    machine_.events().RunUntil(machine_.clock().now());
  }
  machine_.events().RunUntilIdle();
  EXPECT_GT(pc.bulk_daemon_wakeups(), 0u);
  EXPECT_GT(pc.metrics().bulk_evictions, 0u);  // Moves were attempted...
  EXPECT_GT(disk_.failed_transfers(), 0u);     // ...and every disk write failed.
  EXPECT_EQ(disk_.used_pages(), 0u);
  for (PageNo p = 0; p < seg->pages; ++p) {
    EXPECT_NE(seg->location[p].level, PageLevel::kDisk) << p;
    EXPECT_NE(seg->location[p].level, PageLevel::kInTransit) << p;
  }
  faults_.Disarm();
  ExpectAllStamps(pc, seg);
}

TEST_F(PageControlFailureTest, ParallelUrgentFetchReadFaultKeepsSlot) {
  ParallelPageControl pc(&machine_, &core_map_, &bulk_, &disk_, &policy_);
  ActiveSegment* seg = NewSegment(1, 12);
  StampAll(pc, seg);
  machine_.events().RunUntilIdle();  // The free-bulk daemon moves some to disk.
  for (PageLevel level : {PageLevel::kBulk, PageLevel::kDisk}) {
    const PageNo page = FirstAt(seg, level);
    ASSERT_LT(page, seg->pages) << PageLevelName(level);
    PagingDevice& device = level == PageLevel::kBulk ? bulk_ : disk_;
    const uint32_t free_before = core_map_.free_count();
    const uint32_t used_before = device.used_pages();
    faults_.Arm(InjectSite::kDeviceRead, device.name());
    EXPECT_EQ(pc.EnsureResident(seg, page, AccessMode::kRead), Status::kDeviceError);
    EXPECT_EQ(core_map_.free_count(), free_before);  // The frame went back.
    EXPECT_EQ(seg->location[page].level, level);
    EXPECT_EQ(device.used_pages(), used_before);
    faults_.Disarm();
    ExpectStamp(pc, seg, page, 7000 + page);
  }
  ExpectAllStamps(pc, seg);
}

// --- Policy/mechanism gates -------------------------------------------------------

class PolicyGateTest : public PageControlTest {};

TEST_F(PolicyGateTest, GateCrossingsAreCountedAndCharged) {
  PageMechanismGates gates(&machine_, &core_map_);
  Cycles before = machine_.clock().now();
  (void)gates.FrameCount();
  (void)gates.GetUsage(0);
  gates.ClearUsedBit(0);
  EXPECT_EQ(gates.gate_crossings(), 3u);
  EXPECT_GT(machine_.clock().now(), before);
}

TEST_F(PolicyGateTest, GarbageArgumentsAnsweredNotTrusted) {
  PageMechanismGates gates(&machine_, &core_map_);
  auto usage = gates.GetUsage(UINT32_MAX);
  EXPECT_FALSE(usage.valid);
  gates.ClearUsedBit(UINT32_MAX);  // Must not crash anything.
  EXPECT_EQ(gates.rejected_arguments(), 2u);
}

TEST_F(PolicyGateTest, GatedClockBehavesLikeDirectClock) {
  PageMechanismGates gates(&machine_, &core_map_);
  GatedClockPolicy gated(&gates);
  ActiveSegment seg(1, 4);
  for (uint32_t i = 0; i < 3; ++i) {
    auto f = core_map_.AllocateFree();
    ASSERT_TRUE(f.ok());
    core_map_.Bind(f.value(), &seg, i);
  }
  seg.page_table.entries[core_map_.info(0).page].used = true;
  FrameIndex victim = gated.SelectVictim(core_map_);
  EXPECT_NE(victim, kInvalidFrame);
  EXPECT_NE(victim, 0u);  // Second chance honoured, through gates only.
}

TEST_F(PolicyGateTest, MaliciousPolicyCausesOnlyDenial) {
  PageMechanismGates gates(&machine_, &core_map_);
  MaliciousPolicy evil(&gates, /*seed=*/99);
  SequentialPageControl pc(&machine_, &core_map_, &bulk_, &disk_, &evil);

  ActiveSegment* a = NewSegment(1, 8);
  ActiveSegment* b = NewSegment(2, 8);
  for (PageNo p = 0; p < 8; ++p) {
    WriteThrough(pc, a, p, 5, 1000 + p);
    WriteThrough(pc, b, p, 5, 2000 + p);
  }
  // The malicious policy thrashed (denial), but every word survives:
  // integrity and confidentiality were never in its hands.
  for (PageNo p = 0; p < 8; ++p) {
    EXPECT_EQ(ReadThrough(pc, a, p, 5), 1000 + p);
    EXPECT_EQ(ReadThrough(pc, b, p, 5), 2000 + p);
  }
  EXPECT_GT(evil.garbage_probes(), 0u);
  EXPECT_GT(gates.rejected_arguments(), 0u);
}

TEST_F(PolicyGateTest, MaliciousPolicyThrashesMoreThanClock) {
  // Same reference string under clock vs malicious policy: the malicious
  // one must induce at least as many (in practice many more) evictions.
  auto run = [&](bool malicious) -> uint64_t {
    Machine machine(MachineConfig{.core_frames = 8});
    CoreMap core_map(8);
    PagingDevice bulk("bulk", 64, 2000, 2000, &machine);
    PagingDevice disk("disk", 512, 20000, 20000, &machine);
    ActiveSegmentTable ast(8);
    PageMechanismGates gates(&machine, &core_map);
    ClockPolicy good_policy;
    MaliciousPolicy evil_policy(&gates, /*seed=*/7);
    ReplacementPolicy* policy =
        malicious ? static_cast<ReplacementPolicy*>(&evil_policy) : &good_policy;
    SequentialPageControl pc(&machine, &core_map, &bulk, &disk, policy);
    auto seg = ast.Activate(1, 16, {});
    CHECK(seg.ok());
    // Loop with strong locality over the first 6 pages, occasional far touch.
    uint64_t faults = 0;
    for (int round = 0; round < 40; ++round) {
      for (PageNo p = 0; p < 6; ++p) {
        uint64_t before = pc.metrics().faults;
        CHECK(pc.EnsureResident(seg.value(), p, AccessMode::kRead) == Status::kOk);
        seg.value()->page_table.entries[p].used = true;
        faults += pc.metrics().faults - before;
      }
      PageNo far = 6 + (round % 10);
      uint64_t before = pc.metrics().faults;
      CHECK(pc.EnsureResident(seg.value(), far, AccessMode::kRead) == Status::kOk);
      faults += pc.metrics().faults - before;
    }
    return faults;
  };

  uint64_t good_faults = run(false);
  uint64_t evil_faults = run(true);
  EXPECT_GT(evil_faults, good_faults);
}

}  // namespace
}  // namespace multics
