// Unit tests for the simulated hardware: ring-bracket rules, SDW access
// checks, fault resolution, gate calls in both ring modes, interrupts.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/hw/core_memory.h"
#include "src/hw/machine.h"
#include "src/hw/processor.h"
#include "src/hw/ring.h"
#include "src/hw/sdw.h"
#include "src/proc/process.h"

namespace multics {
namespace {

// --- Ring-bracket rule tests -------------------------------------------------

TEST(RingBracketsTest, ValidityRequiresMonotoneTriple) {
  EXPECT_TRUE((RingBrackets{0, 0, 5}).Valid());
  EXPECT_TRUE((RingBrackets{1, 4, 5}).Valid());
  EXPECT_FALSE((RingBrackets{4, 1, 5}).Valid());
  EXPECT_FALSE((RingBrackets{1, 5, 4}).Valid());
}

TEST(RingBracketsTest, WriteRequiresRingAtMostR1) {
  RingBrackets b{2, 4, 6};
  EXPECT_EQ(CheckRingBrackets(0, b, AccessMode::kWrite), RingCheck::kAllowed);
  EXPECT_EQ(CheckRingBrackets(2, b, AccessMode::kWrite), RingCheck::kAllowed);
  EXPECT_EQ(CheckRingBrackets(3, b, AccessMode::kWrite), RingCheck::kDenied);
  EXPECT_EQ(CheckRingBrackets(7, b, AccessMode::kWrite), RingCheck::kDenied);
}

TEST(RingBracketsTest, ReadRequiresRingAtMostR2) {
  RingBrackets b{2, 4, 6};
  EXPECT_EQ(CheckRingBrackets(4, b, AccessMode::kRead), RingCheck::kAllowed);
  EXPECT_EQ(CheckRingBrackets(5, b, AccessMode::kRead), RingCheck::kDenied);
}

TEST(RingBracketsTest, CallAboveR2UpToR3NeedsGate) {
  RingBrackets b{0, 0, 5};
  EXPECT_EQ(CheckRingBrackets(0, b, AccessMode::kCall), RingCheck::kAllowed);
  EXPECT_EQ(CheckRingBrackets(1, b, AccessMode::kCall), RingCheck::kGateRequired);
  EXPECT_EQ(CheckRingBrackets(5, b, AccessMode::kCall), RingCheck::kGateRequired);
  EXPECT_EQ(CheckRingBrackets(6, b, AccessMode::kCall), RingCheck::kDenied);
}

TEST(RingBracketsTest, CallBelowWriteBracketIsOutward) {
  RingBrackets b{4, 4, 4};
  EXPECT_EQ(CheckRingBrackets(1, b, AccessMode::kCall), RingCheck::kOutwardCall);
}

TEST(RingBracketsTest, InwardCallLandsAtTopOfExecuteBracket) {
  RingBrackets b{0, 1, 5};
  EXPECT_EQ(TargetRingForCall(4, b), 1);
  EXPECT_EQ(TargetRingForCall(1, b), 1);
  EXPECT_EQ(TargetRingForCall(0, b), 0);
}

// --- Processor fixtures ------------------------------------------------------

class ProcessorTest : public ::testing::Test {
 public:
  ProcessorTest() : machine_(MachineConfig{}), cpu_(&machine_) {
    cpu_.AttachAddressSpace(&dseg_);
    cpu_.SetRing(kRingUser);
  }

  // Installs a fully-present segment backed by consecutive core frames.
  void InstallSegment(SegNo segno, uint32_t pages, RingBrackets brackets, bool r, bool w,
                      bool e, bool gate = false, uint32_t gate_entries = 0) {
    auto table = std::make_unique<PageTable>(pages);
    for (uint32_t p = 0; p < pages; ++p) {
      table->entries[p].present = true;
      table->entries[p].frame = next_frame_++;
    }
    SegmentDescriptor sdw;
    sdw.valid = true;
    sdw.page_table = table.get();
    sdw.length_pages = pages;
    sdw.brackets = brackets;
    sdw.read = r;
    sdw.write = w;
    sdw.execute = e;
    sdw.gate = gate;
    sdw.gate_entries = gate_entries;
    dseg_.Set(segno, sdw);
    tables_.push_back(std::move(table));
  }

  Machine machine_;
  DescriptorSegment dseg_;
  Processor cpu_;
  std::vector<std::unique_ptr<PageTable>> tables_;
  FrameIndex next_frame_ = 0;
};

TEST_F(ProcessorTest, ReadWriteRoundTrip) {
  InstallSegment(10, 2, UserBrackets(), true, true, false);
  ASSERT_EQ(cpu_.Write(10, 1500, 0xDEADBEEF), Status::kOk);
  auto r = cpu_.Read(10, 1500);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0xDEADBEEFu);
}

TEST_F(ProcessorTest, WriteDeniedWithoutWBit) {
  InstallSegment(10, 1, UserBrackets(), true, false, false);
  EXPECT_EQ(cpu_.Write(10, 0, 1), Status::kAccessDenied);
  EXPECT_TRUE(cpu_.Read(10, 0).ok());
}

TEST_F(ProcessorTest, ReadDeniedWithoutRBit) {
  InstallSegment(10, 1, UserBrackets(), false, true, false);
  EXPECT_EQ(cpu_.Read(10, 0).status(), Status::kAccessDenied);
}

TEST_F(ProcessorTest, RingBracketsOverridePermissionBits) {
  // Writable segment, but write bracket is ring 0 and we run in ring 4.
  InstallSegment(10, 1, RingBrackets{0, 4, 4}, true, true, false);
  EXPECT_EQ(cpu_.Write(10, 0, 1), Status::kRingViolation);
  EXPECT_TRUE(cpu_.Read(10, 0).ok());
}

TEST_F(ProcessorTest, OutOfBoundsReference) {
  InstallSegment(10, 2, UserBrackets(), true, true, false);
  EXPECT_EQ(cpu_.Read(10, 2 * kPageWords).status(), Status::kOutOfRange);
  EXPECT_EQ(cpu_.Read(kMaxSegments + 5, 0).status(), Status::kNoSuchSegment);
}

TEST_F(ProcessorTest, InvalidSdwFaultsToSink) {
  class Activator : public FaultSink {
   public:
    explicit Activator(ProcessorTest* t) : test_(t) {}
    Status HandleSegmentFault(SegNo segno) override {
      ++count;
      test_->InstallSegment(segno, 1, UserBrackets(), true, true, false);
      return Status::kOk;
    }
    Status HandlePageFault(SegNo, PageNo, AccessMode) override { return Status::kInternal; }
    ProcessorTest* test_;
    int count = 0;
  };
  Activator sink(this);
  cpu_.SetFaultSink(&sink);
  EXPECT_EQ(cpu_.Write(33, 5, 7), Status::kOk);
  EXPECT_EQ(sink.count, 1);
  EXPECT_EQ(cpu_.segment_faults(), 1u);
  // Second reference takes no fault.
  EXPECT_TRUE(cpu_.Read(33, 5).ok());
  EXPECT_EQ(sink.count, 1);
}

TEST_F(ProcessorTest, MissingPageFaultsToSink) {
  InstallSegment(10, 1, UserBrackets(), true, true, false);
  tables_.back()->entries[0].present = false;
  class Pager : public FaultSink {
   public:
    explicit Pager(PageTable* table, FrameIndex frame) : table_(table), frame_(frame) {}
    Status HandleSegmentFault(SegNo) override { return Status::kNoSuchSegment; }
    Status HandlePageFault(SegNo, PageNo page, AccessMode) override {
      ++count;
      table_->entries[page].present = true;
      table_->entries[page].frame = frame_;
      return Status::kOk;
    }
    PageTable* table_;
    FrameIndex frame_;
    int count = 0;
  };
  Pager sink(tables_.back().get(), 99);
  cpu_.SetFaultSink(&sink);
  EXPECT_EQ(cpu_.Write(10, 3, 11), Status::kOk);
  EXPECT_EQ(sink.count, 1);
  EXPECT_EQ(cpu_.page_faults(), 1u);
  EXPECT_EQ(machine_.core().ReadWord(99, 3), 11u);
}

TEST_F(ProcessorTest, UsedAndModifiedBitsMaintained) {
  InstallSegment(10, 1, UserBrackets(), true, true, false);
  PageTable* table = tables_.back().get();
  EXPECT_FALSE(table->entries[0].used);
  EXPECT_TRUE(cpu_.Read(10, 0).ok());
  EXPECT_TRUE(table->entries[0].used);
  EXPECT_FALSE(table->entries[0].modified);
  EXPECT_EQ(cpu_.Write(10, 0, 1), Status::kOk);
  EXPECT_TRUE(table->entries[0].modified);
}

TEST_F(ProcessorTest, WalkCacheSeesPermissionRevocation) {
  InstallSegment(10, 2, UserBrackets(), true, true, false);
  // Warm the per-mode walk caches with a successful write and read.
  ASSERT_EQ(cpu_.Write(10, 0, 1), Status::kOk);
  ASSERT_TRUE(cpu_.Read(10, 0).ok());
  // Narrow the SDW in place (the revocation path): the epoch bump must evict
  // the cached walk immediately — a cached translation may never outlive the
  // permissions it was validated under.
  dseg_.GetMutable(10)->write = false;
  EXPECT_EQ(cpu_.Write(10, 0, 2), Status::kAccessDenied);
  EXPECT_TRUE(cpu_.Read(10, 0).ok());  // Read stays legal.
  // Full revocation: the cached read walk must not survive Clear() either.
  dseg_.Clear(10);
  EXPECT_EQ(cpu_.Read(10, 0).status(), Status::kNoSuchSegment);
}

TEST_F(ProcessorTest, WalkCacheSeesPageEviction) {
  InstallSegment(10, 2, UserBrackets(), true, true, false);
  PageTable* table = tables_.back().get();
  ASSERT_TRUE(cpu_.Read(10, 0).ok());  // Warm the cache.
  // Evict the page underneath the cached walk. PTE state is re-read on every
  // reference, so the next read takes the page-fault path, not a stale frame.
  table->entries[0].present = false;
  class Pager : public FaultSink {
   public:
    explicit Pager(PageTable* table) : table_(table) {}
    Status HandleSegmentFault(SegNo) override { return Status::kNoSuchSegment; }
    Status HandlePageFault(SegNo, PageNo page, AccessMode) override {
      ++count;
      table_->entries[page].present = true;
      return Status::kOk;
    }
    PageTable* table_;
    int count = 0;
  };
  Pager sink(table);
  cpu_.SetFaultSink(&sink);
  EXPECT_TRUE(cpu_.Read(10, 0).ok());
  EXPECT_EQ(sink.count, 1);
  EXPECT_EQ(cpu_.page_faults(), 1u);
}

TEST_F(ProcessorTest, WalkCacheIsPerRing) {
  // Readable only from ring 1 and below; the cached ring-4 denial state must
  // not leak a ring-1 success into ring 4 or vice versa.
  InstallSegment(10, 1, RingBrackets{0, 1, 1}, true, false, false);
  EXPECT_EQ(cpu_.Read(10, 0).status(), Status::kRingViolation);
  cpu_.SetRing(1);
  EXPECT_TRUE(cpu_.Read(10, 0).ok());
  cpu_.SetRing(kRingUser);
  EXPECT_EQ(cpu_.Read(10, 0).status(), Status::kRingViolation);
}

TEST_F(ProcessorTest, WalkCacheSeesPageAllocatingSet) {
  InstallSegment(10, 1, UserBrackets(), true, true, false);
  // Keep a pointer to the SDW, then warm the read walk cache.
  SegmentDescriptor* sdw = dseg_.GetMutable(10);
  ASSERT_TRUE(cpu_.Read(10, 0).ok());
  // A write through the kept pointer bypasses the epoch, so the cached walk
  // still hits: this is what makes the check below observable.
  sdw->read = false;
  ASSERT_TRUE(cpu_.Read(10, 0).ok());
  // A Set that allocates a fresh SDW page takes a new epoch like any other
  // mutation, so the next reference walks again and sees the revoked bit.
  const uint64_t before = dseg_.epoch();
  InstallSegment(kMaxSegments - 1, 1, UserBrackets(), true, true, false);
  EXPECT_NE(dseg_.epoch(), before);
  EXPECT_EQ(cpu_.Read(10, 0).status(), Status::kAccessDenied);
}

TEST_F(ProcessorTest, IntraRingCallKeepsRing) {
  InstallSegment(20, 1, UserBrackets(), true, false, true);
  ASSERT_EQ(cpu_.Call(20, 0), Status::kOk);
  EXPECT_EQ(cpu_.ring(), kRingUser);
  EXPECT_EQ(cpu_.intra_ring_calls(), 1u);
  ASSERT_EQ(cpu_.Return(), Status::kOk);
  EXPECT_EQ(cpu_.ring(), kRingUser);
}

TEST_F(ProcessorTest, GateCallSwitchesRingAndReturnRestores) {
  InstallSegment(20, 1, KernelGateBrackets(kRingUser), false, false, true, /*gate=*/true,
                 /*gate_entries=*/4);
  ASSERT_EQ(cpu_.Call(20, 2), Status::kOk);
  EXPECT_EQ(cpu_.ring(), kRingKernel);
  EXPECT_EQ(cpu_.cross_ring_calls(), 1u);
  ASSERT_EQ(cpu_.Return(), Status::kOk);
  EXPECT_EQ(cpu_.ring(), kRingUser);
}

TEST_F(ProcessorTest, CallAboveGateEntriesRejected) {
  InstallSegment(20, 1, KernelGateBrackets(kRingUser), false, false, true, true, 4);
  EXPECT_EQ(cpu_.Call(20, 4), Status::kNotAGate);
  EXPECT_EQ(cpu_.ring(), kRingUser);
}

TEST_F(ProcessorTest, CallToNonGateInnerSegmentRejected) {
  // Brackets admit ring-4 callers, but the segment is not flagged as a gate.
  InstallSegment(20, 1, KernelGateBrackets(kRingUser), false, false, true, /*gate=*/false);
  EXPECT_EQ(cpu_.Call(20, 0), Status::kNotAGate);
}

TEST_F(ProcessorTest, CallCompletelyOutsideBracketsIsRingViolation) {
  InstallSegment(20, 1, KernelPrivateBrackets(), false, false, true);
  EXPECT_EQ(cpu_.Call(20, 0), Status::kRingViolation);
}

TEST_F(ProcessorTest, CallBeyondGateLimitRejected) {
  InstallSegment(20, 1, KernelGateBrackets(/*callers=*/2), false, false, true, true, 4);
  cpu_.SetRing(4);
  EXPECT_EQ(cpu_.Call(20, 0), Status::kRingViolation);
}

TEST_F(ProcessorTest, ReturnWithoutCallFails) {
  EXPECT_EQ(cpu_.Return(), Status::kFailedPrecondition);
}

TEST_F(ProcessorTest, CallDepthIsBounded) {
  InstallSegment(20, 1, UserBrackets(), true, false, true);
  for (uint32_t i = 0; i < Processor::kMaxCallDepth; ++i) {
    ASSERT_EQ(cpu_.Call(20, 0), Status::kOk) << i;
  }
  EXPECT_EQ(cpu_.Call(20, 0), Status::kResourceExhausted);
  // Unwinding restores service.
  ASSERT_EQ(cpu_.Return(), Status::kOk);
  EXPECT_EQ(cpu_.Call(20, 0), Status::kOk);
}

TEST_F(ProcessorTest, NestedCallsUnwindCorrectly) {
  InstallSegment(20, 1, KernelGateBrackets(kRingUser), false, false, true, true, 8);
  InstallSegment(21, 1, KernelPrivateBrackets(), true, false, true);
  ASSERT_EQ(cpu_.Call(20, 0), Status::kOk);  // 4 -> 0 through gate.
  ASSERT_EQ(cpu_.Call(21, 0), Status::kOk);  // 0 -> 0 intra-ring.
  EXPECT_EQ(cpu_.ring(), kRingKernel);
  EXPECT_EQ(cpu_.call_depth(), 2u);
  ASSERT_EQ(cpu_.Return(), Status::kOk);
  EXPECT_EQ(cpu_.ring(), kRingKernel);
  ASSERT_EQ(cpu_.Return(), Status::kOk);
  EXPECT_EQ(cpu_.ring(), kRingUser);
}

TEST_F(ProcessorTest, HardwareCrossRingCallCostsSameAsIntraRing) {
  InstallSegment(20, 1, UserBrackets(), true, false, true);
  InstallSegment(21, 1, KernelGateBrackets(kRingUser), false, false, true, true, 4);

  Cycles before = machine_.clock().now();
  ASSERT_EQ(cpu_.Call(20, 0), Status::kOk);
  Cycles intra = machine_.clock().now() - before;
  ASSERT_EQ(cpu_.Return(), Status::kOk);

  before = machine_.clock().now();
  ASSERT_EQ(cpu_.Call(21, 0), Status::kOk);
  Cycles cross = machine_.clock().now() - before;
  EXPECT_EQ(cross, intra);  // The paper's 6180 claim, literally.
}

TEST_F(ProcessorTest, SoftwareCrossRingCallCostsMuchMore) {
  machine_.set_ring_mode(RingMode::kSoftware645);
  InstallSegment(20, 1, UserBrackets(), true, false, true);
  InstallSegment(21, 1, KernelGateBrackets(kRingUser), false, false, true, true, 4);

  Cycles before = machine_.clock().now();
  ASSERT_EQ(cpu_.Call(20, 0), Status::kOk);
  Cycles intra = machine_.clock().now() - before;
  ASSERT_EQ(cpu_.Return(), Status::kOk);

  before = machine_.clock().now();
  ASSERT_EQ(cpu_.Call(21, 0, /*arg_words=*/8), Status::kOk);
  Cycles cross = machine_.clock().now() - before;
  EXPECT_GT(cross, 10 * intra);  // The 645 penalty that shaped the old supervisor.
}

TEST_F(ProcessorTest, OutwardCallFaultsByDefault) {
  InstallSegment(20, 1, UserBrackets(), true, false, true);
  cpu_.SetRing(1);
  EXPECT_EQ(cpu_.Call(20, 0), Status::kRingViolation);
  cpu_.set_allow_outward_calls(true);
  EXPECT_EQ(cpu_.Call(20, 0), Status::kOk);
  EXPECT_EQ(cpu_.ring(), kRingUser);
}

// --- Descriptor segment ------------------------------------------------------

TEST(DescriptorSegmentTest, FreshSegmentIsAllInvalid) {
  DescriptorSegment dseg;
  for (SegNo segno = 0; segno < kMaxSegments; ++segno) {
    ASSERT_FALSE(dseg.Get(segno).valid) << segno;
  }
  EXPECT_EQ(dseg.CountValid(), 0u);
}

TEST(DescriptorSegmentTest, LastSegnoRoundTrips) {
  DescriptorSegment dseg;
  SegmentDescriptor sdw;
  sdw.valid = true;
  sdw.read = true;
  sdw.length_pages = 3;
  sdw.uid = 42;
  dseg.Set(kMaxSegments - 1, sdw);
  const SegmentDescriptor& got = dseg.Get(kMaxSegments - 1);
  EXPECT_TRUE(got.valid);
  EXPECT_TRUE(got.read);
  EXPECT_FALSE(got.write);
  EXPECT_EQ(got.length_pages, 3u);
  EXPECT_EQ(got.uid, 42u);
  EXPECT_FALSE(dseg.Get(kMaxSegments - 2).valid);
  EXPECT_EQ(dseg.CountValid(), 1u);
}

TEST(DescriptorSegmentTest, GetMutableOfUnsetSegnoIsWritableAndBumpsEpoch) {
  DescriptorSegment dseg;
  const uint64_t before = dseg.epoch();
  SegmentDescriptor* sdw = dseg.GetMutable(700);
  ASSERT_NE(sdw, nullptr);
  EXPECT_FALSE(sdw->valid);
  EXPECT_NE(dseg.epoch(), before);
  sdw->valid = true;
  sdw->write = true;
  EXPECT_TRUE(dseg.Get(700).valid);
  EXPECT_TRUE(dseg.Get(700).write);
  EXPECT_EQ(dseg.CountValid(), 1u);
}

TEST(DescriptorSegmentTest, ClearOfUnallocatedSlotBumpsEpoch) {
  DescriptorSegment dseg;
  const uint64_t before = dseg.epoch();
  dseg.Clear(1234);
  EXPECT_NE(dseg.epoch(), before);
  EXPECT_FALSE(dseg.Get(1234).valid);
}

TEST(DescriptorSegmentTest, SegnoBeyondCapacityRefused) {
  DescriptorSegment dseg;
  SegmentDescriptor sdw;
  sdw.valid = true;
  dseg.Set(kMaxSegments, sdw);
  EXPECT_FALSE(dseg.Get(kMaxSegments).valid);
  EXPECT_FALSE(dseg.Get(kMaxSegments + 100).valid);
  EXPECT_EQ(dseg.GetMutable(kMaxSegments), nullptr);
  EXPECT_EQ(dseg.CountValid(), 0u);
}

TEST(DescriptorSegmentTest, SdwAddressesStableAcrossPageAllocation) {
  DescriptorSegment dseg;
  SegmentDescriptor sdw;
  sdw.valid = true;
  dseg.Set(5, sdw);
  const SegmentDescriptor* first = &dseg.Get(5);
  SegmentDescriptor* mutable_first = dseg.GetMutable(5);
  EXPECT_EQ(mutable_first, first);
  // Touch every other page of the descriptor segment.
  for (SegNo segno = DescriptorSegment::kSdwsPerPage; segno < kMaxSegments;
       segno += DescriptorSegment::kSdwsPerPage) {
    dseg.Set(segno, sdw);
  }
  EXPECT_EQ(&dseg.Get(5), first);
  EXPECT_EQ(dseg.CountValid(), 1u + DescriptorSegment::kPageCount - 1u);
}

TEST(DescriptorSegmentTest, ForEachValidVisitsInSegnoOrder) {
  DescriptorSegment dseg;
  SegmentDescriptor sdw;
  sdw.valid = true;
  for (SegNo segno : {4000u, 3u, 64u, 63u, 1000u}) {
    sdw.uid = segno;
    dseg.Set(segno, sdw);
  }
  dseg.Set(65, SegmentDescriptor{});  // Allocated page, invalid slot.
  dseg.Clear(1000);
  std::vector<SegNo> seen;
  dseg.ForEachValid([&](SegNo segno, const SegmentDescriptor& d) {
    EXPECT_EQ(d.uid, segno);
    seen.push_back(segno);
  });
  EXPECT_EQ(seen, (std::vector<SegNo>{3, 63, 64, 4000}));
  EXPECT_EQ(dseg.CountValid(), 4u);
}

TEST(DescriptorSegmentTest, ProcessFootprintFollowsUsedSegnos) {
  // A process carries a page directory, not kMaxSegments SDWs: the SDW pages
  // are allocated as segment numbers are used.
  EXPECT_LT(sizeof(Process), 4096u);
}

// --- Core memory -------------------------------------------------------------

// A page block whose word i is i * step + base.
PageBlock SequencePage(Word step, Word base) {
  PageBlock page = std::make_unique<Word[]>(kPageWords);
  for (uint32_t i = 0; i < kPageWords; ++i) {
    page[i] = i * step + base;
  }
  return page;
}

// Every word of a frame, read one at a time.
std::vector<Word> FrameWords(const CoreMemory& core, FrameIndex frame) {
  std::vector<Word> words(kPageWords);
  for (uint32_t i = 0; i < kPageWords; ++i) {
    words[i] = core.ReadWord(frame, i);
  }
  return words;
}

std::vector<Word> BlockWords(const PageBlock& block) {
  if (block == nullptr) {
    return std::vector<Word>(kPageWords, 0);
  }
  return std::vector<Word>(block.get(), block.get() + kPageWords);
}

TEST(CoreMemoryTest, PageTransferRoundTrip) {
  CoreMemory core(4);
  PageBlock page = SequencePage(3, 0);
  const std::vector<Word> expected = BlockWords(page);
  core.PutPage(2, std::move(page));
  EXPECT_EQ(FrameWords(core, 2), expected);
  EXPECT_EQ(BlockWords(core.CopyPage(2)), expected);
  core.ZeroPage(2);
  EXPECT_EQ(core.ReadWord(2, 100), 0u);
}

TEST(CoreMemoryTest, UnwrittenFrameReadsZero) {
  CoreMemory core(4);
  EXPECT_EQ(core.frame_count(), 4u);
  EXPECT_EQ(core.ReadWord(3, 0), 0u);
  EXPECT_EQ(core.ReadWord(3, kPageWords - 1), 0u);
  EXPECT_EQ(core.CopyPage(1), nullptr);  // A page of zeros copies as null.
  EXPECT_EQ(core.TakePage(1), nullptr);
  core.ZeroPage(0);  // Zeroing a never-written frame is a no-op.
  EXPECT_EQ(core.ReadWord(0, 5), 0u);
  EXPECT_EQ(core.CopyPage(0), nullptr);
}

TEST(CoreMemoryTest, FirstWordWriteLeavesRestOfFrameZero) {
  CoreMemory core(2);
  core.WriteWord(1, 17, 5);
  std::vector<Word> expected(kPageWords, 0);
  expected[17] = 5;
  EXPECT_EQ(BlockWords(core.CopyPage(1)), expected);
  EXPECT_EQ(core.ReadWord(0, 17), 0u);  // Other frames untouched.
}

TEST(CoreMemoryTest, PutPageOntoUnwrittenFrameThenZero) {
  CoreMemory core(3);
  PageBlock page = SequencePage(1, 1);
  const std::vector<Word> expected = BlockWords(page);
  core.PutPage(0, std::move(page));
  EXPECT_EQ(FrameWords(core, 0), expected);
  core.WriteWord(0, 9, 1234);
  EXPECT_EQ(core.ReadWord(0, 9), 1234u);
  core.ZeroPage(0);
  EXPECT_EQ(FrameWords(core, 0), std::vector<Word>(kPageWords, 0));
}

TEST(CoreMemoryTest, TakePageMovesTheBlockOut) {
  CoreMemory core(2);
  PageBlock page = SequencePage(7, 2);
  const Word* words = page.get();
  core.PutPage(1, std::move(page));
  PageBlock taken = core.TakePage(1);
  EXPECT_EQ(taken.get(), words);  // The same block: no words were copied.
  EXPECT_EQ(FrameWords(core, 1), std::vector<Word>(kPageWords, 0));
  EXPECT_EQ(core.CopyPage(1), nullptr);
  core.PutPage(0, std::move(taken));
  EXPECT_EQ(core.ReadWord(0, 3), 3u * 7 + 2);
}

TEST(CoreMemoryTest, CopyPageLeavesTheFrameIntact) {
  CoreMemory core(1);
  core.PutPage(0, SequencePage(5, 0));
  PageBlock copy = core.CopyPage(0);
  ASSERT_NE(copy, nullptr);
  copy[4] = 99;  // A distinct block: the frame does not see the change.
  EXPECT_EQ(core.ReadWord(0, 4), 20u);
  EXPECT_EQ(BlockWords(core.TakePage(0)), BlockWords(SequencePage(5, 0)));
}

TEST(CoreMemoryTest, PutPageReplacesTheFramesBlock) {
  CoreMemory core(1);
  core.WriteWord(0, 0, 41);
  core.PutPage(0, SequencePage(0, 8));
  EXPECT_EQ(core.ReadWord(0, 0), 8u);
  core.PutPage(0, nullptr);  // A null block is a page of zeros.
  EXPECT_EQ(core.ReadWord(0, 0), 0u);
}

// --- Interrupt controller ----------------------------------------------------

TEST(InterruptTest, FifoDispatch) {
  InterruptController ic(8);
  ASSERT_EQ(ic.Assert(3, 111), Status::kOk);
  ASSERT_EQ(ic.Assert(5, 222), Status::kOk);
  InterruptEvent ev;
  ASSERT_TRUE(ic.TakePending(&ev));
  EXPECT_EQ(ev.line, 3u);
  EXPECT_EQ(ev.payload, 111u);
  ASSERT_TRUE(ic.TakePending(&ev));
  EXPECT_EQ(ev.line, 5u);
  EXPECT_FALSE(ic.TakePending(&ev));
}

TEST(InterruptTest, MaskingDefersDispatch) {
  InterruptController ic(8);
  ic.SetMasked(true);
  ASSERT_EQ(ic.Assert(1), Status::kOk);
  InterruptEvent ev;
  EXPECT_FALSE(ic.TakePending(&ev));
  ic.SetMasked(false);
  EXPECT_TRUE(ic.TakePending(&ev));
}

TEST(InterruptTest, BadLineRejected) {
  InterruptController ic(4);
  EXPECT_EQ(ic.Assert(4), Status::kInvalidArgument);
}

TEST(InterruptTest, AssertHookFires) {
  InterruptController ic(4);
  int hooks = 0;
  ic.SetAssertHook([&] { ++hooks; });
  ASSERT_EQ(ic.Assert(0), Status::kOk);
  EXPECT_EQ(hooks, 1);
  ic.SetMasked(true);
  ASSERT_EQ(ic.Assert(0), Status::kOk);
  EXPECT_EQ(hooks, 1);  // Masked asserts do not hook.
}

}  // namespace
}  // namespace multics
