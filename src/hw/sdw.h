// Segment descriptor words and the per-process descriptor segment.
//
// An SDW encodes everything the hardware needs to validate one reference:
// effective permission bits (already the AND of ACL, MLS and administrative
// decisions, computed by the reference monitor at initiation time), ring
// brackets, the gate-entry count for inward calls, and the page table.

#ifndef SRC_HW_SDW_H_
#define SRC_HW_SDW_H_

#include <array>
#include <cstdint>
#include <memory>

#include "src/hw/page_table.h"
#include "src/hw/ring.h"
#include "src/hw/word.h"

namespace multics {

// Monotonic stamp source for descriptor-segment mutations. Every mutation of
// any descriptor segment takes a fresh, globally unique stamp, so a cached
// (dseg pointer, epoch) pair can never be revalidated by a *different*
// descriptor segment later allocated at the same address. Host-side only:
// epochs never influence simulated time or metering.
inline uint64_t NextDsegEpoch() {
  static uint64_t counter = 0;
  return ++counter;
}

struct SegmentDescriptor {
  bool valid = false;            // When false, any reference takes a segment fault.
  PageTable* page_table = nullptr;
  uint32_t length_pages = 0;

  RingBrackets brackets;
  bool read = false;
  bool write = false;
  bool execute = false;
  bool gate = false;             // Inward calls allowed, to entries < gate_entries.
  uint32_t gate_entries = 0;

  uint64_t uid = 0;              // File-system UID, for fault handlers and audit.
};

// The hardware-visible address space of one process: segment number -> SDW.
//
// Like the 6180's descriptor segment, which was itself paged and bounded by
// the descriptor base register, the SDWs live in fixed-size pages behind a
// page directory, and a page is allocated on the first Set() or GetMutable()
// that lands in it. A process pays for the segment numbers it has used, not
// for kMaxSegments. Pages are never freed or moved while the segment lives,
// so an SDW's address is stable: a reference from Get() or a pointer from
// GetMutable() stays valid when a later Set() allocates another page, which
// a descriptor array grown by reallocation could not promise.
class DescriptorSegment {
 public:
  static constexpr SegNo kSdwsPerPage = 64;
  static constexpr SegNo kPageCount = kMaxSegments / kSdwsPerPage;
  static_assert(kMaxSegments % kSdwsPerPage == 0);

  DescriptorSegment() = default;

  const SegmentDescriptor& Get(SegNo segno) const {
    static const SegmentDescriptor kInvalid{};
    if (segno >= kMaxSegments) {
      return kInvalid;
    }
    const SdwPage* page = pages_[segno / kSdwsPerPage].get();
    return page == nullptr ? kInvalid : (*page)[segno % kSdwsPerPage];
  }

  // Hands out a mutable SDW, so the caller may change permissions or unhook
  // the page table without going through Set(); bump the epoch up front.
  // GetMutable sits on revocation/deactivation paths, never reference paths,
  // so the conservative bump is cheap.
  SegmentDescriptor* GetMutable(SegNo segno) {
    if (segno >= kMaxSegments) {
      return nullptr;
    }
    epoch_ = NextDsegEpoch();
    return &Slot(segno);
  }

  void Set(SegNo segno, const SegmentDescriptor& sdw) {
    if (segno < kMaxSegments) {
      Slot(segno) = sdw;
      epoch_ = NextDsegEpoch();
    }
  }

  // Clearing a slot on a never-allocated page allocates nothing: it already
  // reads as the invalid SDW.
  void Clear(SegNo segno) {
    if (segno < kMaxSegments) {
      if (SdwPage* page = pages_[segno / kSdwsPerPage].get(); page != nullptr) {
        (*page)[segno % kSdwsPerPage] = SegmentDescriptor{};
      }
      epoch_ = NextDsegEpoch();
    }
  }

  // Changes whenever any SDW in this segment may have changed. Processors
  // key their cached walks on (this, epoch()): any mutation — permission
  // narrowing, page-table unhook, revocation — invalidates every cached walk
  // immediately, so a cached translation can never widen access (the PR 5
  // revocation tests certify this).
  uint64_t epoch() const { return epoch_; }

  // Calls fn(segno, sdw) for every valid SDW in ascending segment-number
  // order, visiting allocated pages only.
  template <typename Fn>
  void ForEachValid(Fn&& fn) const {
    for (SegNo p = 0; p < kPageCount; ++p) {
      const SdwPage* page = pages_[p].get();
      if (page == nullptr) {
        continue;
      }
      for (SegNo i = 0; i < kSdwsPerPage; ++i) {
        if ((*page)[i].valid) {
          fn(p * kSdwsPerPage + i, (*page)[i]);
        }
      }
    }
  }

  // Number of valid SDWs; a structural metric some benches report.
  uint32_t CountValid() const {
    uint32_t n = 0;
    ForEachValid([&n](SegNo, const SegmentDescriptor&) { ++n; });
    return n;
  }

 private:
  using SdwPage = std::array<SegmentDescriptor, kSdwsPerPage>;

  // The slot for segno, allocating its page on first touch. segno must be
  // below kMaxSegments.
  SegmentDescriptor& Slot(SegNo segno) {
    std::unique_ptr<SdwPage>& page = pages_[segno / kSdwsPerPage];
    if (page == nullptr) {
      page = std::make_unique<SdwPage>();
    }
    return (*page)[segno % kSdwsPerPage];
  }

  std::array<std::unique_ptr<SdwPage>, kPageCount> pages_{};
  uint64_t epoch_ = NextDsegEpoch();
};

}  // namespace multics

#endif  // SRC_HW_SDW_H_
