// Primary (core) memory: a fixed array of page frames holding words.
//
// This is the top of the three-level Multics memory hierarchy; the bulk store
// and disk live in src/mem/ with their latency models. Core references cost
// one cycle and are charged by the processor, not here.
//
// A frame holds one owned page block (PageBlock), allocated on the frame's
// first write, so the host footprint follows the pages the simulation has
// touched rather than the configured core size. A null block is a page of
// zeros, exactly as a zero-filled frame would read. Paging-device slots
// (src/mem/paging_device.h) hold the same blocks, so page control moves a
// page between levels by handing its block over instead of copying words.

#ifndef SRC_HW_CORE_MEMORY_H_
#define SRC_HW_CORE_MEMORY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/log.h"
#include "src/hw/word.h"

namespace multics {

using FrameIndex = uint32_t;
inline constexpr FrameIndex kInvalidFrame = UINT32_MAX;

// One page of words, owned by whichever core frame or device slot holds the
// page. Null is a page of zeros.
using PageBlock = std::unique_ptr<Word[]>;

// A new block holding a copy of `words` (kPageWords of them); null copies as
// null.
inline PageBlock CopyPageBlock(const Word* words) {
  if (words == nullptr) {
    return nullptr;
  }
  PageBlock copy = std::make_unique_for_overwrite<Word[]>(kPageWords);
  std::copy_n(words, kPageWords, copy.get());
  return copy;
}

class CoreMemory {
 public:
  explicit CoreMemory(uint32_t frames) : frames_(frames) {}

  uint32_t frame_count() const { return static_cast<uint32_t>(frames_.size()); }

  Word ReadWord(FrameIndex frame, uint32_t offset) const {
    CHECK_LT(frame, frame_count());
    CHECK_LT(offset, kPageWords);
    const Word* words = frames_[frame].get();
    return words == nullptr ? 0 : words[offset];
  }

  void WriteWord(FrameIndex frame, uint32_t offset, Word value) {
    CHECK_LT(frame, frame_count());
    CHECK_LT(offset, kPageWords);
    PageBlock& words = frames_[frame];
    if (words == nullptr) {
      words = std::make_unique<Word[]>(kPageWords);  // Value-initialized: zeros.
    }
    words[offset] = value;
  }

  // Whole-page transfers used by page control. A page leaving core for good
  // takes the frame's block with it (the frame then reads as zeros); a page
  // arriving hands its block to the frame, dropping whatever block the
  // frame held. CopyPage snapshots the frame without disturbing it.
  PageBlock TakePage(FrameIndex frame) {
    CHECK_LT(frame, frame_count());
    return std::move(frames_[frame]);
  }

  void PutPage(FrameIndex frame, PageBlock block) {
    CHECK_LT(frame, frame_count());
    frames_[frame] = std::move(block);
  }

  PageBlock CopyPage(FrameIndex frame) const {
    CHECK_LT(frame, frame_count());
    return CopyPageBlock(frames_[frame].get());
  }

  // A never-written frame already reads as zeros, so it stays unallocated.
  void ZeroPage(FrameIndex frame) {
    CHECK_LT(frame, frame_count());
    if (Word* words = frames_[frame].get(); words != nullptr) {
      std::fill_n(words, kPageWords, Word{0});
    }
  }

 private:
  std::vector<PageBlock> frames_;  // Null: a page of zeros.
};

}  // namespace multics

#endif  // SRC_HW_CORE_MEMORY_H_
