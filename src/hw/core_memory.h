// Primary (core) memory: a fixed array of page frames holding words.
//
// This is the top of the three-level Multics memory hierarchy; the bulk store
// and disk live in src/mem/ with their latency models. Core references cost
// one cycle and are charged by the processor, not here.
//
// A frame's words are allocated on its first write, so the host footprint
// follows the frames the simulation has touched rather than the configured
// core size. A never-written frame reads as zeros, exactly as a zero-filled
// one would.

#ifndef SRC_HW_CORE_MEMORY_H_
#define SRC_HW_CORE_MEMORY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/log.h"
#include "src/hw/word.h"

namespace multics {

using FrameIndex = uint32_t;
inline constexpr FrameIndex kInvalidFrame = UINT32_MAX;

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
    std::unique_ptr<Word[]>& words = frames_[frame];
    if (words == nullptr) {
      words = std::make_unique<Word[]>(kPageWords);  // Value-initialized: zeros.
    }
    words[offset] = value;
  }

  // Whole-page transfers used by page control and the image loader.
  void ReadPage(FrameIndex frame, std::vector<Word>& out) const {
    CHECK_LT(frame, frame_count());
    const Word* words = frames_[frame].get();
    if (words == nullptr) {
      out.assign(kPageWords, 0);
    } else {
      out.assign(words, words + kPageWords);
    }
  }

  void WritePage(FrameIndex frame, const std::vector<Word>& in) {
    CHECK_LT(frame, frame_count());
    CHECK_EQ(in.size(), kPageWords);
    std::unique_ptr<Word[]>& words = frames_[frame];
    if (words == nullptr) {
      words = std::make_unique_for_overwrite<Word[]>(kPageWords);
    }
    std::copy(in.begin(), in.end(), words.get());
  }

  // A never-written frame already reads as zeros, so it stays unallocated.
  void ZeroPage(FrameIndex frame) {
    CHECK_LT(frame, frame_count());
    if (Word* words = frames_[frame].get(); words != nullptr) {
      std::fill_n(words, kPageWords, Word{0});
    }
  }

 private:
  std::vector<std::unique_ptr<Word[]>> frames_;  // Null until first written.
};

}  // namespace multics

#endif  // SRC_HW_CORE_MEMORY_H_
