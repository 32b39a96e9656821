// The known segment table (KST): per-process map between segment numbers and
// segment UIDs. This is the *common* (kernel) part left after Bratt's
// split [14]: the reference-name half of the old KST — names, search rules,
// pathname strings — moved to the user ring (src/userring/rnm.h), and what
// the kernel must still hold shrinks to this table. Experiment E3 measures
// that shrinkage.
//
// As in Multics, the entries form an array indexed by segment number, and a
// hash on uid sits beside it to answer "is this segment already known?" at
// initiation. The array is the only segno index: every lookup by number is
// one bounds check and one index, and iteration runs in segment-number order.

#ifndef SRC_FS_KST_H_
#define SRC_FS_KST_H_

#include <unordered_map>
#include <vector>

#include "src/base/result.h"
#include "src/fs/branch.h"
#include "src/hw/word.h"

namespace multics {

class KnownSegmentTable {
 public:
  // Segment numbers below `first` are reserved (kernel segments, stack...).
  explicit KnownSegmentTable(SegNo first = 64, SegNo last = kMaxSegments - 1)
      : first_(first), last_(last), next_(first) {}

  // Makes `uid` known, assigning a segment number. Idempotent: repeated
  // initiations of the same uid return the same number with a usage count
  // (Multics' initiate_count), so independently-written user code can
  // initiate and terminate the same segment without pulling the number out
  // from under each other.
  Result<SegNo> Assign(Uid uid);

  // Hot lookup on every address-space touch.
  Result<Uid> UidOf(SegNo segno) const {
    const Entry* entry = Find(segno);
    if (entry == nullptr) {
      return Status::kSegmentNotKnown;
    }
    return entry->uid;
  }
  Result<SegNo> SegNoOf(Uid uid) const;
  bool IsKnown(Uid uid) const { return by_uid_.contains(uid); }
  uint32_t UsageCount(SegNo segno) const {
    const Entry* entry = Find(segno);
    return entry == nullptr ? 0 : entry->usage;
  }

  // The slot of this entry's trailer in the kernel's per-segment trailer
  // list, kept so releasing the entry removes its trailer in O(1).
  // kNoTrailer until the kernel first connects an SDW for the entry.
  static constexpr uint32_t kNoTrailer = UINT32_MAX;
  uint32_t trailer(SegNo segno) const {
    const Entry* entry = Find(segno);
    return entry == nullptr ? kNoTrailer : entry->trailer;
  }
  void set_trailer(SegNo segno, uint32_t trailer);

  // Decrements the usage count; returns the remaining count (0 means the
  // entry is gone and the segment number free for reuse).
  Result<uint32_t> Release(SegNo segno);
  // Drops the entry regardless of count (process destruction).
  Status ForceRelease(SegNo segno);

  uint32_t size() const { return static_cast<uint32_t>(by_uid_.size()); }

  // Visits every known segment in ascending segment-number order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t slot = 0; slot < entries_.size(); ++slot) {
      if (entries_[slot].usage > 0) {
        fn(static_cast<SegNo>(first_ + slot), entries_[slot].uid);
      }
    }
  }

  // Approximate kernel-resident state, for the E3 size comparison.
  size_t KernelStateBytes() const {
    return by_uid_.size() * (sizeof(SegNo) + 2 * sizeof(Uid) + sizeof(uint32_t));
  }

 private:
  struct Entry {
    Uid uid = kInvalidUid;
    uint32_t usage = 0;  // 0 = the segment number is free.
    uint32_t trailer = kNoTrailer;
  };

  // The live entry for `segno`, or null.
  const Entry* Find(SegNo segno) const {
    const size_t slot = segno - first_;
    if (segno < first_ || slot >= entries_.size() || entries_[slot].usage == 0) {
      return nullptr;
    }
    return &entries_[slot];
  }
  Entry* Find(SegNo segno) {
    return const_cast<Entry*>(static_cast<const KnownSegmentTable*>(this)->Find(segno));
  }

  SegNo first_;
  SegNo last_;
  SegNo next_;
  // Indexed by segno - first_, grown to the highest number assigned.
  std::vector<Entry> entries_;
  std::unordered_map<Uid, SegNo> by_uid_;
};

}  // namespace multics

#endif  // SRC_FS_KST_H_
