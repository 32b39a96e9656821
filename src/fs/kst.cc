#include "src/fs/kst.h"

#include "src/base/log.h"

namespace multics {

Result<SegNo> KnownSegmentTable::Assign(Uid uid) {
  if (uid == kInvalidUid) {
    return Status::kInvalidArgument;
  }
  if (auto it = by_uid_.find(uid); it != by_uid_.end()) {
    Entry& entry = by_segno_[it->second];
    ++entry.usage;
    SetDense(it->second, entry);
    return it->second;
  }
  // Linear scan from the cursor; wraps once.
  for (SegNo probe = 0; probe <= last_ - first_; ++probe) {
    SegNo candidate = first_ + (next_ - first_ + probe) % (last_ - first_ + 1);
    if (!by_segno_.contains(candidate)) {
      by_segno_[candidate] = Entry{uid, 1};
      by_uid_[uid] = candidate;
      SetDense(candidate, Entry{uid, 1});
      next_ = candidate + 1 > last_ ? first_ : candidate + 1;
      return candidate;
    }
  }
  return Status::kNoFreeSegmentNumbers;
}

Result<SegNo> KnownSegmentTable::SegNoOf(Uid uid) const {
  auto it = by_uid_.find(uid);
  if (it == by_uid_.end()) {
    return Status::kSegmentNotKnown;
  }
  return it->second;
}

uint32_t KnownSegmentTable::UsageCount(SegNo segno) const {
  const size_t slot = segno - first_;
  if (segno < first_ || slot >= dense_.size()) {
    return 0;
  }
  return dense_[slot].usage;
}

void KnownSegmentTable::set_trailer(SegNo segno, uint32_t trailer) {
  auto it = by_segno_.find(segno);
  CHECK(it != by_segno_.end()) << "trailer for unknown segno " << segno;
  it->second.trailer = trailer;
  SetDense(segno, it->second);
}

Result<uint32_t> KnownSegmentTable::Release(SegNo segno) {
  auto it = by_segno_.find(segno);
  if (it == by_segno_.end()) {
    return Status::kSegmentNotKnown;
  }
  if (--it->second.usage > 0) {
    SetDense(segno, it->second);
    return it->second.usage;
  }
  by_uid_.erase(it->second.uid);
  by_segno_.erase(it);
  SetDense(segno, Entry{});
  return 0u;
}

Status KnownSegmentTable::ForceRelease(SegNo segno) {
  auto it = by_segno_.find(segno);
  if (it == by_segno_.end()) {
    return Status::kSegmentNotKnown;
  }
  by_uid_.erase(it->second.uid);
  by_segno_.erase(it);
  SetDense(segno, Entry{});
  return Status::kOk;
}

}  // namespace multics
