#include "src/fs/kst.h"

#include "src/base/log.h"

namespace multics {

Result<SegNo> KnownSegmentTable::Assign(Uid uid) {
  if (uid == kInvalidUid) {
    return Status::kInvalidArgument;
  }
  if (auto it = by_uid_.find(uid); it != by_uid_.end()) {
    ++Find(it->second)->usage;
    return it->second;
  }
  // Linear scan from the cursor; wraps once.
  for (SegNo probe = 0; probe <= last_ - first_; ++probe) {
    SegNo candidate = first_ + (next_ - first_ + probe) % (last_ - first_ + 1);
    if (Find(candidate) == nullptr) {
      const size_t slot = candidate - first_;
      if (slot >= entries_.size()) {
        entries_.resize(slot + 1);
      }
      entries_[slot] = Entry{uid, 1};
      by_uid_[uid] = candidate;
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

void KnownSegmentTable::set_trailer(SegNo segno, uint32_t trailer) {
  Entry* entry = Find(segno);
  CHECK(entry != nullptr) << "trailer for unknown segno " << segno;
  entry->trailer = trailer;
}

Result<uint32_t> KnownSegmentTable::Release(SegNo segno) {
  Entry* entry = Find(segno);
  if (entry == nullptr) {
    return Status::kSegmentNotKnown;
  }
  if (--entry->usage > 0) {
    return entry->usage;
  }
  by_uid_.erase(entry->uid);
  *entry = Entry{};
  return 0u;
}

Status KnownSegmentTable::ForceRelease(SegNo segno) {
  Entry* entry = Find(segno);
  if (entry == nullptr) {
    return Status::kSegmentNotKnown;
  }
  by_uid_.erase(entry->uid);
  *entry = Entry{};
  return Status::kOk;
}

}  // namespace multics
