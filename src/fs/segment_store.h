// Layer 1 of the partitioned file system (the paper's first partitioning
// suggestion): "the bottom layer might implement a file system in which all
// segments were named by system generated unique identifiers." The segment
// store knows nothing of pathnames or directories-as-namespaces; it creates,
// activates, grows, and deletes segments identified by UID, maintains their
// branches, and enforces directory quotas by walking branch parent links.

#ifndef SRC_FS_SEGMENT_STORE_H_
#define SRC_FS_SEGMENT_STORE_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/fs/branch.h"
#include "src/hw/machine.h"
#include "src/mem/active_segment.h"
#include "src/mem/page_control.h"

namespace multics {

class SegmentStore {
 public:
  SegmentStore(Machine* machine, ActiveSegmentTable* ast, PagingDevice* disk);

  // Page control is constructed after the store (it needs the same devices);
  // attach it before any activation.
  void AttachPageControl(PageControl* page_control) { page_control_ = page_control; }

  // Creates a branch (and nothing else: length 0, no storage yet).
  Result<Uid> Create(const SegmentAttributes& attrs, bool is_directory, Uid parent);

  // Destroys the segment: discards an active segment's pages (no
  // write-back) and drops it from the AST, frees its disk pages, uncharges
  // quota, removes the branch.
  Status Delete(Uid uid);

  // Branch pointers stay valid until the branch is deleted.
  Result<Branch*> Get(Uid uid);
  bool Exists(Uid uid) const { return uid < entries_.size() && entries_[uid].branch != nullptr; }

  // Activation binds the segment into the AST (idempotent). Initiation
  // references are tracked separately with AddRef/DropRef: a referenced
  // segment may still be *deactivated* (its pages flushed, its AST slot
  // reclaimed, connected SDWs invalidated via the hook) — the next touch
  // takes a segment fault and reactivates it, exactly as Multics did.
  Result<ActiveSegment*> Activate(Uid uid, bool wired = false);

  void AddRef(Uid uid);
  Status DropRef(Uid uid);
  uint32_t RefCount(Uid uid) const { return uid < entries_.size() ? entries_[uid].refs : 0; }

  // Invoked just before a segment's AST entry is torn down, so the kernel
  // can invalidate descriptor-segment entries pointing at its page table.
  void SetDeactivateHook(std::function<void(Uid)> hook) { deactivate_hook_ = std::move(hook); }

  // Forces deactivation (flush + AST teardown + hook). Testing/trim entry.
  Status Deactivate(Uid uid);

  // Grows or shrinks the segment, charging / refunding quota against the
  // nearest ancestor directory that has one. Shrinking an active segment
  // discards its tail; the pages below the cut stay where they are.
  Status SetLength(Uid uid, uint32_t pages);

  // Flushes and deactivates every zero-reference active segment (shutdown).
  Status DeactivateAll();

  uint32_t active_count() const { return ast_->size(); }
  uint64_t segment_count() const { return segment_count_; }

  // Segments deactivated to make AST room since construction.
  uint64_t ast_evictions() const { return ast_evictions_; }

  // Whole-catalog iteration in uid order, for the salvager and the backup
  // daemon.
  template <typename Fn>
  void ForEachBranch(Fn&& fn) {
    for (Entry& entry : entries_) {
      if (entry.branch != nullptr) {
        fn(*entry.branch);
      }
    }
  }

  ActiveSegmentTable* ast() const { return ast_; }
  Machine* machine() const { return machine_; }

 private:
  Status QuotaCharge(Uid parent, int64_t delta_pages);
  Status DeactivateNow(Uid uid);  // Flush + drop from AST + refresh disk_home.
  Status RemoveFromAst(Uid uid);  // Drop a segment with no page in core or on bulk.
  Status EvictOneInactive();      // Make AST room.

  // Everything the store keeps per uid. Uids are handed out densely from 1,
  // so the table is indexed by uid directly.
  struct Entry {
    std::unique_ptr<Branch> branch;  // Null: never created, or deleted.
    uint32_t refs = 0;               // Initiations (AddRef - DropRef).
    bool active_unwired = false;     // In the AST and an eviction candidate.
  };

  Branch* Find(Uid uid) { return Exists(uid) ? entries_[uid].branch.get() : nullptr; }
  Entry& EntryFor(Uid uid);  // Grows the table to cover `uid`.

  Machine* machine_;
  ActiveSegmentTable* ast_;
  PagingDevice* disk_;
  PageControl* page_control_ = nullptr;

  std::vector<Entry> entries_;  // Indexed by uid; entry 0 is never used.
  uint64_t segment_count_ = 0;
  // Active, unwired segments with no initiations: the ones EvictOneInactive
  // prefers. While it is zero the first unwired AST entry is the victim.
  uint32_t idle_segments_ = 0;
  uint64_t ast_evictions_ = 0;
  std::function<void(Uid)> deactivate_hook_;
  Uid next_uid_ = 1;
};

}  // namespace multics

#endif  // SRC_FS_SEGMENT_STORE_H_
