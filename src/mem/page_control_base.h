// Shared machinery for the two page-control designs: synchronous page moves
// between hierarchy levels, bulk-store residency tracking, flush and
// discard.
//
// Pages travel as owned blocks (PageBlock). A transfer that releases its
// source moves the block: eviction core->bulk, flush core->disk, and the
// fetch from bulk. The fetch from disk lends the block: the disk record
// stays allocated as the page's home (PageLoc{kCore, home}), so a clean
// page goes home with no write and a modified one is rewritten in place;
// eviction to the bulk store or a discard frees the home. A transfer whose
// source must survive until the destination commits copies it exactly
// once: bulk->disk, whose bulk copy stays authoritative until the disk
// write lands. A failed write hands its block back to where it came from,
// so no device fault loses a page.

#ifndef SRC_MEM_PAGE_CONTROL_BASE_H_
#define SRC_MEM_PAGE_CONTROL_BASE_H_

#include <deque>
#include <utility>

#include "src/hw/machine.h"
#include "src/mem/page_control.h"

namespace multics {

class PageControlBase : public PageControl {
 public:
  PageControlBase(Machine* machine, CoreMap* core_map, PagingDevice* bulk, PagingDevice* disk,
                  ReplacementPolicy* policy);

  Status FlushSegment(ActiveSegment* seg) override;
  Status DiscardPages(ActiveSegment* seg, PageNo first) override;

  CoreMap* core_map() const { return core_map_; }
  PagingDevice* bulk() const { return bulk_; }
  PagingDevice* disk() const { return disk_; }
  ReplacementPolicy* policy() const { return policy_; }
  void set_policy(ReplacementPolicy* policy) { policy_ = policy; }

 protected:
  // Synchronously fills `frame` with the current contents of (seg, page) —
  // zero-fill, bulk read, or disk read — binds it, and marks the PTE present.
  Status FetchIntoFrameSync(ActiveSegment* seg, PageNo page, FrameIndex frame);

  // Synchronously evicts the page occupying `frame` to the bulk store,
  // cascading a bulk page to disk first if the bulk store is full.
  // On return the frame is back on the free list.
  Status EvictCorePageSync(FrameIndex frame, bool* cascaded);

  // Moves the oldest bulk-resident page to disk, synchronously.
  Status MoveOldestBulkPageToDiskSync();

  // Sends one page home to disk from wherever it is (sync).
  Status FlushPageSync(ActiveSegment* seg, PageNo page);

  // Frees the disk home a core page keeps, if it has one.
  Status FreeHome(DevAddr home);

  void AddBulkResident(ActiveSegment* seg, PageNo page);
  void RemoveBulkResident(ActiveSegment* seg, PageNo page);
  bool PopBulkResident(ActiveSegment** seg, PageNo* page);

  // Charges CPU time for a protected page-control step ("page_control_cpu").
  void ChargeStep(Cycles cycles = 40);

  // Synchronous transfers with the page-table lock suspended for the wait:
  // on the multiprocessor another CPU may enter page control while this one
  // stalls on the device. When the lock is held reentrantly (global-lock
  // mode: the gate span owns the outer hold) the suspend is a no-op and the
  // giant lock covers the whole transfer.
  Status ReadSyncUnlocked(PagingDevice* device, DevAddr addr, PagingDevice::ReadMode mode,
                          PageBlock* out);
  Status WriteSyncUnlocked(PagingDevice* device, DevAddr addr, PageBlock* block);

  Machine* machine_;
  CoreMap* core_map_;
  PagingDevice* bulk_;
  PagingDevice* disk_;
  ReplacementPolicy* policy_;

  // FIFO of pages currently on the bulk store (move victims).
  std::deque<std::pair<ActiveSegment*, PageNo>> bulk_residents_;
};

}  // namespace multics

#endif  // SRC_MEM_PAGE_CONTROL_BASE_H_
