// Active segments: the page-control view of a segment while it is usable in
// some address space. An ActiveSegment owns the hardware page table and
// tracks where each page currently lives in the hierarchy: in core, on the
// bulk store, on disk, or nowhere yet (zero page). Each page has one live
// copy. A core page fetched from disk also keeps that disk record as its
// home: the record stays allocated, having lent its block to the frame, so
// the page can go back with no write while its modified bit is clear.
//
// This is the simulation's active segment table (AST) from Multics segment
// control; the file-system branch (src/fs/branch.h) holds the permanent
// attributes, and activation binds the two.

#ifndef SRC_MEM_ACTIVE_SEGMENT_H_
#define SRC_MEM_ACTIVE_SEGMENT_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/base/result.h"
#include "src/hw/page_table.h"
#include "src/mem/paging_device.h"

namespace multics {

enum class PageLevel : uint8_t {
  kZero,       // Never written: materializes as a page of zeros on first use.
  kCore,       // In primary memory (frame number in PageTableEntry); `addr`
               // is its disk home, or kInvalidDevAddr if it has none.
  kBulk,       // On the bulk store at `addr`.
  kDisk,       // On disk at `addr`.
  kInTransit,  // Being moved asynchronously by a daemon; faulters must wait.
};

const char* PageLevelName(PageLevel level);

struct PageLoc {
  PageLevel level = PageLevel::kZero;
  DevAddr addr = kInvalidDevAddr;
  // While kInTransit: which asynchronous transfer owns the page. Completions
  // match on it, never on `addr` — the bulk store and the disk both hand out
  // addresses from 0, so an address alone cannot tell a stale transfer on
  // one device from a live one on the other. In transit `addr` is where a
  // cancelled transfer leaves the page: the disk home of an evicting core
  // page, or the bulk slot of a bulk->disk move.
  uint64_t transfer = 0;
};

struct ActiveSegment {
  uint64_t uid = 0;
  uint32_t pages = 0;
  PageTable page_table;
  std::vector<PageLoc> location;
  bool wired = false;  // Wired segments are never eviction victims.

  ActiveSegment(uint64_t uid_in, uint32_t pages_in) : uid(uid_in) { Resize(pages_in); }

  void Resize(uint32_t new_pages) {
    pages = new_pages;
    page_table.entries.resize(new_pages);
    location.resize(new_pages);
  }
};

// Fixed-capacity table of active segments, keyed by UID.
class ActiveSegmentTable {
 public:
  explicit ActiveSegmentTable(uint32_t capacity) : capacity_(capacity) {}

  // Activates a segment of `pages` pages whose pages currently live at the
  // given disk addresses (kInvalidDevAddr entries mean zero pages). Fails
  // with kResourceExhausted when the table is full.
  Result<ActiveSegment*> Activate(uint64_t uid, uint32_t pages,
                                  const std::vector<DevAddr>& disk_home);

  // Removes the entry. The caller must already have flushed or discarded
  // the pages (page control's FlushSegment or DiscardPages) so nothing
  // remains in core or on bulk.
  Status Deactivate(uint64_t uid);

  ActiveSegment* Find(uint64_t uid);

  uint32_t size() const { return static_cast<uint32_t>(table_.size()); }
  uint32_t capacity() const { return capacity_; }

  // Iteration support for page control and metrics.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (auto& [uid, seg] : table_) {
      fn(seg.get());
    }
  }

  // The first segment, in ForEach order, satisfying `pred`; null if none.
  template <typename Pred>
  ActiveSegment* FindFirst(Pred&& pred) {
    for (auto& [uid, seg] : table_) {
      if (pred(*seg)) {
        return seg.get();
      }
    }
    return nullptr;
  }

 private:
  uint32_t capacity_;
  std::unordered_map<uint64_t, std::unique_ptr<ActiveSegment>> table_;
};

}  // namespace multics

#endif  // SRC_MEM_ACTIVE_SEGMENT_H_
