// Page control: resolves page faults by moving pages among the three levels
// of the memory hierarchy. The paper contrasts two designs, both implemented
// here behind this interface:
//
//   * SequentialPageControl — the old Multics structure. The faulting process
//     itself executes the whole chain: if no core frame is free it evicts a
//     page to the bulk store, and if the bulk store is full it first moves a
//     bulk page to disk, all synchronously, before fetching the wanted page.
//
//   * ParallelPageControl — the paper's proposal. A dedicated free-core
//     process keeps a few frames free ahead of demand and a dedicated
//     free-bulk process keeps bulk slots free; the faulting process "can just
//     wait until a primary memory block is free and then initiate the
//     transfer of the desired page".
//
// Both record the metrics experiment E4 reports: fault latency distribution
// and the number of distinct protected steps executed in the faulting
// process.

#ifndef SRC_MEM_PAGE_CONTROL_H_
#define SRC_MEM_PAGE_CONTROL_H_

#include <cstdint>

#include "src/base/stats.h"
#include "src/base/status.h"
#include "src/hw/ring.h"
#include "src/mem/active_segment.h"
#include "src/mem/core_map.h"
#include "src/mem/replacement.h"

namespace multics {

struct PageControlMetrics {
  uint64_t faults = 0;
  uint64_t zero_fills = 0;
  uint64_t fetches_from_bulk = 0;
  uint64_t fetches_from_disk = 0;
  uint64_t core_evictions = 0;
  uint64_t bulk_evictions = 0;
  uint64_t cascades = 0;          // Faults that had to touch all three levels.
  uint64_t waits_for_frame = 0;   // Parallel control: fault found no free frame.
  uint64_t reclaims = 0;          // Faults satisfied by cancelling an in-flight eviction.
  Distribution fault_latency;     // Cycles from fault to resolution.
  Distribution fault_path_steps;  // Protected steps run in the faulting process.
};

class PageControl {
 public:
  virtual ~PageControl() = default;

  virtual const char* name() const = 0;

  // Brings (seg, page) into core and marks its PTE present. Called from the
  // kernel's fault handler in the context of the faulting process.
  virtual Status EnsureResident(ActiveSegment* seg, PageNo page, AccessMode mode) = 0;

  // Sends every page of `seg` home to disk (updating seg->location with
  // disk addresses) and releases its core frames and bulk slots. A clean
  // core page hands its block back to the disk record it was fetched from
  // with no transfer; a modified one is written into that record, and a
  // page with no record yet into a new one. Used at segment deactivation
  // and shutdown.
  virtual Status FlushSegment(ActiveSegment* seg) = 0;

  // Releases pages [first, seg->pages) from core, the bulk store and disk
  // with no transfer: they become zero pages. Nobody can read a discarded
  // page again, so nothing is written. Used to delete and truncate.
  virtual Status DiscardPages(ActiveSegment* seg, PageNo first) = 0;

  // Lets background machinery (daemons) make progress during idle time.
  virtual void PumpIdle() {}

  const PageControlMetrics& metrics() const { return metrics_; }
  PageControlMetrics& metrics_mutable() { return metrics_; }

 protected:
  PageControlMetrics metrics_;
};

}  // namespace multics

#endif  // SRC_MEM_PAGE_CONTROL_H_
