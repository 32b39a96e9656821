// Secondary-storage devices of the three-level Multics memory hierarchy: the
// bulk store (drum-class, fast) and the disk (large, slow). A device stores
// whole pages addressed by device page number and supports both synchronous
// transfers (the sequential page control runs the whole cascade inline in
// the faulting process) and asynchronous ones (the parallel page control's
// daemons overlap transfers with computation).
//
// A slot holds the same owned page block a core frame does (PageBlock,
// src/hw/core_memory.h; null is a page of zeros). A write moves its block
// into the slot. A read hands the block over in one of three modes:
//
//   * kMove moves the block out, for a page whose slot is freed right after
//     the read (a fetch from the bulk store).
//   * kLend moves the block out but keeps the slot allocated as the page's
//     home (a fetch from disk). While the block is lent the slot refuses
//     reads, and TakeBack returns the block with no transfer (a clean page
//     going home). A write into the slot or freeing it ends the loan.
//   * kCopy copies the block once into a new block, for a page whose slot
//     must stay authoritative until a later transfer commits.
//
// Slots live in a flat array indexed by address that grows on demand, so a
// device that never pages holds nothing.
//
// The controller is dual-channel: reads and writes each serialize on their
// own channel, so a demand fetch does not queue behind a backlog of
// background eviction writes — the property that makes the paper's
// free-core daemon profitable.
//
// Failure contract: transfers may fail only through injected device faults
// (src/hw/injection.h). Each transfer consults the machine's injector; on a
// transient fault the device retries up to kMaxTransferAttempts times with
// geometric backoff, every retry cycle-accounted under "fault_recovery" on
// the sim clock. A fault that persists past the last retry is returned (or
// delivered to the async `done` callback) as a non-kOk Status — callers in
// page control must treat it as data loss and degrade, never CHECK. A
// failed read leaves the slot untouched and a failed write hands its block
// back, so a failed transfer never loses the only copy of a page. Nothing
// here CHECKs on simulated conditions: out-of-range addresses return
// kInvalidArgument, and freeing a slot that is not allocated, reading a slot
// whose block is lent out, or taking a block back into a slot that did not
// lend it returns kFailedPrecondition.

#ifndef SRC_MEM_PAGING_DEVICE_H_
#define SRC_MEM_PAGING_DEVICE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/base/status.h"
#include "src/hw/injection.h"
#include "src/hw/interrupt.h"
#include "src/hw/machine.h"

namespace multics {

// Device page number.
using DevAddr = uint32_t;
inline constexpr DevAddr kInvalidDevAddr = UINT32_MAX;

class PagingDevice {
 public:
  PagingDevice(std::string name, uint32_t capacity_pages, Cycles read_latency,
               Cycles write_latency, Machine* machine);

  const std::string& name() const { return name_; }
  uint32_t capacity() const { return capacity_; }
  uint32_t free_pages() const { return static_cast<uint32_t>(free_list_.size()); }
  uint32_t used_pages() const { return capacity_ - free_pages(); }
  bool Full() const { return free_list_.empty(); }

  // How a read treats the slot it reads (see the file comment).
  enum class ReadMode : uint8_t { kMove, kLend, kCopy };

  // Completion callbacks. A read delivers the page's block (null on
  // failure). A write delivers null on success and hands its block back on
  // failure.
  using ReadDone = std::function<void(Status, PageBlock)>;
  using WriteDone = std::function<void(Status, PageBlock)>;

  // Slot management. Freeing a slot drops its block; freeing one that is
  // not allocated is refused, since a second copy of its address on the
  // free list would later hand one slot to two pages.
  Result<DevAddr> Allocate();
  Status Free(DevAddr addr);

  // Returns a block lent by a kLend read to its slot, with no transfer. A
  // slot that did not lend its block refuses it (kFailedPrecondition) and
  // leaves *block untouched: a home freed and reallocated since the loan
  // can never be overwritten by the page that left it.
  Status TakeBack(DevAddr addr, PageBlock* block);

  // Synchronous transfers: advance the simulation clock by queueing delay
  // plus latency before returning. A successful write moves *block into the
  // slot and leaves *block null; a failed one leaves *block untouched.
  Status ReadSync(DevAddr addr, ReadMode mode, PageBlock* out);
  Status WriteSync(DevAddr addr, PageBlock* block);

  // Asynchronous transfers: complete through the machine's event queue.
  // The device serializes transfers per channel; each completion may assert
  // the attached interrupt line (if any) before invoking `done`. A read
  // moves or copies the slot's block when it completes.
  void ReadAsync(DevAddr addr, ReadMode mode, ReadDone done);
  void WriteAsync(DevAddr addr, PageBlock block, WriteDone done);

  // Demand (page-fault) read: serviced on the priority channel, ahead of any
  // backlog of background daemon transfers — demand fetches always preempt
  // migration traffic, as real paging controllers arranged.
  void ReadAsyncUrgent(DevAddr addr, ReadMode mode, ReadDone done);

  void AttachInterrupt(InterruptController* controller, InterruptLine line) {
    interrupts_ = controller;
    line_ = line;
  }

  // Slots materialized so far: the array grows to the highest address
  // allocated or written, never to capacity up front.
  uint32_t materialized_slots() const { return static_cast<uint32_t>(slots_.size()); }

  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }

  // Fault-injection observability: injected faults seen, retries issued,
  // and transfers that exhausted their retries and surfaced an error.
  uint64_t injected_faults() const { return injected_faults_; }
  uint64_t retries() const { return retries_; }
  uint64_t failed_transfers() const { return failed_transfers_; }

  // A transfer is attempted at most this many times (1 initial + retries).
  static constexpr int kMaxTransferAttempts = 4;

 private:
  // Computes this transfer's completion time on one channel and marks that
  // channel busy.
  Cycles ScheduleTransfer(Cycles latency, Cycles* channel_busy_until);

  // Consults the machine's injector for one transfer attempt; returns the
  // injected fault (kOk when none). Counts injected faults.
  Status ConsultTransfer(InjectSite site, DevAddr addr);

  // Geometric backoff before retry `attempt` (1-based).
  Cycles BackoffFor(int attempt) const;

  // Retry-capable async transfer bodies; `attempt` is 1-based.
  void StartRead(DevAddr addr, ReadMode mode, ReadDone done, bool urgent, int attempt);
  void StartWrite(DevAddr addr, PageBlock block, WriteDone done, int attempt);

  // Delivers the block of a completed read into *out: the slot's own
  // (kMove, kLend) or a copy. A slot whose block is lent out is refused.
  Status ReadBlock(DevAddr addr, ReadMode mode, PageBlock* out);
  // Installs a written block, growing the slot array to cover `addr`.
  void StoreBlock(DevAddr addr, PageBlock block);

  struct Slot {
    PageBlock block;  // Null: a page of zeros (or, while lent, nothing).
    bool allocated = false;
    bool lent = false;  // The block is in a core frame (a kLend read).
  };

  std::string name_;
  uint32_t capacity_;
  Cycles read_latency_;
  Cycles write_latency_;
  Machine* machine_;

  std::vector<Slot> slots_;  // Indexed by address; grown on demand.
  std::vector<DevAddr> free_list_;
  Cycles read_busy_until_ = 0;
  Cycles write_busy_until_ = 0;
  Cycles urgent_busy_until_ = 0;

  InterruptController* interrupts_ = nullptr;
  InterruptLine line_ = 0;

  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t injected_faults_ = 0;
  uint64_t retries_ = 0;
  uint64_t failed_transfers_ = 0;
};

// Factory helpers with the default cost model's latencies.
PagingDevice MakeBulkStore(uint32_t pages, Machine* machine);
PagingDevice MakeDisk(uint32_t pages, Machine* machine);

}  // namespace multics

#endif  // SRC_MEM_PAGING_DEVICE_H_
