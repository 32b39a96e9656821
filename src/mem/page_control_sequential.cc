#include "src/mem/page_control_sequential.h"

#include "src/meter/host_profile.h"

namespace multics {

Status SequentialPageControl::EnsureResident(ActiveSegment* seg, PageNo page, AccessMode mode) {
  MX_HOST_SPAN(kPageIo);
  (void)mode;
  if (page >= seg->pages) {
    return Status::kOutOfRange;
  }
  if (seg->page_table.entries[page].present) {
    return Status::kOk;
  }

  ++metrics_.faults;
  // The whole fault service runs under the global page-table lock; the
  // synchronous transfers inside suspend it (ReadSyncUnlocked) so only the
  // bookkeeping serializes across CPUs.
  LockGuard page_table(machine_->locks().PageTable());
  TraceSpan fault_span(&machine_->meter(), "page/fault_service", page);
  const Cycles start = machine_->local_now();
  uint32_t steps = 1;  // Fault analysis + fetch initiation.
  ChargeStep();

  // Step 1: get a free frame, evicting (and possibly cascading) inline.
  auto frame = core_map_->AllocateFree();
  if (!frame.ok()) {
    ++steps;  // The eviction step, executed by this process.
    ChargeStep();
    FrameIndex victim = policy_->SelectVictim(*core_map_);
    if (victim == kInvalidFrame) {
      return Status::kResourceExhausted;
    }
    bool cascaded = false;
    MX_RETURN_IF_ERROR(EvictCorePageSync(victim, &cascaded));
    if (cascaded) {
      ++steps;  // The bulk-to-disk move, also executed by this process.
      ChargeStep();
    }
    frame = core_map_->AllocateFree();
    if (!frame.ok()) {
      return frame.status();
    }
  }

  // Step 2: fetch the wanted page, synchronously. On a device fault the
  // frame goes back to the free pool — otherwise every failed fetch would
  // leak one frame of core.
  Status fetch_st = FetchIntoFrameSync(seg, page, frame.value());
  if (fetch_st != Status::kOk) {
    core_map_->Release(frame.value());
    return fetch_st;
  }

  metrics_.fault_latency.Add(static_cast<double>(machine_->local_now() - start));
  metrics_.fault_path_steps.Add(steps);
  return Status::kOk;
}

}  // namespace multics
