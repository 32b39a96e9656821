#include "src/mem/page_control_parallel.h"

#include "src/base/log.h"
#include "src/meter/host_profile.h"

namespace multics {

ParallelPageControl::ParallelPageControl(Machine* machine, CoreMap* core_map, PagingDevice* bulk,
                                         PagingDevice* disk, ReplacementPolicy* policy,
                                         ParallelPageControlConfig config)
    : PageControlBase(machine, core_map, bulk, disk, policy), config_(config) {}

Status ParallelPageControl::WaitFor(const bool& done) {
  // The wait releases the page-table lock (when this CPU holds it at depth
  // 1): other CPUs may fault while this one waits on its transfer, and the
  // pumped callbacks re-acquire the lock for their own bookkeeping.
  LockWaitRegion unlock(machine_->locks().PageTable());
  while (!done) {
    if (!machine_->events().RunOne()) {
      return Status::kDeviceError;  // Transfer can never complete.
    }
  }
  return Status::kOk;
}

Status ParallelPageControl::EnsureResident(ActiveSegment* seg, PageNo page, AccessMode mode) {
  MX_HOST_SPAN(kPageIo);
  (void)mode;
  if (page >= seg->pages) {
    return Status::kOutOfRange;
  }
  if (seg->page_table.entries[page].present) {
    return Status::kOk;
  }

  ++metrics_.faults;
  // Bookkeeping runs under the page-table lock; WaitFor and the frame-wait
  // pump below suspend it so transfers overlap across CPUs.
  LockGuard page_table(machine_->locks().PageTable());
  // The causal span covers the whole fault service, including daemon work
  // pumped from WaitFor: those callbacks run within this window, so their
  // events nest under this span in the attribution profile.
  TraceSpan fault_span(&machine_->meter(), "page/fault_service", page);
  const Cycles start = machine_->local_now();
  ChargeStep(30);  // The whole fault path: wait + initiate.

  // The daemons run concurrently with this fault, so the page's location can
  // change while we wait for a frame; the loop re-examines it each time.
  for (int attempt = 0; attempt < 16; ++attempt) {
    PageTableEntry& pte = seg->page_table.entries[page];
    if (pte.present) {
      return Status::kOk;  // Resolved while we waited.
    }

    if (seg->location[page].level == PageLevel::kInTransit) {
      FrameInfo& fi = core_map_->info_mutable(pte.frame);
      if (!fi.free && fi.owner == seg && fi.page == page && fi.evicting) {
        // The free-core daemon is evicting this very page: the data has not
        // actually left core. Reclaim the frame, and its disk home; the
        // in-flight write notices the cancellation and frees its slot.
        fi.evicting = false;
        seg->location[page] = PageLoc{PageLevel::kCore, seg->location[page].addr};
        pte.present = true;
        pte.used = true;
        ++metrics_.reclaims;
        machine_->meter().Emit(TraceEventKind::kPageReclaim, "reclaim_core", page);
        metrics_.fault_latency.Add(static_cast<double>(machine_->local_now() - start));
        metrics_.fault_path_steps.Add(1.0);
        return Status::kOk;
      }
      // A bulk->disk move: the bulk copy survives until the move commits, so
      // reclaim the page back onto the bulk store and fetch it normally; the
      // move's continuations notice the cancellation and stand down.
      seg->location[page] = PageLoc{PageLevel::kBulk, seg->location[page].addr};
      AddBulkResident(seg, page);
      ++metrics_.reclaims;
      machine_->meter().Emit(TraceEventKind::kPageReclaim, "reclaim_bulk", page);
    }

    // Take a free frame; the free-core daemon is supposed to have one ready.
    Result<FrameIndex> frame = core_map_->AllocateFree();
    if (!frame.ok()) {
      ++metrics_.waits_for_frame;
      WakeCoreDaemon();
      {
        LockWaitRegion unlock(machine_->locks().PageTable());
        while (!frame.ok()) {
          if (!machine_->events().RunOne()) {
            return Status::kResourceExhausted;
          }
          frame = core_map_->AllocateFree();
        }
      }
      // Waiting may have let a daemon touch this page: re-examine before
      // committing to a transfer.
      if (seg->page_table.entries[page].present ||
          seg->location[page].level == PageLevel::kInTransit) {
        core_map_->Release(frame.value());
        continue;
      }
    }

    // Initiate the one transfer this fault actually needs.
    PageLoc& loc = seg->location[page];
    DevAddr home = kInvalidDevAddr;
    switch (loc.level) {
      case PageLevel::kZero: {
        machine_->core().ZeroPage(frame.value());
        ++metrics_.zero_fills;
        break;
      }
      case PageLevel::kBulk:
      case PageLevel::kDisk: {
        // The bulk slot is freed once the page is in core; the disk record
        // stays allocated as the page's home and lends its block.
        const bool from_bulk = loc.level == PageLevel::kBulk;
        Status fetch_st =
            from_bulk ? FetchUrgent(bulk_, loc.addr, PagingDevice::ReadMode::kMove, frame.value())
                      : FetchUrgent(disk_, loc.addr, PagingDevice::ReadMode::kLend, frame.value());
        if (fetch_st != Status::kOk) {
          // Unrecoverable device fault (retries exhausted inside the
          // device). The page stays where it is; the fault surfaces to the
          // faulting program as a Status — degrade, don't crash.
          core_map_->Release(frame.value());
          return fetch_st;
        }
        if (from_bulk) {
          RemoveBulkResident(seg, page);
          ++metrics_.fetches_from_bulk;
        } else {
          home = loc.addr;
          ++metrics_.fetches_from_disk;
        }
        break;
      }
      case PageLevel::kInTransit:
      case PageLevel::kCore: {
        // A daemon raced us between the checks above; go around again.
        core_map_->Release(frame.value());
        continue;
      }
    }

    core_map_->Bind(frame.value(), seg, page, seg->wired);
    loc = PageLoc{PageLevel::kCore, home};
    pte.present = true;
    pte.frame = frame.value();
    pte.used = true;
    pte.modified = false;
    policy_->NotifyLoaded(frame.value());

    if (core_map_->free_count() < config_.core_low_water) {
      WakeCoreDaemon();
    }

    metrics_.fault_latency.Add(static_cast<double>(machine_->local_now() - start));
    metrics_.fault_path_steps.Add(1.0);  // The fault path is one step, always.
    return Status::kOk;
  }
  return Status::kInternal;  // 16 daemon races in a row: give up loudly.
}

Status ParallelPageControl::FetchUrgent(PagingDevice* device, DevAddr addr,
                                        PagingDevice::ReadMode mode, FrameIndex frame) {
  // The read moves or lends the page's block out of its slot; a moved-from
  // slot is freed as soon as the read lands. Nothing else frees the slot
  // meanwhile: the events the wait pumps never run a process step, so no
  // second fault on the page can start, and a bulk->disk move the daemon
  // starts during the wait needs a bulk read plus a disk write before it
  // frees anything.
  bool done = false;
  Status read_st = Status::kOk;
  PageBlock block;
  device->ReadAsyncUrgent(addr, mode, [&](Status st, PageBlock read) {
    read_st = st;
    block = std::move(read);
    done = true;
  });
  MX_RETURN_IF_ERROR(WaitFor(done));
  MX_RETURN_IF_ERROR(read_st);  // A failed read left the slot untouched.
  machine_->core().PutPage(frame, std::move(block));
  return mode == PagingDevice::ReadMode::kMove ? device->Free(addr) : Status::kOk;
}

void ParallelPageControl::WakeCoreDaemon() {
  if (core_daemon_running_) {
    return;
  }
  core_daemon_running_ = true;
  ++core_daemon_wakeups_;
  machine_->meter().Emit(TraceEventKind::kDaemonWakeup, "free_core_daemon");
  machine_->Charge(machine_->costs().wakeup, "ipc");
  machine_->events().ScheduleAfter(machine_->costs().vp_switch, [this] { CoreDaemonStep(); });
}

void ParallelPageControl::CoreDaemonStep() {
  LockGuard page_table(machine_->locks().PageTable());
  machine_->charges_mutable().Increment("daemon_cpu", 60);
  while (core_map_->free_count() + evictions_in_flight_ < config_.core_high_water) {
    FrameIndex victim = policy_->SelectVictim(*core_map_);
    if (victim == kInvalidFrame) {
      break;
    }
    StartAsyncEviction(victim);
  }
  core_daemon_running_ = false;
}

void ParallelPageControl::StartAsyncEviction(FrameIndex victim) {
  FrameInfo& fi = core_map_->info_mutable(victim);
  CHECK(!fi.free && fi.owner != nullptr);
  ActiveSegment* seg = fi.owner;
  PageNo page = fi.page;
  fi.evicting = true;

  // Disconnect the PTE and snapshot the page contents (the I/O controller
  // reads the frame; the frame itself stays reserved, and reclaimable, until
  // completion, so the write carries a copy).
  PageTableEntry& pte = seg->page_table.entries[page];
  pte.present = false;
  PageBlock snapshot = machine_->core().CopyPage(pte.frame);
  const DevAddr home = seg->location[page].addr;
  seg->location[page] = PageLoc{PageLevel::kInTransit, home};

  ++evictions_in_flight_;
  ++metrics_.core_evictions;
  machine_->meter().Emit(TraceEventKind::kPageEvictStart, "evict_async", page);

  // Prefer the bulk store; if it is full, write straight to disk and let the
  // free-bulk daemon catch up.
  PagingDevice* device = bulk_;
  PageLevel target = PageLevel::kBulk;
  if (bulk_->Full()) {
    device = disk_;
    target = PageLevel::kDisk;
    ++metrics_.cascades;
    machine_->meter().Emit(TraceEventKind::kCascade, "cascade_async", page);
    WakeBulkDaemon();
  } else if (bulk_->free_pages() < config_.bulk_low_water) {
    WakeBulkDaemon();
  }

  auto addr = device->Allocate();
  if (!addr.ok()) {
    // Out of both bulk and disk space: undo and give up on this victim.
    pte.present = true;
    seg->location[page] = PageLoc{PageLevel::kCore, home};
    fi.evicting = false;
    --evictions_in_flight_;
    --metrics_.core_evictions;
    return;
  }
  // A reclaim flips the location back to kCore, and a later eviction gives
  // the page a new transfer; the completion below detects either by the
  // transfer mismatch. In transit the location keeps the page's disk home,
  // which a reclaim or a failed write hands back to the core page.
  const uint64_t transfer = ++last_transfer_;
  seg->location[page] = PageLoc{PageLevel::kInTransit, home, transfer};

  device->WriteAsync(
      addr.value(), std::move(snapshot),
      [this, seg, page, victim, target, addr = addr.value(), device, home, transfer](
          Status st, PageBlock) {
        // A failed write hands the snapshot back; dropping it is safe,
        // because the frame still holds the page.
        LockGuard page_table(machine_->locks().PageTable());
        --evictions_in_flight_;
        if (!OwnsPage(seg->location[page], transfer)) {
          // Reclaimed (or re-evicted) while in flight: the frame stayed with
          // its page; just drop the slot.
          (void)device->Free(addr);
          return;
        }
        if (st != Status::kOk) {
          // The write never committed; the frame still holds the only copy.
          // Undo the eviction and keep the page in core — degraded, not lost.
          (void)device->Free(addr);
          PageTableEntry& entry = seg->page_table.entries[page];
          entry.present = true;
          seg->location[page] = PageLoc{PageLevel::kCore, home};
          FrameInfo& info = core_map_->info_mutable(victim);
          info.evicting = false;
          --metrics_.core_evictions;
          return;
        }
        // The new copy is now the page's only one; its old disk home goes.
        (void)FreeHome(home);
        seg->location[page] = PageLoc{target, addr};
        if (target == PageLevel::kBulk) {
          AddBulkResident(seg, page);
        }
        machine_->meter().Emit(TraceEventKind::kPageEvictDone, "evict_async", page);
        FrameInfo& info = core_map_->info_mutable(victim);
        info.evicting = false;
        policy_->NotifyFreed(victim);
        core_map_->Release(victim);
        // Keep the pool topped up if demand outran us.
        if (core_map_->free_count() + evictions_in_flight_ < config_.core_low_water) {
          WakeCoreDaemon();
        }
      });
}

void ParallelPageControl::WakeBulkDaemon() {
  if (bulk_daemon_running_) {
    return;
  }
  bulk_daemon_running_ = true;
  ++bulk_daemon_wakeups_;
  machine_->meter().Emit(TraceEventKind::kDaemonWakeup, "free_bulk_daemon");
  machine_->Charge(machine_->costs().wakeup, "ipc");
  machine_->events().ScheduleAfter(machine_->costs().vp_switch, [this] { BulkDaemonStep(); });
}

void ParallelPageControl::BulkDaemonStep() {
  LockGuard page_table(machine_->locks().PageTable());
  machine_->charges_mutable().Increment("daemon_cpu", 60);
  while (bulk_->free_pages() + bulk_moves_in_flight_ < config_.bulk_high_water) {
    ActiveSegment* seg = nullptr;
    PageNo page = 0;
    if (!PopBulkResident(&seg, &page)) {
      break;
    }
    DevAddr bulk_addr = seg->location[page].addr;
    // The bulk slot stays allocated (and its data in place) until the move
    // commits, so a fault can reclaim the page mid-move. The read therefore
    // copies the page, once; the copy moves on into the disk slot.
    const uint64_t transfer = ++last_transfer_;
    seg->location[page] = PageLoc{PageLevel::kInTransit, bulk_addr, transfer};
    ++bulk_moves_in_flight_;
    ++metrics_.bulk_evictions;
    bulk_->ReadAsync(bulk_addr, PagingDevice::ReadMode::kCopy,
                     [this, seg, page, bulk_addr, transfer](Status st, PageBlock block) {
                       BulkMoveReadDone(seg, page, bulk_addr, transfer, st, std::move(block));
                     });
  }
  bulk_daemon_running_ = false;
}

void ParallelPageControl::BulkMoveReadDone(ActiveSegment* seg, PageNo page, DevAddr bulk_addr,
                                           uint64_t transfer, Status st, PageBlock block) {
  LockGuard page_table(machine_->locks().PageTable());
  if (!OwnsPage(seg->location[page], transfer)) {
    --bulk_moves_in_flight_;  // Reclaimed mid-move; the fault owns it now.
    return;
  }
  if (st != Status::kOk) {
    // Read failed past its retries: abandon the move, the bulk copy stays
    // authoritative.
    seg->location[page] = PageLoc{PageLevel::kBulk, bulk_addr};
    AddBulkResident(seg, page);
    --bulk_moves_in_flight_;
    return;
  }
  auto disk_addr = disk_->Allocate();
  if (!disk_addr.ok()) {
    // Disk full: abandon the move; the page simply stays on bulk.
    seg->location[page] = PageLoc{PageLevel::kBulk, bulk_addr};
    AddBulkResident(seg, page);
    --bulk_moves_in_flight_;
    return;
  }
  disk_->WriteAsync(disk_addr.value(), std::move(block),
                    [this, seg, page, bulk_addr, transfer, addr = disk_addr.value()](
                        Status write_st, PageBlock) {
                      BulkMoveWriteDone(seg, page, bulk_addr, transfer, addr, write_st);
                    });
}

void ParallelPageControl::BulkMoveWriteDone(ActiveSegment* seg, PageNo page, DevAddr bulk_addr,
                                            uint64_t transfer, DevAddr disk_addr, Status st) {
  LockGuard page_table(machine_->locks().PageTable());
  if (!OwnsPage(seg->location[page], transfer)) {
    // Reclaimed while the disk write was in flight: keep the bulk copy
    // authoritative and drop the disk copy.
    (void)disk_->Free(disk_addr);
    --bulk_moves_in_flight_;
    return;
  }
  if (st != Status::kOk) {
    // Disk write failed: drop the disk slot (and the copy it handed back);
    // the bulk copy, never freed until the move commits, stays
    // authoritative.
    (void)disk_->Free(disk_addr);
    seg->location[page] = PageLoc{PageLevel::kBulk, bulk_addr};
    AddBulkResident(seg, page);
    --bulk_moves_in_flight_;
    return;
  }
  (void)bulk_->Free(bulk_addr);
  seg->location[page] = PageLoc{PageLevel::kDisk, disk_addr};
  --bulk_moves_in_flight_;
  machine_->meter().Emit(TraceEventKind::kPageEvictDone, "bulk_to_disk_async", page);
}

Status ParallelPageControl::DrainTransfers() {
  while (evictions_in_flight_ > 0 || bulk_moves_in_flight_ > 0) {
    if (!machine_->events().RunOne()) {
      return Status::kInternal;
    }
  }
  return Status::kOk;
}

Status ParallelPageControl::FlushSegment(ActiveSegment* seg) {
  MX_RETURN_IF_ERROR(DrainTransfers());
  return PageControlBase::FlushSegment(seg);
}

Status ParallelPageControl::DiscardPages(ActiveSegment* seg, PageNo first) {
  MX_RETURN_IF_ERROR(DrainTransfers());
  return PageControlBase::DiscardPages(seg, first);
}

void ParallelPageControl::PumpIdle() { machine_->events().RunUntilIdle(); }

}  // namespace multics
