#include "src/mem/page_control_base.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/meter/host_profile.h"

namespace multics {

PageControlBase::PageControlBase(Machine* machine, CoreMap* core_map, PagingDevice* bulk,
                                 PagingDevice* disk, ReplacementPolicy* policy)
    : machine_(machine), core_map_(core_map), bulk_(bulk), disk_(disk), policy_(policy) {}

void PageControlBase::ChargeStep(Cycles cycles) {
  machine_->Charge(cycles, "page_control_cpu");
}

Status PageControlBase::ReadSyncUnlocked(PagingDevice* device, DevAddr addr,
                                         PagingDevice::ReadMode mode, PageBlock* out) {
  LockWaitRegion unlock(machine_->locks().PageTable());
  return device->ReadSync(addr, mode, out);
}

Status PageControlBase::WriteSyncUnlocked(PagingDevice* device, DevAddr addr, PageBlock* block) {
  LockWaitRegion unlock(machine_->locks().PageTable());
  return device->WriteSync(addr, block);
}

void PageControlBase::AddBulkResident(ActiveSegment* seg, PageNo page) {
  bulk_residents_.emplace_back(seg, page);
}

void PageControlBase::RemoveBulkResident(ActiveSegment* seg, PageNo page) {
  auto it = std::find(bulk_residents_.begin(), bulk_residents_.end(), std::make_pair(seg, page));
  if (it != bulk_residents_.end()) {
    bulk_residents_.erase(it);
  }
}

bool PageControlBase::PopBulkResident(ActiveSegment** seg, PageNo* page) {
  while (!bulk_residents_.empty()) {
    auto [s, p] = bulk_residents_.front();
    bulk_residents_.pop_front();
    if (p < s->pages && s->location[p].level == PageLevel::kBulk) {
      *seg = s;
      *page = p;
      return true;
    }
    // Stale entry (page already moved); drop it.
  }
  return false;
}

Status PageControlBase::FetchIntoFrameSync(ActiveSegment* seg, PageNo page, FrameIndex frame) {
  MX_HOST_SPAN(kPageIo);
  PageLoc& loc = seg->location[page];
  DevAddr home = kInvalidDevAddr;
  switch (loc.level) {
    case PageLevel::kZero: {
      machine_->core().ZeroPage(frame);
      ChargeStep(20);
      ++metrics_.zero_fills;
      machine_->meter().Emit(TraceEventKind::kPageFetch, "fetch_zero", page);
      break;
    }
    case PageLevel::kBulk: {
      PageBlock block;
      MX_RETURN_IF_ERROR(ReadSyncUnlocked(bulk_, loc.addr, PagingDevice::ReadMode::kMove, &block));
      machine_->core().PutPage(frame, std::move(block));
      MX_RETURN_IF_ERROR(bulk_->Free(loc.addr));
      RemoveBulkResident(seg, page);
      ++metrics_.fetches_from_bulk;
      machine_->meter().Emit(TraceEventKind::kPageFetch, "fetch_bulk", page);
      break;
    }
    case PageLevel::kDisk: {
      PageBlock block;
      MX_RETURN_IF_ERROR(ReadSyncUnlocked(disk_, loc.addr, PagingDevice::ReadMode::kLend, &block));
      machine_->core().PutPage(frame, std::move(block));
      home = loc.addr;
      ++metrics_.fetches_from_disk;
      machine_->meter().Emit(TraceEventKind::kPageFetch, "fetch_disk", page);
      break;
    }
    case PageLevel::kCore:
    case PageLevel::kInTransit:
      return Status::kInternal;  // Fault on a resident or in-transit page.
  }

  core_map_->Bind(frame, seg, page, seg->wired);
  loc = PageLoc{PageLevel::kCore, home};
  PageTableEntry& pte = seg->page_table.entries[page];
  pte.present = true;
  pte.frame = frame;
  pte.used = true;
  pte.modified = false;
  policy_->NotifyLoaded(frame);
  return Status::kOk;
}

Status PageControlBase::EvictCorePageSync(FrameIndex frame, bool* cascaded) {
  MX_HOST_SPAN(kPageIo);
  const FrameInfo& fi = core_map_->info(frame);
  CHECK(!fi.free && fi.owner != nullptr);
  ActiveSegment* seg = fi.owner;
  PageNo page = fi.page;

  // Disconnect the PTE before the copy leaves core.
  PageTableEntry& pte = seg->page_table.entries[page];
  pte.present = false;
  machine_->meter().Emit(TraceEventKind::kPageEvictStart, "evict_sync", page);

  if (bulk_->Full()) {
    if (cascaded != nullptr) {
      *cascaded = true;
    }
    ++metrics_.cascades;
    machine_->meter().Emit(TraceEventKind::kCascade, "cascade", page);
    Status cascade_st = MoveOldestBulkPageToDiskSync();
    if (cascade_st != Status::kOk) {
      pte.present = true;  // The frame still holds the data; undo.
      return cascade_st;
    }
  }

  auto addr_or = bulk_->Allocate();
  if (!addr_or.ok()) {
    pte.present = true;
    return addr_or.status();
  }
  DevAddr addr = addr_or.value();
  PageBlock block = machine_->core().TakePage(pte.frame);
  Status write_st = WriteSyncUnlocked(bulk_, addr, &block);
  if (write_st != Status::kOk) {
    // The write handed the only copy back: return it to the frame, reconnect
    // the PTE and surface the device error instead of losing the page.
    machine_->core().PutPage(pte.frame, std::move(block));
    (void)bulk_->Free(addr);
    pte.present = true;
    return write_st;
  }

  // The bulk copy is now the page's only one; its disk home goes.
  const DevAddr home = seg->location[page].addr;
  seg->location[page] = PageLoc{PageLevel::kBulk, addr};
  AddBulkResident(seg, page);
  policy_->NotifyFreed(frame);
  core_map_->Release(frame);
  ++metrics_.core_evictions;
  machine_->meter().Emit(TraceEventKind::kPageEvictDone, "evict_sync", page);
  return FreeHome(home);
}

Status PageControlBase::MoveOldestBulkPageToDiskSync() {
  ActiveSegment* seg = nullptr;
  PageNo page = 0;
  if (!PopBulkResident(&seg, &page)) {
    return Status::kResourceExhausted;
  }
  PageLoc& loc = seg->location[page];
  // The bulk copy stays allocated until the disk copy is durable; freeing it
  // first would make a failed disk write lose the only copy of the page. So
  // the read copies, and a failed write just drops the copy.
  PageBlock block;
  Status read_st = ReadSyncUnlocked(bulk_, loc.addr, PagingDevice::ReadMode::kCopy, &block);
  if (read_st != Status::kOk) {
    AddBulkResident(seg, page);  // Still on bulk; keep it tracked.
    return read_st;
  }
  auto disk_addr = disk_->Allocate();
  if (!disk_addr.ok()) {
    AddBulkResident(seg, page);
    return disk_addr.status();
  }
  Status write_st = WriteSyncUnlocked(disk_, disk_addr.value(), &block);
  if (write_st != Status::kOk) {
    (void)disk_->Free(disk_addr.value());
    AddBulkResident(seg, page);
    return write_st;
  }
  MX_RETURN_IF_ERROR(bulk_->Free(loc.addr));
  loc = PageLoc{PageLevel::kDisk, disk_addr.value()};
  ++metrics_.bulk_evictions;
  machine_->meter().Emit(TraceEventKind::kPageEvictDone, "bulk_to_disk", page);
  return Status::kOk;
}

Status PageControlBase::FreeHome(DevAddr home) {
  return home == kInvalidDevAddr ? Status::kOk : disk_->Free(home);
}

Status PageControlBase::FlushPageSync(ActiveSegment* seg, PageNo page) {
  PageLoc& loc = seg->location[page];
  switch (loc.level) {
    case PageLevel::kZero:
    case PageLevel::kDisk:
      return Status::kOk;
    case PageLevel::kCore: {
      PageTableEntry& pte = seg->page_table.entries[page];
      const bool has_home = loc.addr != kInvalidDevAddr;
      DevAddr addr = loc.addr;
      if (!has_home) {
        MX_ASSIGN_OR_RETURN(addr, disk_->Allocate());
      }
      // A clean page hands its block back to its home with no transfer; a
      // modified one is written into its home, or into a new record.
      PageBlock block = machine_->core().TakePage(pte.frame);
      Status st = has_home && !pte.modified ? disk_->TakeBack(addr, &block)
                                            : WriteSyncUnlocked(disk_, addr, &block);
      if (st != Status::kOk) {
        // The page was handed back: the frame keeps the only copy.
        machine_->core().PutPage(pte.frame, std::move(block));
        if (!has_home) {
          (void)disk_->Free(addr);
        }
        return st;
      }
      pte.present = false;
      policy_->NotifyFreed(pte.frame);
      core_map_->Release(pte.frame);
      loc = PageLoc{PageLevel::kDisk, addr};
      return Status::kOk;
    }
    case PageLevel::kBulk: {
      // Bulk copy outlives the transfer: free it only after the disk write
      // commits, so a device fault cannot lose the page.
      PageBlock block;
      MX_RETURN_IF_ERROR(ReadSyncUnlocked(bulk_, loc.addr, PagingDevice::ReadMode::kCopy, &block));
      MX_ASSIGN_OR_RETURN(DevAddr addr, disk_->Allocate());
      Status write_st = WriteSyncUnlocked(disk_, addr, &block);
      if (write_st != Status::kOk) {
        (void)disk_->Free(addr);
        return write_st;
      }
      MX_RETURN_IF_ERROR(bulk_->Free(loc.addr));
      RemoveBulkResident(seg, page);
      loc = PageLoc{PageLevel::kDisk, addr};
      return Status::kOk;
    }
    case PageLevel::kInTransit:
      // Callers (the parallel control) drain in-flight transfers first.
      return Status::kFailedPrecondition;
  }
  return Status::kInternal;
}

Status PageControlBase::FlushSegment(ActiveSegment* seg) {
  LockGuard page_table(machine_->locks().PageTable());
  for (PageNo page = 0; page < seg->pages; ++page) {
    MX_RETURN_IF_ERROR(FlushPageSync(seg, page));
  }
  // Purge any stale residency entries for this segment.
  std::erase_if(bulk_residents_, [seg](const auto& entry) { return entry.first == seg; });
  return Status::kOk;
}

Status PageControlBase::DiscardPages(ActiveSegment* seg, PageNo first) {
  LockGuard page_table(machine_->locks().PageTable());
  for (PageNo page = first; page < seg->pages; ++page) {
    PageLoc& loc = seg->location[page];
    switch (loc.level) {
      case PageLevel::kZero:
        break;
      case PageLevel::kCore: {
        PageTableEntry& pte = seg->page_table.entries[page];
        pte.present = false;
        (void)machine_->core().TakePage(pte.frame);  // The words die with the page.
        policy_->NotifyFreed(pte.frame);
        core_map_->Release(pte.frame);
        MX_RETURN_IF_ERROR(FreeHome(loc.addr));
        break;
      }
      case PageLevel::kBulk:
        MX_RETURN_IF_ERROR(bulk_->Free(loc.addr));
        break;
      case PageLevel::kDisk:
        MX_RETURN_IF_ERROR(disk_->Free(loc.addr));
        break;
      case PageLevel::kInTransit:
        // Callers (the parallel control) drain in-flight transfers first.
        return Status::kFailedPrecondition;
    }
    loc = PageLoc{};
  }
  std::erase_if(bulk_residents_, [seg, first](const auto& entry) {
    return entry.first == seg && entry.second >= first;
  });
  return Status::kOk;
}

}  // namespace multics
