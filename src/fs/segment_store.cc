#include "src/fs/segment_store.h"

#include "src/base/log.h"

namespace multics {

SegmentStore::SegmentStore(Machine* machine, ActiveSegmentTable* ast, PagingDevice* disk)
    : machine_(machine), ast_(ast), disk_(disk) {}

SegmentStore::Entry& SegmentStore::EntryFor(Uid uid) {
  if (uid >= entries_.size()) {
    entries_.resize(uid + 1);
  }
  return entries_[uid];
}

Result<Uid> SegmentStore::Create(const SegmentAttributes& attrs, bool is_directory, Uid parent) {
  if (parent != kInvalidUid) {
    const Branch* dir = Find(parent);
    if (dir == nullptr) {
      return Status::kNoSuchDirectory;
    }
    if (!dir->is_directory) {
      return Status::kNotADirectory;
    }
  }
  Uid uid = next_uid_++;
  auto owned = std::make_unique<Branch>();
  Branch& branch = *owned;
  branch.uid = uid;
  branch.parent = parent;
  branch.is_directory = is_directory;
  branch.pages = 0;
  branch.max_pages = attrs.max_pages;
  branch.acl = attrs.acl;
  branch.label = attrs.label;
  branch.brackets = attrs.brackets;
  branch.gate = attrs.gate;
  branch.gate_entries = attrs.gate_entries;
  branch.author = attrs.author;
  branch.date_created = machine_->clock().now();
  branch.date_modified = branch.date_created;
  EntryFor(uid).branch = std::move(owned);
  ++segment_count_;
  return uid;
}

Result<Branch*> SegmentStore::Get(Uid uid) {
  Branch* branch = Find(uid);
  if (branch == nullptr) {
    return Status::kNoSuchSegment;
  }
  return branch;
}

Status SegmentStore::QuotaCharge(Uid parent, int64_t delta_pages) {
  // Find the nearest ancestor directory carrying a quota.
  Uid current = parent;
  while (current != kInvalidUid) {
    Branch* found = Find(current);
    if (found == nullptr) {
      break;
    }
    Branch& dir = *found;
    if (dir.quota_pages > 0) {
      int64_t next_used = static_cast<int64_t>(dir.quota_used) + delta_pages;
      if (next_used < 0) {
        next_used = 0;
      }
      if (next_used > static_cast<int64_t>(dir.quota_pages)) {
        return Status::kQuotaExceeded;
      }
      dir.quota_used = static_cast<uint32_t>(next_used);
      return Status::kOk;
    }
    current = dir.parent;
  }
  return Status::kOk;  // No quota anywhere up the chain: unlimited.
}

Result<ActiveSegment*> SegmentStore::Activate(Uid uid, bool wired) {
  // Activation mutates the AST (and may evict through DeactivateNow, which
  // re-enters this lock); the page-table lock nests inside when a flush runs.
  LockGuard ast(machine_->locks().Ast());
  Branch* branch = Find(uid);
  if (branch == nullptr) {
    return Status::kNoSuchSegment;
  }

  if (ActiveSegment* existing = ast_->Find(uid); existing != nullptr) {
    return existing;
  }

  auto seg = ast_->Activate(uid, branch->pages, branch->disk_home);
  if (!seg.ok() && seg.status() == Status::kResourceExhausted) {
    MX_RETURN_IF_ERROR(EvictOneInactive());
    seg = ast_->Activate(uid, branch->pages, branch->disk_home);
  }
  if (!seg.ok()) {
    return seg.status();
  }
  seg.value()->wired = wired;
  Entry& entry = entries_[uid];
  entry.active_unwired = !wired;
  if (entry.active_unwired && entry.refs == 0) {
    ++idle_segments_;
  }
  return seg.value();
}

void SegmentStore::AddRef(Uid uid) {
  Entry& entry = EntryFor(uid);
  if (entry.refs++ == 0 && entry.active_unwired) {
    --idle_segments_;
  }
}

Status SegmentStore::DropRef(Uid uid) {
  if (RefCount(uid) == 0) {
    return Status::kFailedPrecondition;
  }
  Entry& entry = entries_[uid];
  if (--entry.refs == 0 && entry.active_unwired) {
    ++idle_segments_;
  }
  return Status::kOk;
}

Status SegmentStore::Deactivate(Uid uid) { return DeactivateNow(uid); }

Status SegmentStore::EvictOneInactive() {
  // Prefer the first segment (in AST order) nobody has initiated; fall back
  // to the first unwired one (its SDWs get invalidated through the hook and
  // reload on segment fault). idle_segments_ says which of the two the walk
  // is looking for, so it stops at the victim instead of scanning the table.
  const bool want_idle = idle_segments_ > 0;
  ActiveSegment* victim = ast_->FindFirst([&](const ActiveSegment& seg) {
    return !seg.wired && (!want_idle || RefCount(seg.uid) == 0);
  });
  if (victim == nullptr) {
    return Status::kResourceExhausted;
  }
  MX_RETURN_IF_ERROR(DeactivateNow(victim->uid));
  ++ast_evictions_;
  return Status::kOk;
}

Status SegmentStore::DeactivateNow(Uid uid) {
  LockGuard ast(machine_->locks().Ast());
  ActiveSegment* seg = ast_->Find(uid);
  if (seg == nullptr) {
    return Status::kNotFound;
  }
  if (deactivate_hook_) {
    deactivate_hook_(uid);  // Disconnect SDWs before the page table dies.
  }
  CHECK(page_control_ != nullptr);
  MX_RETURN_IF_ERROR(page_control_->FlushSegment(seg));

  Branch* branch = Find(uid);
  CHECK(branch != nullptr);
  branch->pages = seg->pages;
  branch->disk_home.assign(seg->pages, kInvalidDevAddr);
  for (PageNo p = 0; p < seg->pages; ++p) {
    if (seg->location[p].level == PageLevel::kDisk) {
      branch->disk_home[p] = seg->location[p].addr;
    }
  }
  return RemoveFromAst(uid);
}

Status SegmentStore::RemoveFromAst(Uid uid) {
  MX_RETURN_IF_ERROR(ast_->Deactivate(uid));
  Entry& entry = entries_[uid];
  if (entry.active_unwired && entry.refs == 0) {
    --idle_segments_;
  }
  entry.active_unwired = false;
  return Status::kOk;
}

Status SegmentStore::SetLength(Uid uid, uint32_t pages) {
  LockGuard ast(machine_->locks().Ast());
  Branch* found = Find(uid);
  if (found == nullptr) {
    return Status::kNoSuchSegment;
  }
  Branch& branch = *found;
  if (pages > branch.max_pages || pages > kMaxSegmentPages) {
    return Status::kSegmentTooLong;
  }
  ActiveSegment* seg = ast_->Find(uid);
  const uint32_t old_pages = seg != nullptr ? seg->pages : branch.pages;
  if (pages == old_pages) {
    return Status::kOk;
  }

  MX_RETURN_IF_ERROR(
      QuotaCharge(branch.parent, static_cast<int64_t>(pages) - static_cast<int64_t>(old_pages)));

  if (pages < old_pages) {
    // Shrink: nobody can read the truncated pages again, so an active
    // segment's tail is discarded wherever it lives, with no write-back.
    if (seg != nullptr) {
      CHECK(page_control_ != nullptr);
      Status st = page_control_->DiscardPages(seg, pages);
      if (st != Status::kOk) {
        (void)QuotaCharge(branch.parent,
                          static_cast<int64_t>(old_pages) - static_cast<int64_t>(pages));
        return st;
      }
      seg->Resize(pages);
    } else {
      for (PageNo p = pages; p < old_pages && p < branch.disk_home.size(); ++p) {
        if (branch.disk_home[p] != kInvalidDevAddr) {
          (void)disk_->Free(branch.disk_home[p]);
        }
      }
      branch.disk_home.resize(pages);
    }
  } else {
    if (seg != nullptr) {
      seg->Resize(pages);
    } else {
      branch.disk_home.resize(pages, kInvalidDevAddr);
    }
  }

  branch.pages = pages;
  branch.date_modified = machine_->clock().now();
  return Status::kOk;
}

Status SegmentStore::Delete(Uid uid) {
  Branch* branch = Find(uid);
  if (branch == nullptr) {
    return Status::kNoSuchSegment;
  }
  if (RefCount(uid) > 0) {
    return Status::kFailedPrecondition;  // Still initiated somewhere.
  }
  if (ActiveSegment* seg = ast_->Find(uid); seg != nullptr) {
    // Multics deleted a segment by truncating it: once no SDW can reach the
    // page table, page control discards every page with no write-back.
    LockGuard ast(machine_->locks().Ast());
    if (deactivate_hook_) {
      deactivate_hook_(uid);
    }
    CHECK(page_control_ != nullptr);
    MX_RETURN_IF_ERROR(page_control_->DiscardPages(seg, 0));
    MX_RETURN_IF_ERROR(RemoveFromAst(uid));
  } else {
    for (DevAddr addr : branch->disk_home) {
      if (addr != kInvalidDevAddr) {
        (void)disk_->Free(addr);
      }
    }
  }
  (void)QuotaCharge(branch->parent, -static_cast<int64_t>(branch->pages));
  entries_[uid].branch.reset();
  --segment_count_;
  return Status::kOk;
}

Status SegmentStore::DeactivateAll() {
  // Shutdown: everything goes home to disk, wired or not, referenced or not.
  LockGuard ast(machine_->locks().Ast());
  std::vector<Uid> active;
  ast_->ForEach([&](ActiveSegment* seg) { active.push_back(seg->uid); });
  for (Uid uid : active) {
    MX_RETURN_IF_ERROR(DeactivateNow(uid));
  }
  return Status::kOk;
}

}  // namespace multics
