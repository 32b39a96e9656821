// File-system gates over the segment-number directory interface, plus the
// segment length/truncation gates. These survive kernelization: manipulating
// branches, ACLs, and quotas is information sharing and so must be common
// mechanism; only the *naming conveniences* moved out.

#include "src/core/kernel.h"

namespace multics {

namespace {

// Directory handle + entry lookup, with a directory-access check.
struct EntryRef {
  Uid dir_uid = kInvalidUid;
  Branch* dir_branch = nullptr;
  DirEntry entry;
};

}  // namespace

Result<Uid> Kernel::FsCreateSegment(Process& caller, SegNo dir_segno, const std::string& name,
                                    const SegmentAttributes& attrs) {
  MX_ENTER_GATE(caller, "fs_create_seg", 12);
  MX_ASSIGN_OR_RETURN(Uid dir_uid, ResolveDirSegno(caller, dir_segno));
  MX_ASSIGN_OR_RETURN(Branch * dir_branch, store_.Get(dir_uid));
  MX_RETURN_IF_ERROR(monitor_.RequireDirectory(*dir_branch, caller, kDirAppend, "fs_create_seg"));
  SegmentAttributes effective = attrs;
  effective.author = caller.principal();
  if (params_.config.mls_enforcement && caller.ring() > kRingSupervisor) {
    // The bottom layer labels new objects with the creating subject's label.
    effective.label = caller.clearance();
  }
  // Nobody mints authority below their own ring at creation either.
  if (!effective.brackets.Valid() ||
      (effective.brackets.write_limit < caller.ring() && caller.ring() > kRingSupervisor)) {
    audit_.Record(caller.principal_id(), "fs_create_seg", kInvalidUid, Status::kRingViolation);
    return Status::kRingViolation;
  }
  return hierarchy_.CreateSegment(dir_uid, name, effective);
}

Result<Uid> Kernel::FsCreateDirectory(Process& caller, SegNo dir_segno, const std::string& name,
                                      const SegmentAttributes& attrs, uint32_t quota_pages) {
  MX_ENTER_GATE(caller, "fs_create_dir", 12);
  MX_ASSIGN_OR_RETURN(Uid dir_uid, ResolveDirSegno(caller, dir_segno));
  MX_ASSIGN_OR_RETURN(Branch * dir_branch, store_.Get(dir_uid));
  MX_RETURN_IF_ERROR(monitor_.RequireDirectory(*dir_branch, caller, kDirAppend, "fs_create_dir"));
  SegmentAttributes effective = attrs;
  effective.author = caller.principal();
  if (params_.config.mls_enforcement && caller.ring() > kRingSupervisor) {
    effective.label = caller.clearance();
  }
  return hierarchy_.CreateDirectory(dir_uid, name, effective, quota_pages);
}

Status Kernel::FsCreateLink(Process& caller, SegNo dir_segno, const std::string& name,
                            const std::string& target) {
  MX_ENTER_GATE(caller, "fs_create_link", 10);
  MX_ASSIGN_OR_RETURN(Uid dir_uid, ResolveDirSegno(caller, dir_segno));
  MX_ASSIGN_OR_RETURN(Branch * dir_branch, store_.Get(dir_uid));
  MX_RETURN_IF_ERROR(monitor_.RequireDirectory(*dir_branch, caller, kDirAppend, "fs_create_link"));
  return hierarchy_.CreateLink(dir_uid, name, target);
}

Status Kernel::FsDelete(Process& caller, SegNo dir_segno, const std::string& name) {
  MX_ENTER_GATE(caller, "fs_delete_entry", 8);
  MX_ASSIGN_OR_RETURN(Uid dir_uid, ResolveDirSegno(caller, dir_segno));
  MX_ASSIGN_OR_RETURN(Branch * dir_branch, store_.Get(dir_uid));
  MX_RETURN_IF_ERROR(monitor_.RequireDirectory(*dir_branch, caller, kDirModify, "fs_delete_entry"));
  return hierarchy_.DeleteEntry(dir_uid, name);
}

Status Kernel::FsRename(Process& caller, SegNo dir_segno, const std::string& from,
                        const std::string& to) {
  MX_ENTER_GATE(caller, "fs_rename", 10);
  MX_ASSIGN_OR_RETURN(Uid dir_uid, ResolveDirSegno(caller, dir_segno));
  MX_ASSIGN_OR_RETURN(Branch * dir_branch, store_.Get(dir_uid));
  MX_RETURN_IF_ERROR(monitor_.RequireDirectory(*dir_branch, caller, kDirModify, "fs_rename"));
  return hierarchy_.Rename(dir_uid, from, to);
}

Status Kernel::FsAddName(Process& caller, SegNo dir_segno, const std::string& existing,
                         const std::string& additional) {
  MX_ENTER_GATE(caller, "fs_add_name", 10);
  MX_ASSIGN_OR_RETURN(Uid dir_uid, ResolveDirSegno(caller, dir_segno));
  MX_ASSIGN_OR_RETURN(Branch * dir_branch, store_.Get(dir_uid));
  MX_RETURN_IF_ERROR(monitor_.RequireDirectory(*dir_branch, caller, kDirModify, "fs_add_name"));
  return hierarchy_.AddName(dir_uid, existing, additional);
}

Result<std::vector<std::string>> Kernel::FsList(Process& caller, SegNo dir_segno) {
  MX_ENTER_GATE(caller, "fs_list_dir", 4);
  MX_ASSIGN_OR_RETURN(Uid dir_uid, ResolveDirSegno(caller, dir_segno));
  MX_ASSIGN_OR_RETURN(Branch * dir_branch, store_.Get(dir_uid));
  MX_RETURN_IF_ERROR(monitor_.RequireDirectory(*dir_branch, caller, kDirStatus, "fs_list_dir"));
  MX_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, hierarchy_.List(dir_uid));
  std::vector<std::string> names;
  names.reserve(entries.size());
  for (const DirEntry& entry : entries) {
    names.push_back(entry.name);
  }
  return names;
}

Result<BranchStatus> Kernel::FsStatus(Process& caller, SegNo dir_segno,
                                      const std::string& name) {
  MX_ENTER_GATE(caller, "fs_status_seg", 8);
  MX_ASSIGN_OR_RETURN(Uid dir_uid, ResolveDirSegno(caller, dir_segno));
  MX_ASSIGN_OR_RETURN(Branch * dir_branch, store_.Get(dir_uid));
  MX_RETURN_IF_ERROR(monitor_.RequireDirectory(*dir_branch, caller, kDirStatus, "fs_status_seg"));
  MX_ASSIGN_OR_RETURN(DirEntry entry, hierarchy_.Lookup(dir_uid, name));
  if (entry.is_link) {
    BranchStatus status;
    status.mode_string = "link->" + entry.link_target;
    return status;
  }
  MX_ASSIGN_OR_RETURN(Branch * branch, store_.Get(entry.uid));
  BranchStatus status;
  status.uid = branch->uid;
  status.is_directory = branch->is_directory;
  status.pages = branch->pages;
  status.mode_string = branch->is_directory
                           ? DirModeString(monitor_.DirectoryModes(
                                 *branch, caller.principal(), caller.clearance(),
                                 ReferenceMonitor::Trusted(caller)))
                           : SegmentModeString(monitor_.SegmentModes(
                                 *branch, caller.principal(), caller.clearance(),
                                 ReferenceMonitor::Trusted(caller)));
  status.label = branch->label.ToString();
  status.author = branch->author.ToString();
  return status;
}

namespace {

// The ACL operations need Modify on the *containing directory* (Multics kept
// ACLs in the branch, which lives in the directory).
Result<Uid> TargetForAclOp(Kernel& kernel, Process& caller, SegNo dir_segno,
                           const std::string& name, StaticName op) {
  MX_ASSIGN_OR_RETURN(Uid dir_uid, [&]() -> Result<Uid> {
    auto uid = caller.kst().UidOf(dir_segno);
    if (!uid.ok()) {
      return Status::kSegmentNotKnown;
    }
    return uid.value();
  }());
  MX_ASSIGN_OR_RETURN(Branch * dir_branch, kernel.store().Get(dir_uid));
  MX_RETURN_IF_ERROR(kernel.monitor().RequireDirectory(*dir_branch, caller, kDirModify, op));
  MX_ASSIGN_OR_RETURN(DirEntry entry, kernel.hierarchy().Lookup(dir_uid, name));
  if (entry.is_link) {
    return Status::kInvalidArgument;
  }
  return entry.uid;
}

}  // namespace

Status Kernel::FsSetAcl(Process& caller, SegNo dir_segno, const std::string& name,
                        const AclEntry& entry) {
  MX_ENTER_GATE(caller, "fs_set_acl", 12);
  MX_ASSIGN_OR_RETURN(Uid uid, TargetForAclOp(*this, caller, dir_segno, name, "fs_set_acl"));
  MX_ASSIGN_OR_RETURN(Branch * branch, store_.Get(uid));
  branch->acl.Set(entry);
  DisconnectSdwsFor(uid);  // Everyone re-derives access at the next touch.
  return Status::kOk;
}

Status Kernel::FsRemoveAclEntry(Process& caller, SegNo dir_segno, const std::string& name,
                                const std::string& person, const std::string& project,
                                const std::string& tag) {
  MX_ENTER_GATE(caller, "fs_remove_acl_entry", 12);
  MX_ASSIGN_OR_RETURN(Uid uid,
                      TargetForAclOp(*this, caller, dir_segno, name, "fs_remove_acl_entry"));
  MX_ASSIGN_OR_RETURN(Branch * branch, store_.Get(uid));
  MX_RETURN_IF_ERROR(branch->acl.Remove(person, project, tag));
  DisconnectSdwsFor(uid);
  return Status::kOk;
}

Result<std::vector<std::string>> Kernel::FsListAcl(Process& caller, SegNo dir_segno,
                                                   const std::string& name) {
  MX_ENTER_GATE(caller, "fs_list_acl", 8);
  MX_ASSIGN_OR_RETURN(Uid dir_uid, ResolveDirSegno(caller, dir_segno));
  MX_ASSIGN_OR_RETURN(Branch * dir_branch, store_.Get(dir_uid));
  MX_RETURN_IF_ERROR(monitor_.RequireDirectory(*dir_branch, caller, kDirStatus, "fs_list_acl"));
  MX_ASSIGN_OR_RETURN(DirEntry entry, hierarchy_.Lookup(dir_uid, name));
  if (entry.is_link) {
    return Status::kInvalidArgument;
  }
  MX_ASSIGN_OR_RETURN(Branch * branch, store_.Get(entry.uid));
  std::vector<std::string> lines;
  for (const AclEntry& acl_entry : branch->acl.entries()) {
    lines.push_back(acl_entry.NamePart() + " " +
                    (branch->is_directory ? DirModeString(acl_entry.modes)
                                          : SegmentModeString(acl_entry.modes)));
  }
  return lines;
}

Status Kernel::FsSetRingBrackets(Process& caller, SegNo dir_segno, const std::string& name,
                                 const RingBrackets& brackets, bool gate,
                                 uint32_t gate_entries) {
  MX_ENTER_GATE(caller, "fs_set_ring_brackets", 12);
  if (!brackets.Valid()) {
    return Status::kInvalidArgument;
  }
  // Nobody may set a write bracket below their own ring: that would mint
  // authority they do not have.
  if (brackets.write_limit < caller.ring()) {
    audit_.Record(caller.principal_id(), "fs_set_ring_brackets", kInvalidUid,
                  Status::kRingViolation);
    return Status::kRingViolation;
  }
  MX_ASSIGN_OR_RETURN(Uid uid,
                      TargetForAclOp(*this, caller, dir_segno, name, "fs_set_ring_brackets"));
  MX_ASSIGN_OR_RETURN(Branch * branch, store_.Get(uid));
  branch->brackets = brackets;
  branch->gate = gate;
  branch->gate_entries = gate_entries;
  DisconnectSdwsFor(uid);
  return Status::kOk;
}

Status Kernel::FsSetMaxLength(Process& caller, SegNo dir_segno, const std::string& name,
                              uint32_t max_pages) {
  MX_ENTER_GATE(caller, "fs_set_max_length", 10);
  MX_ASSIGN_OR_RETURN(Uid uid,
                      TargetForAclOp(*this, caller, dir_segno, name, "fs_set_max_length"));
  MX_ASSIGN_OR_RETURN(Branch * branch, store_.Get(uid));
  if (max_pages < branch->pages) {
    return Status::kFailedPrecondition;  // Truncate first.
  }
  branch->max_pages = max_pages;
  return Status::kOk;
}

Status Kernel::FsSetQuota(Process& caller, SegNo dir_segno, uint32_t quota_pages) {
  MX_ENTER_GATE(caller, "fs_set_quota", 6);
  MX_ASSIGN_OR_RETURN(Uid dir_uid, ResolveDirSegno(caller, dir_segno));
  MX_ASSIGN_OR_RETURN(Branch * dir_branch, store_.Get(dir_uid));
  MX_RETURN_IF_ERROR(monitor_.RequireDirectory(*dir_branch, caller, kDirModify, "fs_set_quota"));
  if (quota_pages != 0 && quota_pages < dir_branch->quota_used) {
    return Status::kQuotaExceeded;
  }
  dir_branch->quota_pages = quota_pages;
  return Status::kOk;
}

Result<uint32_t> Kernel::FsGetQuota(Process& caller, SegNo dir_segno) {
  MX_ENTER_GATE(caller, "fs_get_quota", 4);
  MX_ASSIGN_OR_RETURN(Uid dir_uid, ResolveDirSegno(caller, dir_segno));
  MX_ASSIGN_OR_RETURN(Branch * branch, store_.Get(dir_uid));
  return branch->quota_pages;
}

// --- Segment gates -------------------------------------------------------------------

Result<uint32_t> Kernel::SegGetLength(Process& caller, SegNo segno) {
  MX_ENTER_GATE(caller, "seg_get_length", 4);
  MX_ASSIGN_OR_RETURN(Uid uid, ResolveDirSegno(caller, segno));
  MX_ASSIGN_OR_RETURN(Branch * branch, store_.Get(uid));
  if (ActiveSegment* seg = ast_.Find(uid); seg != nullptr) {
    return seg->pages;
  }
  return branch->pages;
}

Status Kernel::SegSetLength(Process& caller, SegNo segno, uint32_t pages) {
  // seg_set_length and seg_truncate share one implementation behind two
  // gates, as the real supervisor did.
  StaticName gate = "seg_set_length";
  {
    auto uid = caller.kst().UidOf(segno);
    if (uid.ok()) {
      MX_ASSIGN_OR_RETURN(Branch * branch, store_.Get(uid.value()));
      uint32_t current =
          ast_.Find(uid.value()) != nullptr ? ast_.Find(uid.value())->pages : branch->pages;
      if (pages < current) {
        gate = "seg_truncate";
      }
    }
  }
  MX_ENTER_GATE(caller, gate, 6);
  MX_ASSIGN_OR_RETURN(Uid uid, ResolveDirSegno(caller, segno));
  MX_ASSIGN_OR_RETURN(Branch * branch, store_.Get(uid));
  // Changing the length modifies the segment: write access required.
  MX_RETURN_IF_ERROR(monitor_.RequireSegment(*branch, caller, kModeWrite, gate));
  MX_RETURN_IF_ERROR(store_.SetLength(uid, pages));
  // Every holder's SDW carries the old bound, and the processor checks the
  // bound before it looks at the page table, so a holder left connected
  // would never fault. Disconnect them all, as ACL and bracket changes do;
  // the others reconnect with the new bound at their next touch.
  DisconnectSdwsFor(uid);
  return ConnectSdw(caller, segno, uid);
}

}  // namespace multics
