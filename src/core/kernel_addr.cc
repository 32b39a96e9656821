// Address-space gates: the segment-number interface (kernelized core), the
// legacy pathname-addressing gates, and the legacy reference-name gates.
// Experiment E3's "factor of ten" lives in the contrast between these two
// halves of this file.

#include "src/core/kernel.h"

namespace multics {
namespace {

constexpr int kMaxLinkDepth = 8;

// Per-component kernel work of walking one directory level in ring 0.
constexpr Cycles kPathComponentCycles = 120;

}  // namespace

// --- Segment-number interface ------------------------------------------------------

Result<SegNo> Kernel::RootDir(Process& caller) {
  MX_ENTER_GATE(caller, "get_root_dir");
  return InitiateKnown(caller, hierarchy_.root(), "get_root_dir");
}

Result<InitiateResult> Kernel::Initiate(Process& caller, SegNo dir_segno,
                                        const std::string& name) {
  MX_ENTER_GATE(caller, "initiate_seg");
  MX_ASSIGN_OR_RETURN(Uid dir_uid, ResolveDirSegno(caller, dir_segno));
  MX_ASSIGN_OR_RETURN(Branch * dir_branch, store_.Get(dir_uid));
  if (!dir_branch->is_directory) {
    return Status::kNotADirectory;
  }
  MX_RETURN_IF_ERROR(monitor_.RequireDirectory(*dir_branch, caller, kDirStatus, "initiate_seg"));
  MX_ASSIGN_OR_RETURN(DirEntry entry, hierarchy_.Lookup(dir_uid, name));

  InitiateResult result;
  if (entry.is_link) {
    // The kernelized design hands the link back; the user ring chases it.
    result.is_link = true;
    result.link_target = entry.link_target;
    return result;
  }
  MX_ASSIGN_OR_RETURN(Branch * branch, store_.Get(entry.uid));
  result.is_directory = branch->is_directory;
  MX_ASSIGN_OR_RETURN(result.segno, InitiateKnown(caller, entry.uid, "initiate_seg"));
  if (!branch->is_directory) {
    result.granted_modes =
        monitor_.SegmentModes(*branch, caller.principal(), caller.clearance(),
                              ReferenceMonitor::Trusted(caller));
  }
  return result;
}

Status Kernel::Terminate(Process& caller, SegNo segno) {
  MX_ENTER_GATE(caller, "terminate_seg");
  return ReleaseSegno(caller, segno, /*force=*/false);
}

// --- Legacy pathname addressing -------------------------------------------------------

Result<Uid> Kernel::ResolvePathChecked(Process& caller, const std::string& path_text,
                                       StaticName op) {
  MX_ASSIGN_OR_RETURN(Path path, Path::Parse(path_text));
  // Ring-0 pathname walk with per-directory access checks and link chasing:
  // exactly the complex mechanism the kernelized design evicts.
  int depth = kMaxLinkDepth;
  Uid current = hierarchy_.root();
  std::vector<std::string> pending(path.components.rbegin(), path.components.rend());
  while (!pending.empty()) {
    if (--depth < 0) {
      return Status::kLinkageFault;
    }
    MX_ASSIGN_OR_RETURN(Branch * dir_branch, store_.Get(current));
    if (!dir_branch->is_directory) {
      return Status::kNotADirectory;
    }
    machine_.Charge(kPathComponentCycles, "kernel_path_walk");
    ++address_space_ops_;
    MX_RETURN_IF_ERROR(monitor_.RequireDirectory(*dir_branch, caller, kDirStatus, op));
    std::string component = pending.back();
    pending.pop_back();
    MX_ASSIGN_OR_RETURN(DirEntry entry, hierarchy_.Lookup(current, component));
    if (entry.is_link) {
      MX_ASSIGN_OR_RETURN(Path target, Path::Parse(entry.link_target));
      for (auto it = target.components.rbegin(); it != target.components.rend(); ++it) {
        pending.push_back(*it);
      }
      current = hierarchy_.root();
      continue;
    }
    current = entry.uid;
  }
  return current;
}

Result<SegNo> Kernel::InitiatePath(Process& caller, const std::string& path) {
  MX_ENTER_GATE(caller, "initiate_path", 8);
  MX_ASSIGN_OR_RETURN(Uid uid, ResolvePathChecked(caller, path, "initiate_path"));
  MX_ASSIGN_OR_RETURN(SegNo segno, InitiateKnown(caller, uid, "initiate_path"));
  naming(caller).pathnames[segno] = path;  // The legacy KST remembers paths.
  return segno;
}

Status Kernel::TerminatePath(Process& caller, const std::string& path) {
  MX_ENTER_GATE(caller, "terminate_path", 8);
  MX_ASSIGN_OR_RETURN(Uid uid, ResolvePathChecked(caller, path, "terminate_path"));
  auto segno = caller.kst().SegNoOf(uid);
  if (!segno.ok()) {
    return Status::kSegmentNotKnown;
  }
  return ReleaseSegno(caller, segno.value(), /*force=*/false);
}

Result<BranchStatus> Kernel::FsStatusPath(Process& caller, const std::string& path) {
  MX_ENTER_GATE(caller, "status_path", 8);
  MX_ASSIGN_OR_RETURN(Uid uid, ResolvePathChecked(caller, path, "status_path"));
  MX_ASSIGN_OR_RETURN(Branch * branch, store_.Get(uid));
  BranchStatus status;
  status.uid = uid;
  status.is_directory = branch->is_directory;
  status.pages = branch->pages;
  status.mode_string = SegmentModeString(
      monitor_.SegmentModes(*branch, caller.principal(), caller.clearance(),
                            ReferenceMonitor::Trusted(caller)));
  status.label = branch->label.ToString();
  status.author = branch->author.ToString();
  return status;
}

Result<SegNo> Kernel::CreateSegmentPath(Process& caller, const std::string& path,
                                        const SegmentAttributes& attrs) {
  MX_ENTER_GATE(caller, "create_seg_path", 12);
  MX_ASSIGN_OR_RETURN(Path parsed, Path::Parse(path));
  if (parsed.IsRoot()) {
    return Status::kInvalidArgument;
  }
  MX_ASSIGN_OR_RETURN(Uid dir_uid,
                      ResolvePathChecked(caller, parsed.Parent().ToString(), "create_seg_path"));
  MX_ASSIGN_OR_RETURN(Branch * dir_branch, store_.Get(dir_uid));
  MX_RETURN_IF_ERROR(monitor_.RequireDirectory(*dir_branch, caller, kDirAppend, "create_seg_path"));
  SegmentAttributes effective = attrs;
  effective.author = caller.principal();
  if (params_.config.mls_enforcement) {
    effective.label = caller.clearance();  // Created objects get the subject's label.
  }
  MX_ASSIGN_OR_RETURN(Uid uid, hierarchy_.CreateSegment(dir_uid, parsed.Leaf(), effective));
  MX_ASSIGN_OR_RETURN(SegNo segno, InitiateKnown(caller, uid, "create_seg_path"));
  naming(caller).pathnames[segno] = path;
  return segno;
}

Status Kernel::DeletePath(Process& caller, const std::string& path) {
  MX_ENTER_GATE(caller, "delete_path", 8);
  MX_ASSIGN_OR_RETURN(Path parsed, Path::Parse(path));
  if (parsed.IsRoot()) {
    return Status::kInvalidArgument;
  }
  MX_ASSIGN_OR_RETURN(Uid dir_uid,
                      ResolvePathChecked(caller, parsed.Parent().ToString(), "delete_path"));
  MX_ASSIGN_OR_RETURN(Branch * dir_branch, store_.Get(dir_uid));
  MX_RETURN_IF_ERROR(monitor_.RequireDirectory(*dir_branch, caller, kDirModify, "delete_path"));
  return hierarchy_.DeleteEntry(dir_uid, parsed.Leaf());
}

Result<std::vector<std::string>> Kernel::ListPath(Process& caller, const std::string& path) {
  MX_ENTER_GATE(caller, "list_dir_path", 8);
  MX_ASSIGN_OR_RETURN(Uid dir_uid, ResolvePathChecked(caller, path, "list_dir_path"));
  MX_ASSIGN_OR_RETURN(Branch * dir_branch, store_.Get(dir_uid));
  MX_RETURN_IF_ERROR(monitor_.RequireDirectory(*dir_branch, caller, kDirStatus, "list_dir_path"));
  MX_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, hierarchy_.List(dir_uid));
  std::vector<std::string> names;
  names.reserve(entries.size());
  for (const DirEntry& entry : entries) {
    names.push_back(entry.name);
  }
  return names;
}

Status Kernel::SetAclPath(Process& caller, const std::string& path, const AclEntry& entry) {
  MX_ENTER_GATE(caller, "set_acl_path", 10);
  MX_ASSIGN_OR_RETURN(Path parsed, Path::Parse(path));
  if (parsed.IsRoot()) {
    return Status::kInvalidArgument;
  }
  MX_ASSIGN_OR_RETURN(Uid dir_uid,
                      ResolvePathChecked(caller, parsed.Parent().ToString(), "set_acl_path"));
  MX_ASSIGN_OR_RETURN(Branch * dir_branch, store_.Get(dir_uid));
  MX_RETURN_IF_ERROR(monitor_.RequireDirectory(*dir_branch, caller, kDirModify, "set_acl_path"));
  MX_ASSIGN_OR_RETURN(DirEntry entry_found, hierarchy_.Lookup(dir_uid, parsed.Leaf()));
  if (entry_found.is_link) {
    return Status::kInvalidArgument;
  }
  MX_ASSIGN_OR_RETURN(Branch * branch, store_.Get(entry_found.uid));
  branch->acl.Set(entry);
  DisconnectSdwsFor(entry_found.uid);  // Access recomputed on next touch.
  return Status::kOk;
}

Status Kernel::ChnamePath(Process& caller, const std::string& path,
                          const std::string& new_name) {
  MX_ENTER_GATE(caller, "chname_path", 10);
  MX_ASSIGN_OR_RETURN(Path parsed, Path::Parse(path));
  if (parsed.IsRoot()) {
    return Status::kInvalidArgument;
  }
  MX_ASSIGN_OR_RETURN(Uid dir_uid,
                      ResolvePathChecked(caller, parsed.Parent().ToString(), "chname_path"));
  MX_ASSIGN_OR_RETURN(Branch * dir_branch, store_.Get(dir_uid));
  MX_RETURN_IF_ERROR(monitor_.RequireDirectory(*dir_branch, caller, kDirModify, "chname_path"));
  return hierarchy_.Rename(dir_uid, parsed.Leaf(), new_name);
}

Result<uint32_t> Kernel::QuotaReadPath(Process& caller, const std::string& path) {
  MX_ENTER_GATE(caller, "quota_read_path", 8);
  MX_ASSIGN_OR_RETURN(Uid dir_uid, ResolvePathChecked(caller, path, "quota_read_path"));
  MX_ASSIGN_OR_RETURN(Branch * branch, store_.Get(dir_uid));
  return branch->quota_pages;
}

// --- Legacy reference names -----------------------------------------------------------

Status Kernel::NameBind(Process& caller, const std::string& refname, SegNo segno) {
  MX_ENTER_GATE(caller, "bind_ref_name", 6);
  if (refname.empty() || refname.size() > kMaxNameLength) {
    return Status::kInvalidArgument;
  }
  if (!caller.kst().UidOf(segno).ok()) {
    return Status::kSegmentNotKnown;
  }
  LegacyNamingState& state = naming(caller);
  if (state.reference_names.contains(refname)) {
    return Status::kReferenceNameBound;
  }
  state.reference_names[refname] = segno;
  ++address_space_ops_;
  return Status::kOk;
}

Result<SegNo> Kernel::NameLookup(Process& caller, const std::string& refname) {
  MX_ENTER_GATE(caller, "lookup_ref_name", 6);
  LegacyNamingState& state = naming(caller);
  auto it = state.reference_names.find(refname);
  if (it == state.reference_names.end()) {
    return Status::kNoSuchReferenceName;
  }
  ++address_space_ops_;
  return it->second;
}

Status Kernel::NameUnbind(Process& caller, const std::string& refname) {
  MX_ENTER_GATE(caller, "unbind_ref_name", 6);
  ++address_space_ops_;
  return naming(caller).reference_names.erase(refname) > 0 ? Status::kOk
                                                           : Status::kNoSuchReferenceName;
}

Result<std::vector<std::string>> Kernel::NameList(Process& caller) {
  MX_ENTER_GATE(caller, "list_ref_names");
  std::vector<std::string> names;
  for (const auto& [name, segno] : naming(caller).reference_names) {
    names.push_back(name);
  }
  return names;
}

Status Kernel::SetSearchRules(Process& caller, const std::vector<std::string>& rules) {
  MX_ENTER_GATE(caller, "set_search_rules", 16);
  for (const std::string& rule : rules) {
    if (!Path::Parse(rule).ok()) {
      return Status::kInvalidArgument;
    }
  }
  naming(caller).search_rules = rules;
  return Status::kOk;
}

Result<std::vector<std::string>> Kernel::GetSearchRules(Process& caller) {
  MX_ENTER_GATE(caller, "get_search_rules");
  return naming(caller).search_rules;
}

Result<SegNo> Kernel::SearchInitiate(Process& caller, const std::string& refname) {
  MX_ENTER_GATE(caller, "search_initiate", 8);
  return SearchInitiateInternal(caller, refname);
}

Result<SegNo> Kernel::SearchInitiateInternal(Process& caller, const std::string& refname) {
  LegacyNamingState& state = naming(caller);
  // Reference names first, then the search rules, as the old supervisor did.
  if (auto it = state.reference_names.find(refname); it != state.reference_names.end()) {
    return it->second;
  }
  for (const std::string& rule : state.search_rules) {
    auto uid = ResolvePathChecked(caller, rule + ">" + refname, "search_initiate");
    if (!uid.ok()) {
      continue;
    }
    auto segno = InitiateKnown(caller, uid.value(), "search_initiate");
    if (!segno.ok()) {
      continue;  // Found but inaccessible: keep searching, as fs_search did.
    }
    state.reference_names[refname] = segno.value();
    return segno.value();
  }
  return Status::kNotFound;
}

Result<std::string> Kernel::PathnameOf(Process& caller, SegNo segno) {
  MX_ENTER_GATE(caller, "get_pathname", 4);
  LegacyNamingState& state = naming(caller);
  if (auto it = state.pathnames.find(segno); it != state.pathnames.end()) {
    return it->second;
  }
  // Fall back to a reverse walk of the hierarchy.
  auto uid = caller.kst().UidOf(segno);
  if (!uid.ok()) {
    return Status::kSegmentNotKnown;
  }
  MX_ASSIGN_OR_RETURN(Path path, hierarchy_.PathOf(uid.value()));
  return path.ToString();
}

Result<std::pair<SegNo, uint32_t>> Kernel::InitiateCountPath(Process& caller,
                                                             const std::string& path) {
  MX_ENTER_GATE(caller, "initiate_count_path", 10);
  MX_ASSIGN_OR_RETURN(Uid uid, ResolvePathChecked(caller, path, "initiate_count_path"));
  MX_ASSIGN_OR_RETURN(SegNo segno, InitiateKnown(caller, uid, "initiate_count_path"));
  naming(caller).pathnames[segno] = path;
  return std::make_pair(segno, caller.kst().size());
}

Status Kernel::TerminateFilePath(Process& caller, const std::string& path) {
  MX_ENTER_GATE(caller, "terminate_file_path", 8);
  MX_ASSIGN_OR_RETURN(Uid uid, ResolvePathChecked(caller, path, "terminate_file_path"));
  auto segno = caller.kst().SegNoOf(uid);
  if (!segno.ok()) {
    return Status::kSegmentNotKnown;
  }
  // terminate_file_path drops every initiation in one call.
  return ReleaseSegno(caller, segno.value(), /*force=*/true);
}

Status Kernel::TerminateRefName(Process& caller, const std::string& refname) {
  MX_ENTER_GATE(caller, "terminate_ref_name", 6);
  LegacyNamingState& state = naming(caller);
  auto it = state.reference_names.find(refname);
  if (it == state.reference_names.end()) {
    return Status::kNoSuchReferenceName;
  }
  SegNo segno = it->second;
  state.reference_names.erase(it);
  // If that was the last name for the segment, terminate it too.
  for (const auto& [name, bound] : state.reference_names) {
    if (bound == segno) {
      return Status::kOk;
    }
  }
  return ReleaseSegno(caller, segno, /*force=*/false);
}

Result<std::string> Kernel::ExpandPathname(Process& caller, const std::string& path) {
  MX_ENTER_GATE(caller, "expand_pathname", 8);
  MX_ASSIGN_OR_RETURN(Path parsed, Path::Parse(path));
  return parsed.ToString();
}

Result<std::vector<std::pair<SegNo, Uid>>> Kernel::KstStatus(Process& caller) {
  MX_ENTER_GATE(caller, "kst_status", 2);
  std::vector<std::pair<SegNo, Uid>> out;
  caller.kst().ForEach([&](SegNo segno, Uid uid) { out.emplace_back(segno, uid); });
  return out;
}

Result<Word> Kernel::DumpReadWord(Uid uid, WordOffset offset) {
  MX_ASSIGN_OR_RETURN(ActiveSegment * seg, store_.Activate(uid));
  if (PageOf(offset) >= seg->pages) {
    return Status::kOutOfRange;
  }
  MX_RETURN_IF_ERROR(page_control_->EnsureResident(seg, PageOf(offset), AccessMode::kRead));
  return machine_.core().ReadWord(seg->page_table.entries[PageOf(offset)].frame,
                                  PageOffsetOf(offset));
}

Result<Word> Kernel::KernelReadWord(Process& process, SegNo segno, WordOffset offset) {
  auto uid = process.kst().UidOf(segno);
  if (!uid.ok()) {
    return Status::kNoSuchSegment;
  }
  MX_ASSIGN_OR_RETURN(ActiveSegment * seg, store_.Activate(uid.value()));
  if (PageOf(offset) >= seg->pages) {
    return Status::kOutOfRange;
  }
  MX_RETURN_IF_ERROR(page_control_->EnsureResident(seg, PageOf(offset), AccessMode::kRead));
  machine_.Charge(machine_.costs().memory_reference, "memory_reference");
  PageTableEntry& pte = seg->page_table.entries[PageOf(offset)];
  pte.used = true;
  return machine_.core().ReadWord(pte.frame, PageOffsetOf(offset));
}

Status Kernel::KernelWriteWord(Process& process, SegNo segno, WordOffset offset, Word value) {
  auto uid = process.kst().UidOf(segno);
  if (!uid.ok()) {
    return Status::kNoSuchSegment;
  }
  MX_ASSIGN_OR_RETURN(ActiveSegment * seg, store_.Activate(uid.value()));
  if (PageOf(offset) >= seg->pages) {
    return Status::kOutOfRange;
  }
  MX_RETURN_IF_ERROR(page_control_->EnsureResident(seg, PageOf(offset), AccessMode::kWrite));
  machine_.Charge(machine_.costs().memory_reference, "memory_reference");
  PageTableEntry& pte = seg->page_table.entries[PageOf(offset)];
  pte.used = true;
  pte.modified = true;
  machine_.core().WriteWord(pte.frame, PageOffsetOf(offset), value);
  return Status::kOk;
}

}  // namespace multics
