// The in-kernel dynamic linker gates (legacy configurations only).
//
// This is the mechanism the paper calls "especially vulnerable and complex":
// "the chances of such a complex 'argument', if maliciously malstructured,
// causing the linker to malfunction while executing in the supervisor were
// demonstrated to be very high by numerous accidents." We reproduce the sin
// faithfully: the kernel-resident linker runs with validate=false, trusting
// the user-constructed object header, and every wild reference it takes is a
// ring-0 fault counted in kernel_faults() — experiment E10's crash counter.

#include "src/core/kernel.h"

namespace multics {

// Linkage environment for the ring-0 linker: name resolution through the
// kernel's own reference names and search rules; word access with kernel
// authority (no ring or permission checks — it IS ring 0, that's the bug).
class KernelLinkEnv : public LinkageEnvironment {
 public:
  KernelLinkEnv(Kernel* kernel, Process* process) : kernel_(kernel), process_(process) {}

  Result<SegNo> FindSegment(const std::string& name) override {
    return kernel_->SearchInitiateInternal(*process_, name);
  }

  Result<Word> ReadWord(SegNo segno, WordOffset offset) override {
    return kernel_->KernelReadWord(*process_, segno, offset);
  }

  Status WriteWord(SegNo segno, WordOffset offset, Word value) override {
    return kernel_->KernelWriteWord(*process_, segno, offset, value);
  }

  Result<uint32_t> SegmentLengthWords(SegNo segno) override {
    auto uid = process_->kst().UidOf(segno);
    if (!uid.ok()) {
      return Status::kNoSuchSegment;
    }
    MX_ASSIGN_OR_RETURN(ActiveSegment * seg, kernel_->store().Activate(uid.value()));
    return seg->pages * kPageWords;
  }

 private:
  Kernel* kernel_;
  Process* process_;
};

namespace {

// Ring-0 CPU work per linker invocation (the linker was a large program).
constexpr Cycles kLinkerCycles = 400;

}  // namespace

Result<uint32_t> Kernel::LinkSnapAll(Process& caller, SegNo object) {
  MX_ENTER_GATE(caller, "link_snap_all", 4);
  machine_.Charge(kLinkerCycles, "kernel_linker");
  KernelLinkEnv env(this, &caller);
  Linker linker(&env, /*validate_input=*/false);
  auto result = linker.SnapAll(object);
  kernel_faults_ += linker.wild_references();
  if (!result.ok()) {
    audit_.Record(caller.principal_id(), "link_snap_all", kInvalidUid, result.status());
    return result.status();
  }
  return result->snapped;
}

Result<std::pair<SegNo, WordOffset>> Kernel::LinkSnapOne(Process& caller, SegNo object,
                                                         uint32_t index) {
  MX_ENTER_GATE(caller, "link_snap_one", 6);
  machine_.Charge(kLinkerCycles, "kernel_linker");
  KernelLinkEnv env(this, &caller);
  Linker linker(&env, false);
  auto result = linker.SnapOne(object, index);
  kernel_faults_ += linker.wild_references();
  return result;
}

Result<WordOffset> Kernel::LinkLookupSymbol(Process& caller, SegNo object,
                                            const std::string& symbol) {
  MX_ENTER_GATE(caller, "link_lookup_symbol", 6);
  machine_.Charge(kLinkerCycles / 2, "kernel_linker");
  KernelLinkEnv env(this, &caller);
  Linker linker(&env, false);
  auto result = linker.LookupSymbol(object, symbol);
  kernel_faults_ += linker.wild_references();
  return result;
}

Result<uint32_t> Kernel::LinkGetEntryBound(Process& caller, SegNo object) {
  MX_ENTER_GATE(caller, "link_get_entry_bound", 4);
  KernelLinkEnv env(this, &caller);
  Linker linker(&env, false);
  auto header = linker.Header(object);
  kernel_faults_ += linker.wild_references();
  if (!header.ok()) {
    return header.status();
  }
  return header->entry_bound;
}

Result<std::vector<std::string>> Kernel::LinkGetDefs(Process& caller, SegNo object) {
  MX_ENTER_GATE(caller, "link_get_defs", 4);
  machine_.Charge(kLinkerCycles / 2, "kernel_linker");
  KernelLinkEnv env(this, &caller);
  Linker linker(&env, false);
  auto header = linker.Header(object);
  if (!header.ok()) {
    kernel_faults_ += linker.wild_references();
    return header.status();
  }
  auto reader = [&env, object](WordOffset offset) { return env.ReadWord(object, offset); };
  auto defs = ObjectReader::ReadDefs(reader, header.value());
  kernel_faults_ += linker.wild_references();
  if (!defs.ok()) {
    return defs.status();
  }
  std::vector<std::string> names;
  names.reserve(defs->size());
  for (const SymbolDef& def : defs.value()) {
    names.push_back(def.name);
  }
  return names;
}

Status Kernel::LinkUnsnap(Process& caller, SegNo object) {
  MX_ENTER_GATE(caller, "link_unsnap", 4);
  machine_.Charge(kLinkerCycles / 2, "kernel_linker");
  KernelLinkEnv env(this, &caller);
  Linker linker(&env, false);
  auto header = linker.Header(object);
  kernel_faults_ += linker.wild_references();
  if (!header.ok()) {
    return header.status();
  }
  for (uint32_t i = 0; i < header->links_count; ++i) {
    const WordOffset at = header->links_offset + i * kLinkRecordWords + 2 * kPackedNameWords;
    Status st = KernelWriteWord(caller, object, at, 0);
    if (st != Status::kOk) {
      ++kernel_faults_;
      return st;
    }
  }
  return Status::kOk;
}

Result<uint32_t> Kernel::CombineLinkage(Process& caller, const std::vector<SegNo>& objects) {
  MX_ENTER_GATE(caller, "combine_linkage", 8);
  uint32_t snapped = 0;
  for (SegNo object : objects) {
    machine_.Charge(kLinkerCycles, "kernel_linker");
    KernelLinkEnv env(this, &caller);
    Linker linker(&env, false);
    auto result = linker.SnapAll(object);
    kernel_faults_ += linker.wild_references();
    if (!result.ok()) {
      return result.status();
    }
    snapped += result->snapped;
  }
  return snapped;
}

Status Kernel::SetLinkagePtr(Process& caller, SegNo object, WordOffset lp) {
  MX_ENTER_GATE(caller, "set_linkage_ptr", 4);
  if (!caller.kst().UidOf(object).ok()) {
    return Status::kSegmentNotKnown;
  }
  naming(caller).linkage_ptrs[object] = lp;
  return Status::kOk;
}

Result<WordOffset> Kernel::GetLinkagePtr(const Process& caller, SegNo object) const {
  auto it = legacy_naming_.find(caller.pid());
  if (it == legacy_naming_.end()) {
    return Status::kNotFound;
  }
  auto lp = it->second.linkage_ptrs.find(object);
  if (lp == it->second.linkage_ptrs.end()) {
    return Status::kNotFound;
  }
  return lp->second;
}

}  // namespace multics
