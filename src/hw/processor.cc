#include "src/hw/processor.h"

#include "src/meter/host_profile.h"

namespace multics {
namespace {

// A fault that fails to resolve after this many retries is turned into an
// error delivered to the running program.
constexpr int kMaxFaultRetries = 4;

}  // namespace

const char* RingModeName(RingMode mode) {
  return mode == RingMode::kHardware6180 ? "hardware-6180" : "software-645";
}

Processor::Processor(Machine* machine) : machine_(machine) { ring_stack_.reserve(64); }

Status Processor::CheckPermissionBits(const SegmentDescriptor& sdw, AccessMode mode) const {
  switch (mode) {
    case AccessMode::kRead:
      return sdw.read ? Status::kOk : Status::kAccessDenied;
    case AccessMode::kWrite:
      return sdw.write ? Status::kOk : Status::kAccessDenied;
    case AccessMode::kExecute:
    case AccessMode::kCall:
      return sdw.execute ? Status::kOk : Status::kAccessDenied;
  }
  return Status::kAccessDenied;
}

Result<FrameIndex> Processor::Resolve(SegNo segno, WordOffset offset, AccessMode mode) {
  // The descriptor walk runs once per simulated memory reference — the single
  // hottest path in the whole simulator (ROADMAP item 3). Fault handling
  // nested below attributes to its own subsystems and subtracts from self.
  MX_HOST_SPAN(kPageTableWalk);
  if (dseg_ == nullptr) {
    return Status::kFailedPrecondition;
  }
  if (segno >= kMaxSegments) {
    return Status::kNoSuchSegment;
  }

  // Fast path: a previous walk through this exact (descriptor segment,
  // epoch, segno, ring, mode) tuple passed every check, and the epoch
  // guarantees no SDW has changed since — revocation bumps it, so stale
  // widened access is impossible. Only the per-reference conditions
  // (bounds, PTE presence, injection) are re-evaluated; any mismatch falls
  // through to the full walk below.
  WalkCache& wc = walk_cache_[static_cast<size_t>(mode)];
  if (wc.dseg == dseg_ && wc.segno == segno && wc.ring == ring_ &&
      wc.epoch == dseg_->epoch() && offset < kMaxSegmentWords &&
      PageOf(offset) < wc.length_pages && PageOf(offset) < wc.page_table->size()) {
    PageTableEntry& pte = wc.page_table->entries[PageOf(offset)];
    if (pte.present) {
      if (machine_->injector() != nullptr) {
        InjectionDecision d = machine_->ConsultInjector(
            InjectSite::kMemoryAccess, "memory_reference", segno);
        if (d.IsFault()) {
          if (d.delay > 0) machine_->Charge(d.delay, "fault_path");
          machine_->meter().Emit(TraceEventKind::kFaultTaken, "parity_fault", segno);
          return d.fault;
        }
      }
      pte.used = true;
      if (mode == AccessMode::kWrite) {
        pte.modified = true;
      }
      machine_->Charge(machine_->costs().memory_reference, "memory_reference");
      return pte.frame;
    }
  }

  // Segment-fault loop: an invalid SDW directs a fault to the supervisor,
  // which activates the segment and connects its page table.
  for (int attempt = 0;; ++attempt) {
    const SegmentDescriptor& sdw = dseg_->Get(segno);
    if (!sdw.valid) {
      if (attempt >= kMaxFaultRetries) {
        return Status::kNoSuchSegment;
      }
      ++segment_faults_;
      machine_->Charge(machine_->costs().fault_entry, "fault_path");
      machine_->meter().Emit(TraceEventKind::kFaultTaken, "segment_fault", segno);
      Status st = faults_->HandleSegmentFault(segno);
      if (st != Status::kOk) {
        return st;
      }
      continue;
    }

    if (offset >= kMaxSegmentWords || PageOf(offset) >= sdw.length_pages) {
      return Status::kOutOfRange;
    }

    // Ring brackets, then permission bits: both were hardware checks.
    RingCheck check = CheckRingBrackets(ring_, sdw.brackets, mode);
    if (check != RingCheck::kAllowed) {
      return Status::kRingViolation;
    }
    MX_RETURN_IF_ERROR(CheckPermissionBits(sdw, mode));

    if (sdw.page_table == nullptr || PageOf(offset) >= sdw.page_table->size()) {
      return Status::kSegmentDamaged;
    }

    // Page-fault loop.
    PageTableEntry& pte = sdw.page_table->entries[PageOf(offset)];
    if (!pte.present) {
      if (attempt >= kMaxFaultRetries) {
        return Status::kInternal;
      }
      ++page_faults_;
      machine_->Charge(machine_->costs().fault_entry, "fault_path");
      machine_->meter().Emit(TraceEventKind::kFaultTaken, "page_fault", segno);
      Status st = faults_->HandlePageFault(segno, PageOf(offset), mode);
      if (st != Status::kOk) {
        return st;
      }
      continue;  // Re-validate from the top: the SDW may have been reloaded.
    }

    // Every check passed: remember the walk so the next reference through
    // this (segno, ring, mode) skips straight to the PTE.
    wc = WalkCache{dseg_, dseg_->epoch(), segno, ring_,
                   sdw.page_table, sdw.length_pages};

    // Injection point: a parity error on the core reference itself. The
    // fault surfaces to the running program as a Status — never a CHECK —
    // exactly like the hardware delivering a parity fault.
    if (machine_->injector() != nullptr) {
      InjectionDecision d = machine_->ConsultInjector(
          InjectSite::kMemoryAccess, "memory_reference", segno);
      if (d.IsFault()) {
        if (d.delay > 0) machine_->Charge(d.delay, "fault_path");
        machine_->meter().Emit(TraceEventKind::kFaultTaken, "parity_fault", segno);
        return d.fault;
      }
    }

    pte.used = true;
    if (mode == AccessMode::kWrite) {
      pte.modified = true;
    }
    machine_->Charge(machine_->costs().memory_reference, "memory_reference");
    return pte.frame;
  }
}

Result<Word> Processor::Read(SegNo segno, WordOffset offset) {
  MX_ASSIGN_OR_RETURN(FrameIndex frame, Resolve(segno, offset, AccessMode::kRead));
  return machine_->core().ReadWord(frame, PageOffsetOf(offset));
}

Status Processor::Write(SegNo segno, WordOffset offset, Word value) {
  MX_ASSIGN_OR_RETURN(FrameIndex frame, Resolve(segno, offset, AccessMode::kWrite));
  machine_->core().WriteWord(frame, PageOffsetOf(offset), value);
  return Status::kOk;
}

Status Processor::Fetch(SegNo segno, WordOffset offset) {
  MX_ASSIGN_OR_RETURN(FrameIndex frame, Resolve(segno, offset, AccessMode::kExecute));
  (void)frame;
  return Status::kOk;
}

Status Processor::Call(SegNo target, WordOffset entry_offset, uint32_t arg_words) {
  if (dseg_ == nullptr) {
    return Status::kFailedPrecondition;
  }
  if (ring_stack_.size() >= kMaxCallDepth) {
    return Status::kResourceExhausted;  // Stack overflow, confined to the caller.
  }
  // Resolve the SDW (activating the target segment if needed) without the
  // data-access ring test; calls have their own analysis below.
  for (int attempt = 0;; ++attempt) {
    const SegmentDescriptor& sdw = dseg_->Get(target);
    if (!sdw.valid) {
      if (attempt >= kMaxFaultRetries || target >= kMaxSegments) {
        return Status::kNoSuchSegment;
      }
      ++segment_faults_;
      machine_->Charge(machine_->costs().fault_entry, "fault_path");
      machine_->meter().Emit(TraceEventKind::kFaultTaken, "segment_fault", target);
      MX_RETURN_IF_ERROR(faults_->HandleSegmentFault(target));
      continue;
    }

    if (PageOf(entry_offset) >= sdw.length_pages) {
      return Status::kOutOfRange;
    }
    MX_RETURN_IF_ERROR(CheckPermissionBits(sdw, AccessMode::kCall));

    const CostModel& costs = machine_->costs();
    RingCheck check = CheckRingBrackets(ring_, sdw.brackets, AccessMode::kCall);
    switch (check) {
      case RingCheck::kAllowed: {
        // Intra-ring (or intra-bracket) call: no ring change.
        ++intra_ring_calls_;
        machine_->Charge(costs.intra_ring_call, "call_intra");
        ring_stack_.push_back(ring_);
        return Status::kOk;
      }
      case RingCheck::kGateRequired: {
        if (!sdw.gate || entry_offset >= sdw.gate_entries) {
          return Status::kNotAGate;
        }
        ++cross_ring_calls_;
        RingNumber new_ring = TargetRingForCall(ring_, sdw.brackets);
        if (machine_->ring_mode() == RingMode::kHardware6180) {
          // Hardware rings: the call instruction validates the gate and
          // updates the ring register — no extra cost over a plain call.
          machine_->Charge(costs.intra_ring_call + costs.hardware_ring_call_extra,
                           "call_cross");
        } else {
          // 645: trap into the ring-simulation supervisor, validate, swap
          // descriptor segments, copy and validate arguments.
          Cycles total = costs.intra_ring_call + costs.software_ring_trap +
                         costs.software_ring_validate + costs.software_ring_swap +
                         costs.software_ring_arg_copy_per_word * arg_words;
          machine_->Charge(total, "call_cross");
        }
        machine_->meter().Emit(TraceEventKind::kRingCrossing, "call_cross", new_ring);
        ring_stack_.push_back(ring_);
        ring_ = new_ring;
        return Status::kOk;
      }
      case RingCheck::kOutwardCall: {
        if (!allow_outward_calls_) {
          return Status::kRingViolation;
        }
        ++cross_ring_calls_;
        machine_->Charge(costs.intra_ring_call, "call_outward");
        machine_->meter().Emit(TraceEventKind::kRingCrossing, "call_outward",
                               sdw.brackets.write_limit);
        ring_stack_.push_back(ring_);
        ring_ = sdw.brackets.write_limit;
        return Status::kOk;
      }
      case RingCheck::kDenied:
        return Status::kRingViolation;
    }
  }
}

Status Processor::Return() {
  if (ring_stack_.empty()) {
    return Status::kFailedPrecondition;
  }
  RingNumber caller_ring = ring_stack_.back();
  ring_stack_.pop_back();
  const CostModel& costs = machine_->costs();
  if (caller_ring == ring_) {
    machine_->Charge(costs.intra_ring_return, "return_intra");
  } else if (machine_->ring_mode() == RingMode::kHardware6180) {
    machine_->Charge(costs.intra_ring_return + costs.hardware_ring_return_extra, "return_cross");
  } else {
    machine_->Charge(costs.intra_ring_return + costs.software_ring_trap +
                         costs.software_ring_swap,
                     "return_cross");
  }
  if (caller_ring != ring_) {
    machine_->meter().Emit(TraceEventKind::kRingCrossing, "return_cross", caller_ring);
  }
  ring_ = caller_ring;
  return Status::kOk;
}

}  // namespace multics
