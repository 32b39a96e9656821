#include "src/core/reference_monitor.h"

namespace multics {

uint8_t ReferenceMonitor::SegmentModes(const Branch& branch, const Principal& principal,
                                       const MlsLabel& clearance, bool trusted) {
  ++checks_;
  uint8_t modes = branch.acl.EffectiveModes(principal);
  if (mls_ && !trusted) {
    if (!MlsCanRead(clearance, branch.label)) {
      modes &= static_cast<uint8_t>(~(kModeRead | kModeExecute));
    }
    if (!MlsCanWrite(clearance, branch.label)) {
      modes &= static_cast<uint8_t>(~kModeWrite);
    }
  }
  return modes;
}

uint8_t ReferenceMonitor::DirectoryModes(const Branch& branch, const Principal& principal,
                                         const MlsLabel& clearance, bool trusted) {
  ++checks_;
  uint8_t modes = branch.acl.EffectiveModes(principal);
  if (mls_ && !trusted) {
    if (!MlsCanRead(clearance, branch.label)) {
      modes &= static_cast<uint8_t>(~kDirStatus);
    }
    if (!MlsCanWrite(clearance, branch.label)) {
      modes &= static_cast<uint8_t>(~(kDirModify | kDirAppend));
    }
  }
  return modes;
}

namespace {

// Distinguishes the reason a wanted mode is missing, for the audit trail.
Status DenialReason(bool mls_enforced, const MlsLabel& clearance, const MlsLabel& label,
                    uint8_t wanted, bool read_like_missing, bool write_like_missing) {
  if (mls_enforced) {
    if (read_like_missing && !MlsCanRead(clearance, label)) {
      return Status::kMlsReadViolation;
    }
    if (write_like_missing && !MlsCanWrite(clearance, label)) {
      return Status::kMlsWriteViolation;
    }
  }
  (void)wanted;
  return Status::kAccessDenied;
}

}  // namespace

Status ReferenceMonitor::RequireSegment(const Branch& branch, const Process& subject,
                                        uint8_t wanted, StaticName operation) {
  const bool trusted = Trusted(subject);
  uint8_t granted = SegmentModes(branch, subject.principal(), subject.clearance(), trusted);
  Status outcome = Status::kOk;
  if ((granted & wanted) != wanted) {
    uint8_t missing = wanted & static_cast<uint8_t>(~granted);
    outcome = DenialReason(mls_ && !trusted, subject.clearance(), branch.label, wanted,
                           (missing & (kModeRead | kModeExecute)) != 0,
                           (missing & kModeWrite) != 0);
  }
  audit_->Record(subject.principal_id(), operation, branch.uid, outcome);
  return outcome;
}

Status ReferenceMonitor::RequireDirectory(const Branch& branch, const Process& subject,
                                          uint8_t wanted, StaticName operation) {
  const bool trusted = Trusted(subject);
  uint8_t granted = DirectoryModes(branch, subject.principal(), subject.clearance(), trusted);
  Status outcome = Status::kOk;
  if ((granted & wanted) != wanted) {
    uint8_t missing = wanted & static_cast<uint8_t>(~granted);
    outcome = DenialReason(mls_ && !trusted, subject.clearance(), branch.label, wanted,
                           (missing & kDirStatus) != 0,
                           (missing & (kDirModify | kDirAppend)) != 0);
  }
  audit_->Record(subject.principal_id(), operation, branch.uid, outcome);
  return outcome;
}

SegmentDescriptor ReferenceMonitor::BuildSdw(const Branch& branch, uint8_t granted_modes,
                                             PageTable* page_table) const {
  SegmentDescriptor sdw;
  sdw.valid = true;
  sdw.page_table = page_table;
  sdw.length_pages = page_table != nullptr ? page_table->size() : 0;
  sdw.brackets = branch.brackets;
  sdw.read = (granted_modes & kModeRead) != 0;
  sdw.write = (granted_modes & kModeWrite) != 0;
  sdw.execute = (granted_modes & kModeExecute) != 0;
  sdw.gate = branch.gate;
  sdw.gate_entries = branch.gate_entries;
  sdw.uid = branch.uid;
  return sdw;
}

}  // namespace multics
