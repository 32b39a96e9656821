// The reference monitor: the single place where an access request (principal,
// clearance, wanted modes) meets an object's protection attributes (ACL, MLS
// label, ring brackets). The effective modes it computes are baked into the
// SDW at initiation time, so the simulated hardware enforces the decision on
// every subsequent reference — exactly the Multics division of labour.
//
// The Mitre-model compartment checks sit at the bottom (layered kernel,
// paper's first partitioning suggestion): an ACL can only ever *restrict*
// what the lattice allows, never widen it.

#ifndef SRC_CORE_REFERENCE_MONITOR_H_
#define SRC_CORE_REFERENCE_MONITOR_H_

#include "src/core/audit.h"
#include "src/fs/branch.h"
#include "src/hw/sdw.h"
#include "src/mls/label.h"
#include "src/proc/process.h"

namespace multics {

class ReferenceMonitor {
 public:
  ReferenceMonitor(AuditLog* audit, bool mls_enforcement)
      : audit_(audit), mls_(mls_enforcement) {}

  bool mls_enforced() const { return mls_; }

  // Bell-LaPadula trusted subjects: the kernel's own daemons and system
  // services (ring <= 1).
  static bool Trusted(const Process& subject) { return subject.ring() <= kRingSupervisor; }

  // Effective segment modes: ACL grant intersected with what the lattice
  // permits for this (clearance, label) pair. A trusted subject is exempt
  // from the lattice restrictions but never from the ACL.
  uint8_t SegmentModes(const Branch& branch, const Principal& principal,
                       const MlsLabel& clearance, bool trusted = false);

  // Effective directory modes (status ~ observe, modify/append ~ alter).
  uint8_t DirectoryModes(const Branch& branch, const Principal& principal,
                         const MlsLabel& clearance, bool trusted = false);

  // Checks that every bit of `wanted` is granted to `subject`; audits the
  // decision. The returned status distinguishes ACL denials from lattice
  // denials so the audit trail shows *why* (and tests can assert on the
  // reason).
  Status RequireSegment(const Branch& branch, const Process& subject, uint8_t wanted,
                        StaticName operation);
  Status RequireDirectory(const Branch& branch, const Process& subject, uint8_t wanted,
                          StaticName operation);

  // Builds the hardware descriptor embodying the decision.
  SegmentDescriptor BuildSdw(const Branch& branch, uint8_t granted_modes,
                             PageTable* page_table) const;

  uint64_t checks() const { return checks_; }

 private:
  AuditLog* audit_;
  bool mls_;
  // Deliberately not `mutable`: a counter mutated from const methods is
  // invisible kernel state, and on the multiprocessor it would be an
  // unlocked write hiding behind a const façade. mx_lint enforces this.
  uint64_t checks_ = 0;
};

}  // namespace multics

#endif  // SRC_CORE_REFERENCE_MONITOR_H_
