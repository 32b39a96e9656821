// Fault interface between the processor and the supervisor.
//
// On a missing SDW the processor takes a segment fault; on a missing page a
// page fault. The kernel installs a FaultSink that activates segments and
// drives page control. A sink returning an error turns the fault into an
// access error delivered to the running program (Status), exactly the
// distinction Multics drew between directed faults the supervisor resolves
// and conditions signalled to the user.

#ifndef SRC_HW_FAULT_H_
#define SRC_HW_FAULT_H_

#include "src/base/status.h"
#include "src/hw/ring.h"
#include "src/hw/word.h"

namespace multics {

enum class FaultType {
  kSegmentFault,
  kPageFault,
  kAccessViolation,
  kGateViolation,
  kLinkageFault,
  kOutOfBounds,
};

class FaultSink {
 public:
  virtual ~FaultSink() = default;

  // Make `segno` valid in the faulting process's descriptor segment
  // (activate the segment, connect its page table).
  virtual Status HandleSegmentFault(SegNo segno) = 0;

  // Bring (segno, page) into primary memory and mark the PTE present.
  virtual Status HandlePageFault(SegNo segno, PageNo page, AccessMode mode) = 0;
};

// A sink that fails every fault; the default until the kernel is attached.
class NullFaultSink : public FaultSink {
 public:
  Status HandleSegmentFault(SegNo) override { return Status::kNoSuchSegment; }
  Status HandlePageFault(SegNo, PageNo, AccessMode) override { return Status::kInternal; }
};

}  // namespace multics

#endif  // SRC_HW_FAULT_H_
