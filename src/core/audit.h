// The audit log: every reference-monitor decision is recorded here. The
// fault-injection experiments (E6, E10) use the log to demonstrate the
// negative property the paper cares about — that misbehaving non-kernel code
// produced *zero* unauthorized accesses, only denials.

#ifndef SRC_CORE_AUDIT_H_
#define SRC_CORE_AUDIT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/clock.h"
#include "src/base/static_name.h"
#include "src/base/status.h"
#include "src/fs/branch.h"

namespace multics {

// A decision, held by reference: the principal's interned spelling and the
// operation's static name, so recording one copies no string.
struct AuditRecord {
  Cycles time;
  PrincipalId principal;
  StaticName operation;
  Uid uid;
  Status outcome;
};

class AuditLog {
 public:
  // The most recent decisions kept for display; the counts cover the run.
  static constexpr size_t kWindow = 1024;

  // Records are stamped with `clock`'s time.
  explicit AuditLog(const SimClock* clock) : clock_(clock) {}

  // The id of `spelling`, added on first use. Ids survive Clear().
  PrincipalId Intern(const std::string& spelling);
  const std::string& spelling(PrincipalId id) const { return *spellings_[id]; }

  void Record(PrincipalId principal, StaticName operation, Uid uid, Status outcome);

  uint64_t grants() const { return counts_[static_cast<size_t>(Status::kOk)]; }
  uint64_t denials() const;
  // Lifetime count of denials with exactly this status (0 for kOk).
  uint64_t denials_with(Status status) const;

  const std::deque<AuditRecord>& recent() const { return recent_; }

  // Forgets the window and the counts.
  void Clear();

 private:
  const SimClock* clock_;
  std::unordered_map<std::string, PrincipalId> ids_;
  std::vector<const std::string*> spellings_;  // Keys of ids_, by id.
  std::deque<AuditRecord> recent_;
  // One count per Status, indexed by its value; kProcessCrashed is the largest.
  std::array<uint64_t, static_cast<size_t>(Status::kProcessCrashed) + 1> counts_{};
};

}  // namespace multics

#endif  // SRC_CORE_AUDIT_H_
