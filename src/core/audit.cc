#include "src/core/audit.h"

#include <numeric>

namespace multics {

PrincipalId AuditLog::Intern(const std::string& spelling) {
  auto [it, added] = ids_.try_emplace(spelling, static_cast<PrincipalId>(spellings_.size()));
  if (added) {
    spellings_.push_back(&it->first);
  }
  return it->second;
}

void AuditLog::Record(PrincipalId principal, StaticName operation, Uid uid, Status outcome) {
  recent_.push_back(AuditRecord{clock_->now(), principal, operation, uid, outcome});
  if (recent_.size() > kWindow) {
    recent_.pop_front();
  }
  ++counts_[static_cast<size_t>(outcome)];
}

uint64_t AuditLog::denials() const {
  return std::accumulate(counts_.begin(), counts_.end(), uint64_t{0}) - grants();
}

uint64_t AuditLog::denials_with(Status status) const {
  return status == Status::kOk ? 0 : counts_[static_cast<size_t>(status)];
}

void AuditLog::Clear() {
  recent_.clear();
  counts_.fill(0);
}

}  // namespace multics
