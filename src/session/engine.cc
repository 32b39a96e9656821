#include "src/session/engine.h"

#include <algorithm>

#include "src/base/log.h"

namespace multics {
namespace session {

SessionEngine::SessionEngine(Kernel* kernel, const SessionEngineConfig& config)
    : kernel_(kernel),
      config_(config),
      master_rng_(config.seed),
      started_at_(config.sessions, 0),
      is_batch_(config.sessions, false) {}

Result<std::unique_ptr<SessionEngine>> SessionEngine::Create(Kernel* kernel,
                                                             const SessionEngineConfig& config) {
  if (config.sessions == 0 || config.user_pool == 0 || config.project_dirs == 0 ||
      config.hot_segments == 0) {
    return Status::kInvalidArgument;
  }
  std::unique_ptr<SessionEngine> engine(new SessionEngine(kernel, config));
  MX_RETURN_IF_ERROR(engine->Prepare());
  return engine;
}

Status SessionEngine::Prepare() {
  // Two work classes on top of the default "system" class: interactive
  // sessions hold the larger share; absentee compiles get the remainder.
  TrafficController& traffic = kernel_->traffic();
  interactive_class_ = traffic.DefineWorkClass("interactive", 4);
  batch_class_ = traffic.DefineWorkClass("absentee", 1);

  MX_ASSIGN_OR_RETURN(answering_, AnsweringService::Create(kernel_));
  for (uint32_t user = 0; user < config_.user_pool; ++user) {
    MX_RETURN_IF_ERROR(answering_->RegisterUser("Su" + std::to_string(user), "Sessions",
                                                "pw" + std::to_string(user), MlsLabel{}));
  }

  // The administrative process that builds the shared tree. Ring 0, lowest
  // label, so everything it creates is readable by the session users.
  MX_ASSIGN_OR_RETURN(operator_,
                      kernel_->BootstrapProcess("session_operator",
                                                Principal{"SessionOp", "SysDaemon", "z"},
                                                MlsLabel{}));
  MX_ASSIGN_OR_RETURN(SegNo root, kernel_->RootDir(*operator_));

  SegmentAttributes dir_attrs;
  dir_attrs.acl.Set(AclEntry{"*", "*", "*",
                             static_cast<uint8_t>(kDirStatus | kDirModify | kDirAppend)});
  params_.project_dirs.reserve(config_.project_dirs);
  for (uint32_t dir = 0; dir < config_.project_dirs; ++dir) {
    const std::string name = "proj_" + std::to_string(dir);
    MX_RETURN_IF_ERROR(
        kernel_->FsCreateDirectory(*operator_, root, name, dir_attrs, /*quota_pages=*/0)
            .status());
    params_.project_dirs.push_back(name);
  }

  params_.library_dir = "session_lib";
  MX_RETURN_IF_ERROR(
      kernel_->FsCreateDirectory(*operator_, root, params_.library_dir, dir_attrs, 0)
          .status());
  MX_ASSIGN_OR_RETURN(InitiateResult lib, kernel_->Initiate(*operator_, root,
                                                            params_.library_dir));
  SegmentAttributes hot_attrs;
  hot_attrs.acl.Set(AclEntry{"*", "*", "*", kModeRead});
  hot_attrs.acl.Set(AclEntry{"SessionOp", "SysDaemon", "*", kModeRead | kModeWrite});
  for (uint32_t segment = 0; segment < config_.hot_segments; ++segment) {
    const std::string name = "hot_" + std::to_string(segment);
    MX_RETURN_IF_ERROR(
        kernel_->FsCreateSegment(*operator_, lib.segno, name, hot_attrs).status());
    MX_ASSIGN_OR_RETURN(InitiateResult seg, kernel_->Initiate(*operator_, lib.segno, name));
    MX_RETURN_IF_ERROR(kernel_->SegSetLength(*operator_, seg.segno, 1));
    MX_RETURN_IF_ERROR(kernel_->RunAs(*operator_));
    MX_RETURN_IF_ERROR(kernel_->cpu().Write(seg.segno, 0, segment));
    MX_RETURN_IF_ERROR(kernel_->Terminate(*operator_, seg.segno));
  }

  params_.hot_segments = config_.hot_segments;
  params_.zipf_s = config_.zipf_s;
  params_.mean_think = config_.mean_think;
  params_.interactions = config_.interactions;
  params_.compile_steps = config_.compile_steps;
  params_.compile_burst = config_.compile_burst;
  params_.edit_cost = config_.edit_cost;
  return Status::kOk;
}

void SessionEngine::StartSession(uint32_t index) {
  const Cycles now = kernel_->machine().clock().now();
  started_at_[index] = now;
  const uint32_t user = index % config_.user_pool;
  auto task = std::make_unique<SessionTask>(
      kernel_, &params_, index, config_.seed, is_batch_[index],
      [this](uint32_t i, ProcessId pid, bool ok) { FinishSession(i, pid, ok); });
  auto process = answering_->Login("Su" + std::to_string(user), "Sessions",
                                   "pw" + std::to_string(user), MlsLabel{}, std::move(task));
  if (!process.ok()) {
    ++stats_.failed_logins;
    --outstanding_;
    return;
  }
  (void)kernel_->traffic().AssignWorkClass(
      process.value(), is_batch_[index] ? batch_class_ : interactive_class_);
}

void SessionEngine::FinishSession(uint32_t index, ProcessId pid, bool ok) {
  const Cycles now = kernel_->machine().clock().now();
  const double latency = static_cast<double>(now - started_at_[index]);
  stats_.latency.Add(latency);
  if (is_batch_[index]) {
    stats_.batch_latency.Add(latency);
  } else {
    stats_.interactive_latency.Add(latency);
  }
  if (ok) {
    ++stats_.completed;
  } else {
    ++stats_.failed_sessions;
  }
  last_finish_ = now;
  --outstanding_;
  pending_logouts_.push_back(pid);
}

void SessionEngine::LogOutFinished() {
  std::vector<ProcessId> batch;
  batch.swap(pending_logouts_);
  for (ProcessId pid : batch) {
    (void)answering_->Logout(pid);
  }
}

void SessionEngine::ScheduleArrival(uint32_t index, Cycles previous) {
  // Arrival times and kinds come from the master stream in session order,
  // so arrival order is part of the seed. Each arrival schedules the next:
  // the queue holds one arrival event, not one per session. An arrival
  // already in the past (the event fired behind a leading CPU's clock) is
  // posted at now; it only queues its index, so nothing else moves.
  const Cycles arrival =
      previous +
      master_rng_.NextGeometric(1.0 / static_cast<double>(config_.mean_interarrival)) + 1;
  is_batch_[index] = master_rng_.NextBool(config_.batch_fraction);
  if (index == 0) {
    first_arrival_ = arrival;
  }
  EventQueue& events = kernel_->machine().events();
  events.ScheduleAt(std::max(arrival, events.clock()->now()), [this, index, arrival] {
    pending_arrivals_.push_back(index);
    if (index + 1 < config_.sessions) {
      ScheduleArrival(index + 1, arrival);
    }
  });
}

Status SessionEngine::Run() {
  TrafficController& traffic = kernel_->traffic();
  outstanding_ = config_.sessions;
  ScheduleArrival(0, kernel_->machine().clock().now());

  uint64_t slices = 0;
  while (outstanding_ > 0 && slices < config_.max_slices) {
    if (!pending_logouts_.empty()) {
      LogOutFinished();
      continue;
    }
    if (!pending_arrivals_.empty()) {
      // Drain arrivals at top level, in event order. The logins fault and
      // advance the clock; any arrivals that fire meanwhile just queue.
      std::vector<uint32_t> batch;
      batch.swap(pending_arrivals_);
      for (uint32_t index : batch) {
        StartSession(index);
      }
      continue;
    }
    if (!traffic.RunSlice()) {
      if (!pending_arrivals_.empty()) {
        continue;  // The last slice fast-forwarded onto arrival events.
      }
      // No runnable process, no pending event, no queued arrival: if
      // sessions are still outstanding here, the world deadlocked.
      break;
    }
    ++slices;
    if (tick_ && slices % tick_every_ == 0) {
      tick_(slices);
    }
  }
  LogOutFinished();  // The last sessions finished in the final slices.
  stats_.slices = slices;
  stats_.makespan = last_finish_ > first_arrival_ ? last_finish_ - first_arrival_ : 0;
  if (outstanding_ > 0) {
    LOG(Warning) << "session engine stopped with " << outstanding_
                 << " sessions outstanding after " << slices << " slices";
    return Status::kFailedPrecondition;
  }
  return Status::kOk;
}

}  // namespace session
}  // namespace multics
