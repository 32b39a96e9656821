#include "src/proc/ipc.h"

#include <algorithm>

#include "src/meter/meter.h"

namespace multics {

ChannelId EventChannelTable::Create(ProcessId owner, uint64_t guard_uid) {
  ChannelId id = next_id_++;
  auto channel = std::make_unique<Channel>();
  channel->owner = owner;
  channel->guard_uid = guard_uid;
  slots_.push_back(std::move(channel));
  if (meter_ != nullptr) {
    meter_->Count("ipc/channels_created");
  }
  return id;
}

Status EventChannelTable::Destroy(ChannelId id) {
  Channel* channel = Find(id);
  if (channel == nullptr) {
    return Status::kNoSuchChannel;
  }
  slots_[id - 1].reset();
  return Status::kOk;
}

size_t EventChannelTable::live_count() const {
  return std::count_if(slots_.begin(), slots_.end(),
                       [](const auto& slot) { return slot != nullptr; });
}

Result<ProcessId> EventChannelTable::OwnerOf(ChannelId id) const {
  const Channel* channel = Find(id);
  if (channel == nullptr) {
    return Status::kNoSuchChannel;
  }
  return channel->owner;
}

Result<uint64_t> EventChannelTable::GuardOf(ChannelId id) const {
  const Channel* channel = Find(id);
  if (channel == nullptr) {
    return Status::kNoSuchChannel;
  }
  return channel->guard_uid;
}

Result<ProcessId> EventChannelTable::Wakeup(ChannelId id, EventMessage message) {
  Channel* channel = Find(id);
  if (channel == nullptr) {
    return Status::kNoSuchChannel;
  }
  channel->queue.push_back(message);
  ++total_wakeups_;
  if (meter_ != nullptr) {
    meter_->Count("ipc/wakeups_queued");
  }
  ProcessId waiter = channel->waiter;
  channel->waiter = kNoProcess;
  return waiter;
}

Result<EventMessage> EventChannelTable::TryReceive(ChannelId id) {
  Channel* channel = Find(id);
  if (channel == nullptr) {
    return Status::kNoSuchChannel;
  }
  if (channel->queue.empty()) {
    return Status::kNotFound;
  }
  EventMessage message = channel->queue.front();
  channel->queue.pop_front();
  if (meter_ != nullptr) {
    meter_->Count("ipc/receives");
  }
  return message;
}

Result<uint64_t> EventChannelTable::QueueLength(ChannelId id) const {
  const Channel* channel = Find(id);
  if (channel == nullptr) {
    return Status::kNoSuchChannel;
  }
  return static_cast<uint64_t>(channel->queue.size());
}

bool EventChannelTable::HasEvents(ChannelId id) const {
  const Channel* channel = Find(id);
  return channel != nullptr && !channel->queue.empty();
}

Status EventChannelTable::SetWaiter(ChannelId id, ProcessId waiter) {
  Channel* channel = Find(id);
  if (channel == nullptr) {
    return Status::kNoSuchChannel;
  }
  channel->waiter = waiter;
  return Status::kOk;
}

}  // namespace multics
