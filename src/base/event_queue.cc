#include "src/base/event_queue.h"

#include <algorithm>

namespace multics {

EventQueue::~EventQueue() {
  // Destroy any callbacks still pending. Free slots and tombstoned entries
  // have null invoke/destroy pointers, so walking every handed-out slot is
  // safe.
  for (uint32_t slot = 0; slot < next_unused_; ++slot) {
    Node& node = NodeAt(slot);
    if (node.destroy != nullptr) {
      node.destroy(&node);
    }
  }
}

uint32_t EventQueue::AllocSlot() {
  if (free_head_ != kNoSlot) {
    const uint32_t slot = free_head_;
    Node& node = NodeAt(slot);
    free_head_ = node.next_free;
    if (node.gen == 0) {
      node.gen = 1;  // Generation wrapped; 0 is reserved for "never valid".
    }
    return slot;
  }
  if ((next_unused_ >> kBlockShift) == blocks_.size()) {
    blocks_.push_back(std::make_unique<Node[]>(kBlockSize));
  }
  return next_unused_++;
}

uint64_t EventQueue::PushEntry(Cycles when, uint32_t slot) {
  const uint32_t gen = NodeAt(slot).gen;
  heap_.push_back(HeapEntry{when, next_seq_++, slot, gen});
  std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
  ++live_count_;
  return (static_cast<uint64_t>(gen) << 32) | slot;
}

void EventQueue::FreeSlot(uint32_t slot) {
  Node& node = NodeAt(slot);
  ++node.gen;  // Invalidates every id minted for the old occupant.
  node.invoke = nullptr;
  node.destroy = nullptr;
  node.next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::PruneTombstones() {
  auto stale = [this](const HeapEntry& entry) {
    const Node& node = NodeAt(entry.slot);
    return node.gen != entry.gen || node.invoke == nullptr;
  };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), stale), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), EntryAfter{});
  tombstones_ = 0;
}

bool EventQueue::Cancel(uint64_t id) {
  MX_HOST_SPAN(kEventQueue);
  const uint32_t slot = static_cast<uint32_t>(id);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (gen == 0 || slot >= next_unused_) {
    return false;
  }
  Node& node = NodeAt(slot);
  if (node.gen != gen || node.invoke == nullptr) {
    return false;  // Already ran, already cancelled, or slot was recycled.
  }
  node.destroy(&node);
  FreeSlot(slot);
  --live_count_;
  ++tombstones_;
  // Keep the heap at most half stale: prune (O(n) + make_heap) only when the
  // work amortises against the tombstones removed, so a schedule/cancel storm
  // runs in bounded memory without quadratic rebuilds.
  if (tombstones_ > 16 && tombstones_ * 2 > heap_.size()) {
    PruneTombstones();
  }
  return true;
}

bool EventQueue::RunOne() {
  // The host span covers the queue mechanics (pop, tombstone filtering,
  // clock advance, slot recycling) but NOT the event body: the callback is
  // arbitrary kernel work that attributes to its own subsystems.
  Node* node = nullptr;
  uint32_t slot = 0;
  void (*invoke)(Node*) = nullptr;
  {
    MX_HOST_SPAN(kEventQueue);
    for (;;) {
      if (heap_.empty()) {
        return false;
      }
      const HeapEntry top = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
      heap_.pop_back();
      Node& candidate = NodeAt(top.slot);
      if (candidate.gen != top.gen || candidate.invoke == nullptr) {
        --tombstones_;
        continue;
      }
      --live_count_;
      clock_->AdvanceTo(top.when);
      // Detach before running: the id dies now (Cancel of a running event
      // reports "already ran") and the slot stays off the freelist until the
      // callback returns, so nested scheduling can never build a new event
      // on top of a live one.
      ++candidate.gen;
      invoke = candidate.invoke;
      candidate.invoke = nullptr;
      node = &candidate;
      slot = top.slot;
      break;
    }
  }
  invoke(node);
  {
    MX_HOST_SPAN(kEventQueue);
    node->destroy(node);
    FreeSlot(slot);
  }
  return true;
}

uint64_t EventQueue::RunUntilIdle(uint64_t limit) {
  uint64_t n = 0;
  while (n < limit && RunOne()) {
    ++n;
  }
  return n;
}

uint64_t EventQueue::RunUntil(Cycles deadline) {
  uint64_t n = 0;
  for (;;) {
    bool stop = false;
    {
      MX_HOST_SPAN(kEventQueue);
      // Drop leading tombstones so the deadline test sees a live event.
      while (!heap_.empty()) {
        const HeapEntry& top = heap_.front();
        const Node& node = NodeAt(top.slot);
        if (node.gen == top.gen && node.invoke != nullptr) {
          break;
        }
        std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
        heap_.pop_back();
        --tombstones_;
      }
      stop = heap_.empty() || heap_.front().when > deadline;
    }
    if (stop) {
      break;
    }
    RunOne();
    ++n;
  }
  clock_->AdvanceTo(deadline);
  return n;
}

}  // namespace multics
