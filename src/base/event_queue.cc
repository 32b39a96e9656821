#include "src/base/event_queue.h"

#include <algorithm>

namespace multics {

EventQueue::~EventQueue() {
  // Destroy any callbacks still pending. Free slots have a null destroy
  // pointer, so walking every handed-out slot is safe.
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
    free_head_ = NodeAt(slot).next_free;
    return slot;
  }
  if ((next_unused_ >> kBlockShift) == blocks_.size()) {
    blocks_.push_back(std::make_unique<Node[]>(kBlockSize));
  }
  return next_unused_++;
}

void EventQueue::PushEntry(Cycles when, uint32_t slot) {
  heap_.push_back(HeapEntry{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
}

void EventQueue::FreeSlot(uint32_t slot) {
  Node& node = NodeAt(slot);
  node.destroy = nullptr;
  node.next_free = free_head_;
  free_head_ = slot;
}

bool EventQueue::RunOne() {
  // The host span covers the queue mechanics (pop, clock advance, slot
  // recycling) but NOT the event body: the callback is arbitrary kernel
  // work that attributes to its own subsystems.
  Node* node = nullptr;
  uint32_t slot = 0;
  {
    MX_HOST_SPAN(kEventQueue);
    if (heap_.empty()) {
      return false;
    }
    const HeapEntry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
    heap_.pop_back();
    clock_->AdvanceTo(top.when);
    // The slot stays off the freelist until the callback returns, so nested
    // scheduling can never build a new event on top of a running one.
    slot = top.slot;
    node = &NodeAt(slot);
  }
  node->invoke(node);
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
