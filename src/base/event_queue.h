// Discrete-event core driving asynchronous activity in the simulation:
// storage-device transfer completions, network packet arrivals, interrupt
// assertions, and daemon-process wakeups all post events here.
//
// Events at equal timestamps dispatch in posting order (stable), which keeps
// runs deterministic.
//
// Hot-path layout (ROADMAP item 3): callbacks are constructed in place in a
// slab of freelist-recycled nodes with inline storage sized for the dominant
// posters (paging-device completions, device I/O, session ticks), so the
// steady state schedules and dispatches without touching the allocator. The
// slab is a list of fixed-size blocks, so node addresses are stable: a
// callback runs where it was built even if the pool grows under it. The
// heap orders plain {when, seq, slot} entries. A posted event always runs:
// nothing in the simulation withdraws one, so the queue mints no ids and
// every heap entry names a live node.

#ifndef SRC_BASE_EVENT_QUEUE_H_
#define SRC_BASE_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/clock.h"
#include "src/base/log.h"
// Host-side observatory only (std-only header, layering carve-out): the
// spans cover the queue mechanics, never the event bodies, and never touch
// the sim clock.
#include "src/meter/host_profile.h"

namespace multics {

// mx:hot-path:begin — event slab, heap entries, schedule/dispatch mechanics.
class EventQueue {
 public:
  explicit EventQueue(SimClock* clock) : clock_(clock) {}
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` to run `delay` cycles from now.
  template <typename F>
  void ScheduleAfter(Cycles delay, F&& fn) {
    ScheduleAt(clock_->now() + delay, std::forward<F>(fn));
  }

  template <typename F>
  void ScheduleAt(Cycles when, F&& fn) {
    MX_HOST_SPAN(kEventQueue);
    CHECK_GE(when, clock_->now());
    const uint32_t slot = AllocSlot();
    EmplaceCallback(&NodeAt(slot), std::forward<F>(fn));
    PushEntry(when, slot);
  }

  // Dispatches the earliest pending event, advancing the clock to its time.
  // Returns false when the queue is empty.
  bool RunOne();

  // Dispatches events until the queue drains or `limit` events have run.
  // Returns the number of events dispatched.
  uint64_t RunUntilIdle(uint64_t limit = UINT64_MAX);

  // Dispatches events with time <= deadline, then advances the clock to
  // `deadline` (if it is later). Returns number dispatched.
  uint64_t RunUntil(Cycles deadline);

  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }
  SimClock* clock() const { return clock_; }

  // Allocation observability for the bounded-memory regression test: total
  // slab nodes ever allocated.
  size_t slab_slots() const { return next_unused_; }

 private:
  // Inline storage covers the largest steady-state poster (a paging-device
  // completion lambda: this, address, done-callback, a page block, a retry
  // counter). Larger callables fall back to one heap allocation held
  // through a pointer in the same storage.
  static constexpr size_t kInlineBytes = 120;
  static constexpr uint32_t kBlockShift = 6;  // 64 nodes per block.
  static constexpr uint32_t kBlockSize = 1u << kBlockShift;
  static constexpr uint32_t kBlockMask = kBlockSize - 1;
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  struct Node {
    void (*invoke)(Node*) = nullptr;
    void (*destroy)(Node*) = nullptr;  // Null = slot free.
    uint32_t next_free = kNoSlot;
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
  };

  struct HeapEntry {
    Cycles when;
    uint64_t seq;  // Tie-break: FIFO among same-time events.
    uint32_t slot;
  };

  // Min-heap on (when, seq) via std::push_heap/pop_heap with this "greater".
  // The dispatch order is a pure function of this comparator, so the heap's
  // internal array layout cannot affect it.
  struct EntryAfter {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  template <typename F>
  static void EmplaceCallback(Node* node, F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t)) {
      new (static_cast<void*>(node->storage)) Fn(std::forward<F>(fn));
      node->invoke = [](Node* n) { (*std::launder(reinterpret_cast<Fn*>(n->storage)))(); };
      node->destroy = [](Node* n) { std::launder(reinterpret_cast<Fn*>(n->storage))->~Fn(); };
    } else {
      new (static_cast<void*>(node->storage)) Fn*(new Fn(std::forward<F>(fn)));
      node->invoke = [](Node* n) { (**std::launder(reinterpret_cast<Fn**>(n->storage)))(); };
      node->destroy = [](Node* n) { delete *std::launder(reinterpret_cast<Fn**>(n->storage)); };
    }
  }

  Node& NodeAt(uint32_t slot) { return blocks_[slot >> kBlockShift][slot & kBlockMask]; }

  uint32_t AllocSlot();
  void PushEntry(Cycles when, uint32_t slot);
  void FreeSlot(uint32_t slot);

  SimClock* clock_;
  std::vector<std::unique_ptr<Node[]>> blocks_;  // Stable node addresses.
  uint32_t next_unused_ = 0;   // Slots [0, next_unused_) have been handed out.
  uint32_t free_head_ = kNoSlot;
  std::vector<HeapEntry> heap_;
  uint64_t next_seq_ = 0;
};
// mx:hot-path:end

}  // namespace multics

#endif  // SRC_BASE_EVENT_QUEUE_H_
