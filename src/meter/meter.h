// The Meter: the kernel-wide metering, tracing, and profiling registry.
//
// One Meter lives on the Machine, so every layer — processor, page control,
// traffic controller, gate layer, network — records into the same place.
// Four kinds of data:
//   * named monotonic counters (Count),
//   * named cycle Distributions (AddSample) — e.g. one histogram per gate,
//   * structured TraceEvents in the bounded FlightRecorder (Emit), plus a
//     per-kind event total kept in a flat array,
//   * a causal cycle-attribution profile folded from closed spans
//     (OpenSpan/CloseSpan): self vs. total cycles per call path, per
//     process, per ring. The profile is accumulated incrementally at span
//     close, so it stays exact even after the flight-recorder ring wraps.
//
// Causality: the Meter always has a current TraceContext (the per-process
// span stack; see context.h). The traffic controller switches it on
// dispatch, so concurrent processes grow separate span trees, and a span
// left open across a block never adopts another process's children. The
// current Attribution {pid, ring} says who the cycles being recorded belong
// to; GateSpan overrides it to the calling process (running in ring 0)
// without re-rooting the causal stack.
//
// The meter is strictly observational: it never touches the sim clock, never
// charges cycles, and never alters control flow, so enabling or disabling it
// cannot change what any bench measures. When disabled every entry point is
// a single predictable branch; names are compared/stored only when enabled.
//
// Name contract: every name the meter keeps by pointer — events, spans,
// literal counters and distributions, gates — arrives as a StaticName
// (trace.h), which only a static char array converts to, so the compiler
// rejects a name that could dangle. Dynamic names intern by contents
// (InternCounter/InternDistribution) and record by MeterId.
//
// Hot-path layout: names intern to dense MeterIds at first registration — a
// name-sorted index maps name -> id, values live in flat id-indexed cells —
// so recording through an id is an array add with no map walk and no string
// construction. Callers with a per-object name (each SimLock, each gate)
// intern once and record by id forever after. The profile is one table of
// interned nodes, each a (parent node, name pointer, pid, ring): a span
// open finds or adds its node with one hash lookup and keeps the id in its
// SpanFrame, so a span close is three adds by index with no lookup. Exports
// spell each node's path by walking its parents and read names from the
// name-sorted indexes, so output stays byte-identical with the string-keyed
// std::map implementation the interning replaced.
//
// Determinism: everything is stamped with the sim clock and stored in
// deterministic containers, so two same-seed runs export byte-identical
// traces and profiles — a cross-subsystem regression invariant
// (tests/meter_test.cc).

#ifndef SRC_METER_METER_H_
#define SRC_METER_METER_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "src/base/clock.h"
#include "src/base/stats.h"
#include "src/meter/context.h"
#include "src/meter/trace.h"

namespace multics {

// Dense handle for an interned counter or distribution name. Valid for the
// lifetime of the Meter that issued it (Clear() drops data, not interning).
using MeterId = uint32_t;
inline constexpr MeterId kInvalidMeterId = 0xffffffffu;

// One row of the cycle-attribution profile: a distinct call path within one
// process at one ring. `path` is the ';'-joined span names from the context
// root to the closed span (folded-stack convention).
struct ProfileKey {
  uint64_t pid = 0;
  uint8_t ring = 0;
  std::string path;

  friend bool operator<(const ProfileKey& a, const ProfileKey& b) {
    return std::tie(a.pid, a.ring, a.path) < std::tie(b.pid, b.ring, b.path);
  }
};

struct ProfileEntry {
  uint64_t count = 0;  // Spans closed at this path.
  Cycles self = 0;     // Cycles inside the span minus closed direct children.
  Cycles total = 0;    // Cycles between open and close.
};

class Meter {
 public:
  explicit Meter(const SimClock* clock, size_t recorder_capacity = 65536);

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  Cycles now() const { return clock_->now(); }

  // --- Recording (all no-ops while disabled) -------------------------------
  // Static-name paths: the name's pointer caches its interned id, so the
  // steady state is an array add with no name search. A cold pointer falls
  // back to interning by contents, so a miss is only slow, never wrong.
  void Count(StaticName name, uint64_t delta = 1) {
    if (!enabled_) {
      return;
    }
    uint32_t id = counter_ptr_cache_.Lookup(name.c_str());
    if (id == StaticNameCache::kMiss) {
      id = InternCounter(name.c_str());
      counter_ptr_cache_.Insert(name.c_str(), id);
    }
    CounterCell& cell = counter_cells_[id];
    cell.value += delta;
    cell.touched = true;
  }
  void AddSample(StaticName name, double sample) {
    if (!enabled_) {
      return;
    }
    dist_cells_[DistIdForStatic(name)]->Add(sample);
  }

  // Interned fast paths. Interning registers the name (idempotent, allowed
  // any time, even while disabled — a registered-but-never-recorded name is
  // invisible to every export); recording by id is an array add.
  MeterId InternCounter(std::string_view name);
  MeterId InternDistribution(std::string_view name);
  void Count(MeterId id, uint64_t delta = 1) {
    if (!enabled_) {
      return;
    }
    CounterCell& cell = counter_cells_[id];
    cell.value += delta;
    cell.touched = true;
  }
  void AddSample(MeterId id, double sample) {
    if (!enabled_) {
      return;
    }
    dist_cells_[id]->Add(sample);
  }
  // Interned-id lookup for a static distribution name (the pointer is
  // cached). Lets TraceSpan record by id without each call site holding a
  // MeterId.
  MeterId DistIdForStatic(StaticName name) {
    uint32_t id = dist_ptr_cache_.Lookup(name.c_str());
    if (id == StaticNameCache::kMiss) {
      id = InternDistribution(name.c_str());
      dist_ptr_cache_.Insert(name.c_str(), id);
    }
    return id;
  }

  // Records an instant event. The recorder keeps `name`'s pointer, not a
  // copy; StaticName guarantees it lives for the whole run.
  void Emit(TraceEventKind kind, StaticName name, uint64_t arg = 0);

  // --- Causal spans --------------------------------------------------------
  // Opens a span on the current context: pushes a frame whose profile node
  // extends the enclosing frame's node by `name` under the current
  // attribution, emits `kind` (a begin-style event) and returns the
  // context the frame was pushed on — pass it back to CloseSpan so the close
  // lands on the right stack even if the current context changed in between.
  // Returns null while disabled (CloseSpan(null) is a no-op).
  TraceContext* OpenSpan(StaticName name, TraceEventKind kind, uint64_t arg = 0);
  // Closes the top span of `ctx`: emits `kind` with arg = elapsed cycles,
  // charges the elapsed total to the parent frame's child_cycles, and adds
  // {count, self, total} into the frame's profile node. Returns elapsed.
  Cycles CloseSpan(TraceContext* ctx, TraceEventKind kind);

  // Installs `ctx` as the current context (null reinstalls the kernel root)
  // and sets the attribution to the context's own {pid, ring}. Returns the
  // previous context. Called by the traffic controller around each dispatch.
  TraceContext* SetContext(TraceContext* ctx);
  TraceContext* context() const { return context_; }
  TraceContext& root_context() { return root_context_; }

  // Overrides who cycles are attributed to without touching the span stack.
  // Returns the previous attribution so callers can restore it (GateSpan).
  Attribution SetAttribution(Attribution a);
  Attribution attribution() const { return attribution_; }

  // Which physical CPU subsequent trace events are stamped with (the per-CPU
  // trace lane). The Machine sets this whenever the active CPU changes.
  void SetCpu(uint32_t cpu) { cpu_ = cpu; }
  uint32_t cpu() const { return cpu_; }

  // Registers a human-readable label for a pid (exporters use it for thread
  // names and folded-stack roots). Pid 0 is pre-labeled "kernel".
  void LabelProcess(uint64_t pid, std::string_view label);
  const std::map<uint64_t, std::string>& process_labels() const { return process_labels_; }

  // --- Inspection ----------------------------------------------------------
  uint64_t counter(std::string_view name) const;
  const Distribution* FindDistribution(std::string_view name) const;
  uint64_t events_of(TraceEventKind kind) const {
    return kind_totals_[static_cast<size_t>(kind)];
  }

  // Name-sorted, so output built from these is deterministic. A name that
  // was interned but never recorded does not appear, matching the old
  // record-creates-the-entry std::map behaviour byte for byte.
  std::vector<std::pair<std::string, uint64_t>> CounterSnapshot() const;
  std::vector<std::pair<std::string, const Distribution*>> DistributionSnapshot() const;

  // The attribution profile, key-sorted (pid, ring, path) — deterministic.
  // Rebuilt lazily from the profile nodes that have a closed span; nodes
  // whose paths spell the same string at the same (pid, ring) merge into
  // one row, so the view is identical to a string-keyed accumulation.
  const std::map<ProfileKey, ProfileEntry>& profile() const;
  // Sum of `self` over the whole profile. When one root span encloses an
  // entire measured window (and every nested span closed), this equals that
  // window's elapsed cycles exactly.
  Cycles ProfileSelfTotal() const;

  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }

  // Open-span depth of the *current* context (1 = one span open).
  uint32_t span_depth() const { return static_cast<uint32_t>(context_->stack.size()); }

  // Drops all recorded data (events, counters, profile, span ids); keeps the
  // enabled flag, interned names and profile nodes (ids stay valid; their
  // counts drop to zero), context registrations, and process labels. Must
  // not be called while any span is open: span ids restart at 1, so an open
  // frame would share its id with a new span in the trace.
  void Clear();

 private:
  struct CounterCell {
    uint64_t value = 0;
    bool touched = false;  // Ever recorded: gates export visibility.
  };
  // One call path within one attribution: the parent node extended by a
  // span name (compared by pointer — the same text via two pointers makes
  // two nodes, which profile() merges by spelling). Node 0 is the root that
  // top-level spans hang from; no span ever closes into it.
  struct ProfileNode {
    uint32_t parent = 0;
    uint8_t ring = 0;
    uint64_t pid = 0;
    const char* name = "";
    ProfileEntry entry;
  };

  // Find-or-add the node for span `name` under `parent`, attributed to the
  // current attribution.
  uint32_t InternNode(uint32_t parent, const char* name);
  // Re-sizes node_slots_ to `size` (a power of two) and re-inserts every
  // node.
  void RehashNodes(size_t size);
  // Appends node `id`'s ';'-joined path to `out`.
  void SpellPath(uint32_t id, std::string* out) const;

  const SimClock* clock_;
  bool enabled_ = true;
  FlightRecorder recorder_;
  std::array<uint64_t, kTraceEventKindCount> kind_totals_{};

  // mx:hot-path:begin — id-indexed cells and interning caches; every
  // Count/AddSample/span-close lands here. No std::map, no string rebuild.
  std::vector<std::pair<std::string, MeterId>> counter_names_;  // Name-sorted.
  std::vector<CounterCell> counter_cells_;                      // Id-indexed.
  std::vector<std::pair<std::string, MeterId>> dist_names_;     // Name-sorted.
  std::vector<std::unique_ptr<Distribution>> dist_cells_;       // Stable ptrs.
  StaticNameCache dist_ptr_cache_;  // Static-name pointer -> distribution id.
  StaticNameCache counter_ptr_cache_;  // Static-name pointer -> counter id.
  std::vector<ProfileNode> nodes_;  // Id-indexed; [0] is the root.
  // Open-addressed node key -> node id: power-of-two, linear probing, grown
  // under 70% load. 0 marks an empty slot (the root is never looked up).
  // Runs on every span open, so no node-based map.
  std::vector<uint32_t> node_slots_;
  // mx:hot-path:end

  TraceContext root_context_{0, 0};
  TraceContext* context_ = &root_context_;
  Attribution attribution_{};
  uint32_t cpu_ = 0;
  uint64_t next_span_id_ = 1;
  std::map<uint64_t, std::string> process_labels_{{0, "kernel"}};

  // Export-side view of the profile nodes, rebuilt on demand (cold).
  mutable std::map<ProfileKey, ProfileEntry> profile_view_;
  mutable bool profile_view_valid_ = true;
};

// RAII helper for nested durations: opens a causal span (kSpanBegin) on
// construction and closes it (kSpanEnd, arg = elapsed cycles) on
// destruction, adding the elapsed cycles to the distribution named `name`.
// The enabled check happens once, at construction; a span on a disabled
// meter costs two null checks. The span remembers which context it opened
// on, so it closes correctly even if the dispatcher switched contexts.
class TraceSpan {
 public:
  TraceSpan(Meter* meter, StaticName name, uint64_t arg = 0);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Meter* meter_;  // Null when the meter was disabled at construction.
  TraceContext* ctx_ = nullptr;
  StaticName name_;
};

}  // namespace multics

#endif  // SRC_METER_METER_H_
