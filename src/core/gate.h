// The gate table: the registry of supervisor entry points callable from the
// user ring. This is the object experiment E1 takes its census over — the
// paper reports that removing the linker eliminated 10% of the gate entry
// points and that the linker and reference-name removals together cut the
// user-available supervisor entries by about one third.

#ifndef SRC_CORE_GATE_H_
#define SRC_CORE_GATE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/result.h"
#include "src/base/static_name.h"
#include "src/base/stats.h"

namespace multics {

enum class GateCategory {
  kAddressSpace,    // Segment-number based initiation/termination.
  kPathAddressing,  // Pathname-based initiation (removed with naming).
  kNaming,          // Reference names, search rules (removed).
  kLinker,          // Dynamic linking (removed).
  kFileSystem,      // Directory/branch manipulation.
  kSegment,         // Length, truncation, status.
  kProcess,         // Process management.
  kIpc,             // Event channels and wakeups.
  kDeviceIo,        // Per-device I/O stacks (removed).
  kNetwork,         // The single network attachment.
  kAdmin,           // Shutdown, metering, authentication.
};

const char* GateCategoryName(GateCategory category);

struct GateInfo {
  std::string name;
  GateCategory category;
  uint64_t calls = 0;
};

class GateTable {
 public:
  Status Register(const std::string& name, GateCategory category);
  bool Has(const std::string& name) const;

  // Counts a call through the gate and returns its index, or -1 when the
  // gate was never registered in this configuration (the mechanism was
  // removed from the kernel). The lookup is cached by the name's pointer, so
  // there is no string compare after the first call per name.
  int32_t RecordCallIndexed(StaticName name);

  uint32_t count() const { return static_cast<uint32_t>(gates_.size()); }
  uint32_t CountByCategory(GateCategory category) const;
  uint64_t total_calls() const { return total_calls_; }

  const std::vector<GateInfo>& gates() const { return gates_; }

  // Scratch slot per registered gate for the metering layer to cache an
  // interned per-gate distribution id in (kNoMeterSlot = not yet interned).
  // Lives here so the cache has the same lifetime as the gate table.
  static constexpr uint32_t kNoMeterSlot = 0xffffffffu;
  uint32_t& meter_slot(int32_t index) { return meter_slots_[static_cast<size_t>(index)]; }

 private:
  int32_t IndexOf(std::string_view name) const;

  std::vector<GateInfo> gates_;
  std::vector<uint32_t> meter_slots_;  // Parallel to gates_.
  StaticNameCache name_cache_;         // Literal pointer -> index + 1 (0 = known miss).
  uint64_t total_calls_ = 0;
};

}  // namespace multics

#endif  // SRC_CORE_GATE_H_
