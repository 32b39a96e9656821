#include "src/core/gate.h"

namespace multics {

const char* GateCategoryName(GateCategory category) {
  switch (category) {
    case GateCategory::kAddressSpace:
      return "address-space";
    case GateCategory::kPathAddressing:
      return "path-addressing";
    case GateCategory::kNaming:
      return "naming";
    case GateCategory::kLinker:
      return "linker";
    case GateCategory::kFileSystem:
      return "file-system";
    case GateCategory::kSegment:
      return "segment";
    case GateCategory::kProcess:
      return "process";
    case GateCategory::kIpc:
      return "ipc";
    case GateCategory::kDeviceIo:
      return "device-io";
    case GateCategory::kNetwork:
      return "network";
    case GateCategory::kAdmin:
      return "admin";
  }
  return "?";
}

Status GateTable::Register(const std::string& name, GateCategory category) {
  if (Has(name)) {
    return Status::kAlreadyExists;
  }
  gates_.push_back(GateInfo{name, category, 0});
  meter_slots_.push_back(kNoMeterSlot);
  // A pointer may have been cached as a known miss before this name existed.
  name_cache_.Clear();
  return Status::kOk;
}

bool GateTable::Has(const std::string& name) const {
  return IndexOf(name) >= 0;
}

int32_t GateTable::IndexOf(std::string_view name) const {
  for (size_t i = 0; i < gates_.size(); ++i) {
    if (gates_[i].name == name) {
      return static_cast<int32_t>(i);
    }
  }
  return -1;
}

int32_t GateTable::RecordCallIndexed(StaticName name) {
  uint32_t cached = name_cache_.Lookup(name.c_str());
  if (cached == StaticNameCache::kMiss) {
    // First call through this pointer: resolve by contents, remember the
    // verdict (index + 1; 0 encodes "not a gate here") for every later call.
    cached = static_cast<uint32_t>(IndexOf(name.c_str()) + 1);
    name_cache_.Insert(name.c_str(), cached);
  }
  if (cached == 0) {
    return -1;
  }
  const int32_t index = static_cast<int32_t>(cached) - 1;
  ++gates_[static_cast<size_t>(index)].calls;
  ++total_calls_;
  return index;
}

uint32_t GateTable::CountByCategory(GateCategory category) const {
  uint32_t n = 0;
  for (const GateInfo& gate : gates_) {
    if (gate.category == category) {
      ++n;
    }
  }
  return n;
}

}  // namespace multics
