#include "src/meter/meter.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/meter/host_profile.h"

namespace multics {

namespace {

// Name-sorted (name, id) index shared by counters and distributions.
auto NameLowerBound(auto& names, std::string_view name) {
  return std::lower_bound(
      names.begin(), names.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
}

size_t NodeHash(uint32_t parent, const char* name, uint64_t pid, uint8_t ring) {
  uint64_t h = (reinterpret_cast<uintptr_t>(name) >> 3) ^ (uint64_t{parent} << 24) ^
               (pid * 0x100000001B3ull) ^ ring;
  // Multiplied last so the low bits (the open-address mask) are mixed.
  h *= 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(h ^ (h >> 32));
}

}  // namespace

Meter::Meter(const SimClock* clock, size_t recorder_capacity)
    : clock_(clock), recorder_(recorder_capacity), nodes_(1) {}

MeterId Meter::InternCounter(std::string_view name) {
  auto it = NameLowerBound(counter_names_, name);
  if (it != counter_names_.end() && it->first == name) {
    return it->second;
  }
  const MeterId id = static_cast<MeterId>(counter_cells_.size());
  counter_cells_.push_back(CounterCell{});
  counter_names_.emplace(it, std::string(name), id);
  return id;
}

MeterId Meter::InternDistribution(std::string_view name) {
  auto it = NameLowerBound(dist_names_, name);
  if (it != dist_names_.end() && it->first == name) {
    return it->second;
  }
  const MeterId id = static_cast<MeterId>(dist_cells_.size());
  dist_cells_.push_back(std::make_unique<Distribution>());
  dist_names_.emplace(it, std::string(name), id);
  return id;
}

void Meter::Emit(TraceEventKind kind, StaticName name, uint64_t arg) {
  MX_HOST_SPAN(kMeterRecord);
  if (!enabled_) {
    return;
  }
  ++kind_totals_[static_cast<size_t>(kind)];
  const auto& stack = context_->stack;
  const uint64_t enclosing = stack.empty() ? 0 : stack.back().id;
  recorder_.Push(TraceEvent{clock_->now(), kind, static_cast<uint32_t>(stack.size()),
                            name.c_str(), arg, attribution_.pid, enclosing, 0, cpu_});
}

uint32_t Meter::InternNode(uint32_t parent, const char* name) {
  if (nodes_.size() * 10 >= node_slots_.size() * 7) {
    RehashNodes(node_slots_.empty() ? 64 : node_slots_.size() * 2);
  }
  const size_t mask = node_slots_.size() - 1;
  for (size_t i = NodeHash(parent, name, attribution_.pid, attribution_.ring) & mask;;
       i = (i + 1) & mask) {
    const uint32_t id = node_slots_[i];
    if (id == 0) {
      node_slots_[i] = static_cast<uint32_t>(nodes_.size());
      nodes_.push_back(ProfileNode{parent, attribution_.ring, attribution_.pid, name, {}});
      return node_slots_[i];
    }
    const ProfileNode& node = nodes_[id];
    if (node.parent == parent && node.name == name && node.pid == attribution_.pid &&
        node.ring == attribution_.ring) {
      return id;
    }
  }
}

void Meter::RehashNodes(size_t size) {
  node_slots_.assign(size, 0);
  const size_t mask = size - 1;
  for (uint32_t id = 1; id < nodes_.size(); ++id) {
    const ProfileNode& node = nodes_[id];
    size_t i = NodeHash(node.parent, node.name, node.pid, node.ring) & mask;
    while (node_slots_[i] != 0) {
      i = (i + 1) & mask;
    }
    node_slots_[i] = id;
  }
}

TraceContext* Meter::OpenSpan(StaticName name, TraceEventKind kind, uint64_t arg) {
  MX_HOST_SPAN(kMeterRecord);
  if (!enabled_) {
    return nullptr;
  }
  TraceContext* ctx = context_;
  const uint64_t parent = ctx->stack.empty() ? 0 : ctx->stack.back().id;
  const uint32_t parent_node = ctx->stack.empty() ? 0 : ctx->stack.back().path_id;
  const uint64_t id = next_span_id_++;
  ctx->stack.push_back(
      SpanFrame{id, parent, clock_->now(), 0, InternNode(parent_node, name.c_str())});
  ++kind_totals_[static_cast<size_t>(kind)];
  recorder_.Push(TraceEvent{clock_->now(), kind, static_cast<uint32_t>(ctx->stack.size()),
                            name.c_str(), arg, attribution_.pid, id, parent, cpu_});
  return ctx;
}

Cycles Meter::CloseSpan(TraceContext* ctx, TraceEventKind kind) {
  MX_HOST_SPAN(kMeterRecord);
  if (ctx == nullptr) {
    return 0;  // Opened while the meter was disabled.
  }
  CHECK(!ctx->stack.empty()) << "CloseSpan on a context with no open span";
  const SpanFrame frame = ctx->stack.back();
  ProfileNode& node = nodes_[frame.path_id];
  const Cycles elapsed = clock_->now() - frame.start;
  CHECK(frame.child_cycles <= elapsed) << "span '" << node.name << "' children exceed total";
  if (enabled_) {
    ++kind_totals_[static_cast<size_t>(kind)];
    recorder_.Push(TraceEvent{clock_->now(), kind, static_cast<uint32_t>(ctx->stack.size()),
                              node.name, elapsed, node.pid, frame.id, frame.parent, cpu_});
  }
  ctx->stack.pop_back();
  if (!ctx->stack.empty()) {
    ctx->stack.back().child_cycles += elapsed;
  }
  if (enabled_) {
    ++node.entry.count;
    node.entry.total += elapsed;
    node.entry.self += elapsed - frame.child_cycles;
    profile_view_valid_ = false;
  }
  return elapsed;
}

TraceContext* Meter::SetContext(TraceContext* ctx) {
  TraceContext* previous = context_;
  context_ = ctx != nullptr ? ctx : &root_context_;
  attribution_ = Attribution{context_->pid, context_->ring};
  return previous;
}

Attribution Meter::SetAttribution(Attribution a) {
  Attribution previous = attribution_;
  attribution_ = a;
  return previous;
}

void Meter::LabelProcess(uint64_t pid, std::string_view label) {
  process_labels_[pid] = std::string(label);
}

uint64_t Meter::counter(std::string_view name) const {
  auto it = NameLowerBound(counter_names_, name);
  return it != counter_names_.end() && it->first == name ? counter_cells_[it->second].value : 0;
}

const Distribution* Meter::FindDistribution(std::string_view name) const {
  auto it = NameLowerBound(dist_names_, name);
  if (it == dist_names_.end() || it->first != name) {
    return nullptr;
  }
  // A registered-but-empty distribution is indistinguishable from an
  // unregistered one, exactly as before interning (recording created the
  // entry).
  const Distribution* dist = dist_cells_[it->second].get();
  return dist->count() > 0 ? dist : nullptr;
}

std::vector<std::pair<std::string, uint64_t>> Meter::CounterSnapshot() const {
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counter_names_.size());
  for (const auto& [name, id] : counter_names_) {
    if (counter_cells_[id].touched) {
      out.emplace_back(name, counter_cells_[id].value);
    }
  }
  return out;
}

std::vector<std::pair<std::string, const Distribution*>> Meter::DistributionSnapshot() const {
  std::vector<std::pair<std::string, const Distribution*>> out;
  out.reserve(dist_names_.size());
  for (const auto& [name, id] : dist_names_) {
    if (dist_cells_[id]->count() > 0) {
      out.emplace_back(name, dist_cells_[id].get());
    }
  }
  return out;
}

void Meter::SpellPath(uint32_t id, std::string* out) const {
  const ProfileNode& node = nodes_[id];
  if (node.parent != 0) {
    SpellPath(node.parent, out);
    out->push_back(';');
  }
  out->append(node.name);
}

const std::map<ProfileKey, ProfileEntry>& Meter::profile() const {
  if (!profile_view_valid_) {
    profile_view_.clear();
    for (uint32_t id = 1; id < nodes_.size(); ++id) {
      const ProfileNode& node = nodes_[id];
      if (node.entry.count == 0) {
        continue;  // No span has closed here since the last Clear().
      }
      ProfileKey key{node.pid, node.ring, {}};
      SpellPath(id, &key.path);
      ProfileEntry& entry = profile_view_[std::move(key)];
      entry.count += node.entry.count;
      entry.self += node.entry.self;
      entry.total += node.entry.total;
    }
    profile_view_valid_ = true;
  }
  return profile_view_;
}

Cycles Meter::ProfileSelfTotal() const {
  Cycles total = 0;
  for (const ProfileNode& node : nodes_) {
    total += node.entry.self;
  }
  return total;
}

void Meter::Clear() {
  recorder_.Clear();
  kind_totals_.fill(0);
  for (CounterCell& cell : counter_cells_) {
    cell = CounterCell{};
  }
  for (const std::unique_ptr<Distribution>& dist : dist_cells_) {
    dist->Clear();
  }
  for (ProfileNode& node : nodes_) {
    node.entry = ProfileEntry{};
  }
  profile_view_.clear();
  profile_view_valid_ = true;
  root_context_.stack.clear();
  next_span_id_ = 1;
}

TraceSpan::TraceSpan(Meter* meter, StaticName name, uint64_t arg)
    : meter_(meter != nullptr && meter->enabled() ? meter : nullptr), name_(name) {
  if (meter_ == nullptr) {
    return;
  }
  ctx_ = meter_->OpenSpan(name_, TraceEventKind::kSpanBegin, arg);
}

TraceSpan::~TraceSpan() {
  if (meter_ == nullptr) {
    return;
  }
  const Cycles elapsed = meter_->CloseSpan(ctx_, TraceEventKind::kSpanEnd);
  meter_->AddSample(meter_->DistIdForStatic(name_), static_cast<double>(elapsed));
}

}  // namespace multics
