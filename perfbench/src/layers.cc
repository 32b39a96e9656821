#include "perfbench/src/layers.h"

#include <algorithm>

namespace perfbench {

using multics::HostProfiler;
using multics::HostSubsystem;
using multics::Kernel;

namespace {

// Gates reported one by one: every gate the measured phase of any workload
// calls. The list is fixed so every workload prints the same metric names.
constexpr const char* kReportedGates[] = {
    "get_root_dir",   "initiate_seg",       "terminate_seg",      "fs_create_seg",
    "fs_delete_entry", "fs_set_acl",        "fs_remove_acl_entry", "fs_status_seg",
    "seg_set_length", "ipc_create_channel", "ipc_destroy_channel", "proc_create",
};

// Gates the acl_churn workload calls itself, timed by benchmark-owned spans.
constexpr const char* kChurnerGates[] = {"initiate_seg", "terminate_seg", "fs_set_acl",
                                        "fs_remove_acl_entry"};

// Cycle-charge categories reported by name; every other category lands in
// charge.other_mcycles. Session categories share the "session_" prefix.
constexpr const char* kReportedCharges[] = {
    "lock_wait",  "lock_overhead", "page_io",  "fault_path",       "scheduler",
    "gate_crossing", "smp_ipi",    "memory_reference", "ipc",      "page_control_cpu",
    "session_setup", "session_edit", "session_compile", "session_logout",
};

double Get(const CounterMap& map, std::string_view name) {
  auto it = map.find(name);
  return it == map.end() ? 0.0 : it->second;
}

double Delta(const CounterMap& before, const CounterMap& after, std::string_view name) {
  return Get(after, name) - Get(before, name);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double P99(const multics::Distribution* d) {
  return d == nullptr || d->count() == 0 ? 0.0 : d->Percentile(0.99);
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

}  // namespace

// --- Spans ---------------------------------------------------------------------

LayerSpan::LayerSpan(SpanLog* log, std::string_view name) : name_(name) {
  if (log == nullptr || !HostProfiler::enabled()) {
    return;
  }
  log_ = log;
  log_->stack_.push_back(SpanLog::Frame{HostProfiler::NowNs(),
                                        HostProfiler::Snapshot().TotalSelfNs(), 0});
}

LayerSpan::~LayerSpan() {
  if (log_ == nullptr) {
    return;
  }
  const uint64_t now = HostProfiler::NowNs();
  const uint64_t profiled = HostProfiler::Snapshot().TotalSelfNs();
  const SpanLog::Frame frame = log_->stack_.back();
  log_->stack_.pop_back();
  const uint64_t elapsed = now - frame.start_ns;
  const uint64_t covered = (profiled - frame.profiled_ns) + frame.nested_self_ns;
  const uint64_t self = elapsed > covered ? elapsed - covered : 0;
  if (!log_->stack_.empty()) {
    log_->stack_.back().nested_self_ns += frame.nested_self_ns + self;
  }
  auto it = log_->stats_.find(name_);
  if (it == log_->stats_.end()) {
    it = log_->stats_.emplace(std::string(name_), SpanStats{}).first;
  }
  SpanStats& s = it->second;
  s.total_ns += elapsed;
  s.self_ns += self;
  s.elapsed_ns.push_back(static_cast<double>(elapsed));
}

// --- Simulated counters --------------------------------------------------------

void AstSampler::Sample(Kernel& kernel) {
  const multics::SegmentStore& store = kernel.store();
  const uint32_t active = store.active_count();
  ++samples;
  occupancy_sum += Ratio(active, store.ast()->capacity());
  peak_active = std::max(peak_active, active);
}

CounterMap ReadCounters(Kernel& kernel) {
  CounterMap c;
  multics::Machine& machine = kernel.machine();

  machine.locks().ForEach([&c](const multics::SimLock& lock) {
    const std::string prefix = std::string("hw.lock.") + lock.name();
    c[prefix + ".acquisitions"] += static_cast<double>(lock.acquisitions());
    c[prefix + ".contentions"] += static_cast<double>(lock.contentions());
    c[prefix + ".wait_cycles"] += static_cast<double>(lock.wait_cycles());
  });
  double segment_faults = 0;
  double page_faults = 0;
  double busy = 0;
  for (uint32_t cpu = 0; cpu < machine.cpu_count(); ++cpu) {
    segment_faults += static_cast<double>(machine.processor(cpu).segment_faults());
    page_faults += static_cast<double>(machine.processor(cpu).page_faults());
    busy += static_cast<double>(machine.busy_cycles(cpu));
  }
  c["hw.segment_faults"] = segment_faults;
  c["hw.page_faults"] = page_faults;
  c["hw.connect_ipis"] = static_cast<double>(machine.connects_posted());
  c["hw.cpu_busy_cycles"] = busy;

  const multics::PageControlMetrics& pc = kernel.page_control().metrics();
  c["mem.faults"] = static_cast<double>(pc.faults);
  c["mem.fetches_from_disk"] = static_cast<double>(pc.fetches_from_disk);
  c["mem.fetches_from_bulk"] = static_cast<double>(pc.fetches_from_bulk);
  c["mem.core_evictions"] = static_cast<double>(pc.core_evictions);
  c["mem.bulk_evictions"] = static_cast<double>(pc.bulk_evictions);
  c["mem.waits_for_frame"] = static_cast<double>(pc.waits_for_frame);
  c["mem.disk_reads"] = static_cast<double>(kernel.disk().reads());
  c["mem.disk_writes"] = static_cast<double>(kernel.disk().writes());
  c["mem.bulk_transfers"] =
      static_cast<double>(kernel.bulk_store().reads() + kernel.bulk_store().writes());

  c["core.gate_calls"] = static_cast<double>(kernel.gates().total_calls());
  for (const multics::GateInfo& gate : kernel.gates().gates()) {
    c["core.gate." + gate.name + ".calls"] = static_cast<double>(gate.calls);
  }
  c["core.monitor_checks"] = static_cast<double>(kernel.monitor().checks());
  c["core.audit_grants"] = static_cast<double>(kernel.audit().grants());
  c["core.audit_denials"] = static_cast<double>(kernel.audit().denials());

  multics::TrafficController& traffic = kernel.traffic();
  c["proc.context_switches"] = static_cast<double>(traffic.context_switches());
  c["proc.promotions"] = static_cast<double>(traffic.promotions());
  c["proc.demotions"] = static_cast<double>(traffic.demotions());
  c["proc.steals"] = static_cast<double>(traffic.steals());
  c["proc.idle_jumps"] = static_cast<double>(traffic.idle_jumps());
  c["proc.ipc_wakeups"] = static_cast<double>(machine.meter().counter("ipc/wakeups_queued"));

  for (const auto& [category, cycles] : machine.charges().Snapshot()) {
    c["charge." + category] = static_cast<double>(cycles);
  }
  return c;
}

std::string AppendSimLayers(Kernel& kernel, const CounterMap& before, const CounterMap& after,
                            const PhaseFacts& facts, MetricList* out) {
  auto add = [out](std::string name, double value, const char* unit) {
    out->push_back(Metric{std::move(name), value, unit});
  };
  auto delta = [&](std::string_view name) { return Delta(before, after, name); };
  multics::Machine& machine = kernel.machine();
  const double ops = static_cast<double>(facts.ops);

  // base
  add("base.event_queue.slab_slots", static_cast<double>(machine.events().slab_slots()), "count");

  // hw: locks, in hierarchy order.
  double acquisitions = 0;
  double contentions = 0;
  for (const multics::LockLevelSpec& spec : multics::kLockHierarchy) {
    const std::string prefix = std::string("hw.lock.") + spec.name;
    const double acq = delta(prefix + ".acquisitions");
    const double cont = delta(prefix + ".contentions");
    acquisitions += acq;
    contentions += cont;
    add(prefix + ".acquisitions", acq, "count");
    add(prefix + ".contentions", cont, "count");
    add(prefix + ".wait_mcycles", delta(prefix + ".wait_cycles") / 1e6, "Mcycles");
  }
  add("hw.lock.contention_ratio", Ratio(contentions, acquisitions), "fraction");
  add("hw.segment_faults", delta("hw.segment_faults"), "count");
  add("hw.page_faults", delta("hw.page_faults"), "count");
  add("hw.connect_ipis", delta("hw.connect_ipis"), "count");

  // mem
  const multics::PageControlMetrics& pc = kernel.page_control().metrics();
  for (const char* name : {"mem.faults", "mem.fetches_from_disk", "mem.fetches_from_bulk",
                           "mem.core_evictions", "mem.bulk_evictions", "mem.waits_for_frame"}) {
    add(name, delta(name), "count");
  }
  add("mem.fault_latency_p99_cycles",
      pc.fault_latency.count() == 0 ? 0.0 : pc.fault_latency.Percentile(0.99), "cycles");
  add("mem.disk_reads", delta("mem.disk_reads"), "count");
  add("mem.disk_writes", delta("mem.disk_writes"), "count");
  add("mem.disk_fetches_per_op", Ratio(delta("mem.fetches_from_disk"), ops), "fetches/op");

  // core
  const double gate_calls = delta("core.gate_calls");
  add("core.gate_calls", gate_calls, "count");
  add("core.gate_calls_per_op", Ratio(gate_calls, ops), "calls/op");
  double listed_calls = 0;
  for (const char* gate : kReportedGates) {
    const std::string prefix = std::string("core.gate.") + gate;
    listed_calls += delta(prefix + ".calls");
    add(prefix + ".calls", delta(prefix + ".calls"), "count");
    add(prefix + ".p99_cycles",
        P99(machine.meter().FindDistribution(std::string("gate/") + gate)), "cycles");
  }
  add("core.gate.other.calls", gate_calls - listed_calls, "count");
  add("core.monitor_checks", delta("core.monitor_checks"), "count");
  const double grants = delta("core.audit_grants");
  const double denials = delta("core.audit_denials");
  add("core.audit_grants", grants, "count");
  add("core.audit_denials", denials, "count");
  add("core.denial_ratio", Ratio(denials, grants + denials), "fraction");

  // fs
  add("fs.segments", static_cast<double>(kernel.store().segment_count()), "count");
  add("fs.active_segments_peak", facts.ast.peak_active, "count");
  add("fs.ast_occupancy_mean",
      Ratio(facts.ast.occupancy_sum, static_cast<double>(facts.ast.samples)), "fraction");

  // proc
  add("proc.slices", static_cast<double>(facts.slices), "count");
  for (const char* name : {"proc.context_switches", "proc.promotions", "proc.demotions",
                           "proc.steals", "proc.idle_jumps", "proc.ipc_wakeups"}) {
    add(name, delta(name), "count");
  }
  add("proc.processes_retained", static_cast<double>(kernel.traffic().process_count()), "count");

  // session / ops
  add("session.failed_logins", static_cast<double>(facts.failed_logins), "count");
  add("session.failed_sessions", static_cast<double>(facts.failed_sessions), "count");
  add("ops.interactive_samples", static_cast<double>(facts.interactive_samples), "count");
  add("ops.background_samples", static_cast<double>(facts.background_samples), "count");

  // Cycle account. Every charge category lands in exactly one bucket, so the
  // buckets add up to the machine's charge total. With no device transfer in
  // the phase that total must also equal the CPUs' busy cycles: every
  // simulated CPU cycle is attributed to exactly one cause. Device transfers
  // break the identity in the model itself (NOTES.md, "Cycle account").
  double total = 0;
  double reported = 0;
  for (const auto& [name, value] : after) {
    if (name.rfind("charge.", 0) == 0) {
      total += value - Get(before, name);
    }
  }
  for (const char* category : kReportedCharges) {
    const double cycles = delta(std::string("charge.") + category);
    reported += cycles;
    add(std::string("charge.") + category + "_mcycles", cycles / 1e6, "Mcycles");
  }
  const double busy = delta("hw.cpu_busy_cycles");
  add("charge.other_mcycles", (total - reported) / 1e6, "Mcycles");
  add("charge.total_mcycles", total / 1e6, "Mcycles");
  add("charge.cpu_busy_mcycles", busy / 1e6, "Mcycles");
  const double transfers =
      delta("mem.disk_reads") + delta("mem.disk_writes") + delta("mem.bulk_transfers");
  if (transfers == 0 && busy != total) {
    return "cycle account: charged cycles differ from CPU busy cycles with no device transfer";
  }
  return "";
}

void AppendHostLayers(const multics::HostProfileSnapshot& profile, const SpanLog& spans,
                      MetricList* out) {
  auto add = [out](std::string name, double value, const char* unit) {
    out->push_back(Metric{std::move(name), value, unit});
  };
  auto ms = [](uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  const auto& eq = profile.of(HostSubsystem::kEventQueue);
  add("base.event_queue.spans", static_cast<double>(eq.spans), "count");
  add("base.event_queue.self_ms", ms(eq.self_ns), "ms");
  add("hw.lock_placement.self_ms", ms(profile.of(HostSubsystem::kLockPlacement).self_ns), "ms");
  const auto& walk = profile.of(HostSubsystem::kPageTableWalk);
  add("hw.page_table_walk.spans", static_cast<double>(walk.spans), "count");
  add("hw.page_table_walk.self_ms", ms(walk.self_ns), "ms");
  add("mem.page_io.self_ms", ms(profile.of(HostSubsystem::kPageIo).self_ns), "ms");
  add("core.gate_call.self_ms", ms(profile.of(HostSubsystem::kGateCall).self_ns), "ms");
  add("proc.scheduler.self_ms", ms(profile.of(HostSubsystem::kScheduler).self_ns), "ms");
  const auto& meter = profile.of(HostSubsystem::kMeterRecord);
  add("meter.record.spans", static_cast<double>(meter.spans), "count");
  add("meter.record.self_ms", ms(meter.self_ns), "ms");

  auto span = [&spans](std::string_view name) -> const SpanStats* {
    auto it = spans.stats().find(name);
    return it == spans.stats().end() ? nullptr : &it->second;
  };
  for (const char* name :
       {"init.boot", "session.prepare", "session.run", "churn.build", "churn.run"}) {
    const SpanStats* s = span(name);
    add(std::string(name) + "_s", s == nullptr ? 0.0 : static_cast<double>(s->total_ns) / 1e9,
        "s");
    add(std::string(name) + ".self_ms", s == nullptr ? 0.0 : ms(s->self_ns), "ms");
  }
  for (const char* gate : kChurnerGates) {
    const SpanStats* s = span(std::string("gate.") + gate);
    add(std::string("core.gate.") + gate + ".host_ns_p50",
        s == nullptr ? 0.0 : Percentile(s->elapsed_ns, 0.5), "ns");
  }
}

}  // namespace perfbench
