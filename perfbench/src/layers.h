// Metric plumbing shared by every workload of the benchmark: the metric list
// a run reports, the benchmark-owned host spans, and the per-layer readout of
// a kernel's simulated counters through its public accessors.

#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/kernel.h"
#include "src/meter/host_profile.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using MetricList = std::vector<Metric>;

// --- Benchmark-owned host spans ------------------------------------------------
//
// The kernel's HostProfiler already times its own hot subsystems. These spans
// wrap every call the benchmark makes into a layer (boot, engine set-up, the
// engine run, each gate call of the ACL churner), so the rest of the host time
// is attributed too. A span's self time is its elapsed time minus the
// profiler-instrumented time inside it and minus the self time of nested
// benchmark spans; spans record only while the profiler is enabled, so
// untraced runs pay one branch per span.

struct SpanStats {
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  std::vector<double> elapsed_ns;  // Per span, for percentiles.
};

class SpanLog {
 public:
  const std::map<std::string, SpanStats, std::less<>>& stats() const { return stats_; }

 private:
  friend class LayerSpan;
  struct Frame {
    uint64_t start_ns = 0;
    uint64_t profiled_ns = 0;   // Profiler self-time total at open.
    uint64_t nested_self_ns = 0;  // Self time of benchmark spans inside.
  };
  std::vector<Frame> stack_;
  std::map<std::string, SpanStats, std::less<>> stats_;
};

class LayerSpan {
 public:
  // `log` may be null (no span). `name` must outlive the span.
  LayerSpan(SpanLog* log, std::string_view name);
  ~LayerSpan();

  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  SpanLog* log_ = nullptr;  // Null when not recording.
  std::string_view name_;
};

// --- Simulated per-layer counters ---------------------------------------------

// Additive simulated counters, keyed by metric-style name. Read once before
// and once after the measured phase; the per-layer report is their
// difference, so boot and set-up work is excluded.
using CounterMap = std::map<std::string, double, std::less<>>;
CounterMap ReadCounters(multics::Kernel& kernel);

// Simulated dispatches (engine) or churner steps between AST samples.
inline constexpr uint64_t kAstSampleEvery = 256;

// Samples AST occupancy during the measured phase (the end-of-run value says
// little: finished sessions deactivate their segments).
struct AstSampler {
  void Sample(multics::Kernel& kernel);
  uint64_t samples = 0;
  double occupancy_sum = 0.0;  // Sum of active/capacity over the samples.
  uint32_t peak_active = 0;
};

// What a workload tells the per-layer readout about its measured phase.
struct PhaseFacts {
  uint64_t ops = 0;
  uint64_t slices = 0;  // Engine dispatches (0 when the scheduler is bypassed).
  uint64_t failed_logins = 0;
  uint64_t failed_sessions = 0;
  uint64_t interactive_samples = 0;
  uint64_t background_samples = 0;
  AstSampler ast;
};

// Appends the simulated per-layer metrics (everything not marked [T] in the
// benchmark notes). Returns a non-empty error when the cycle account does not
// reconcile.
std::string AppendSimLayers(multics::Kernel& kernel, const CounterMap& before,
                            const CounterMap& after, const PhaseFacts& facts,
                            MetricList* out);

// Appends the host per-layer metrics of one traced iteration.
void AppendHostLayers(const multics::HostProfileSnapshot& profile, const SpanLog& spans,
                      MetricList* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
