// The benchmark's workloads. Each call runs one iteration in this process:
// boot a fresh kernel, set the workload up, run its measured phase, read the
// results, and tear the kernel down. The caller repeats iterations for the
// run's duration and reports medians.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/src/layers.h"

namespace perfbench {

struct Iteration {
  double setup_s = 0.0;  // Iteration start to the first op.
  double run_s = 0.0;    // Host seconds of the measured phase.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;  // Non-empty when a correctness check failed.
  // Deterministic for a fixed seed: the sim_* end-to-end metrics and the
  // simulated per-layer counters. Iterations of one sub-seed must agree exactly.
  MetricList sim;
  // Host per-layer metrics; filled by traced iterations only.
  MetricList host_layers;
};

// The engine workloads (timesharing, paging_pressure) share one runner.
struct EngineSpec {
  uint32_t cpus = 4;
  uint32_t core_frames = 0;   // 0: the kernel default.
  uint32_t ast_capacity = 0;  // 0: the kernel default.
  uint32_t sessions = 0;
  uint32_t hot_segments = 32;
  uint64_t mean_interarrival = 0;
};

EngineSpec TimesharingSpec();
EngineSpec PagingPressureSpec();

Iteration RunEngine(const EngineSpec& spec, uint64_t seed, SpanLog* spans);

// The acl_churn workload: direct gate calls from user processes on one CPU.
struct AclChurnSpec {
  uint32_t processes = 8;
  uint32_t segments = 64;
  uint32_t pages_per_segment = 2;
  uint32_t ops = 0;
  double write_fraction = 0.0;
};

AclChurnSpec AclChurnDefaultSpec();

Iteration RunAclChurn(const AclChurnSpec& spec, uint64_t seed, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
