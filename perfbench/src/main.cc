// perfbench — the repository benchmark. One process runs one workload:
//
//   perfbench --workload <timesharing|paging_pressure|acl_churn> --seed <n>
//             --seconds <s> --trace <0|1>
//   perfbench --workload <timesharing|paging_pressure> --seed <n> --sweep
//
// A run repeats whole iterations (boot, set-up, measured phase, teardown) of
// one workload until its time is used, then prints every metric as
// "name value unit" and, as its last line, one JSON object. The seed expands
// into kSubSeeds sub-seeds that the iterations cycle through. With --trace 0
// the profiler stays off and the metrics are the end-to-end ones: host time
// over the untraced iterations, simulated values averaged over the
// sub-seeds. With --trace 1 untraced and profiled iterations alternate, and
// the metrics are the per-layer ones plus the tracing overhead. --sweep
// prints the load-sizing table of an engine workload instead. See NOTES.md.
//
// Correctness: every iteration must pass its workload's checks, and every
// simulated metric must repeat exactly whenever a sub-seed runs again.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

using multics::HostProfiler;

// A run's seed expands into this many sub-seeds; iteration i runs sub-seed
// i mod kSubSeeds. Averaging the simulated metrics over them damps the
// seed-to-seed variation of the latency tails.
constexpr size_t kSubSeeds = 4;

uint64_t SubSeed(uint64_t seed, size_t k) { return seed * kSubSeeds + k; }

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool sweep = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <timesharing|paging_pressure|"
               "acl_churn> --seed <n> --seconds <s> --trace <0|1> [--sweep]\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + arg).c_str());
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--sweep") {
      o.sweep = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload != "timesharing" && o.workload != "paging_pressure" &&
      o.workload != "acl_churn") {
    Usage("unknown or missing --workload");
  }
  if (!(o.seconds > 0)) {
    Usage("--seconds must be positive");
  }
  return o;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

bool SameSim(const MetricList& a, const MetricList& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].value != b[i].value) {
      return false;
    }
  }
  return true;
}

// Element-wise mean of metric lists with identical names.
MetricList Mean(const std::vector<MetricList>& lists) {
  MetricList mean = lists.front();
  for (size_t i = 0; i < mean.size(); ++i) {
    double sum = 0.0;
    for (const MetricList& list : lists) {
      sum += list[i].value;
    }
    mean[i].value = sum / static_cast<double>(lists.size());
  }
  return mean;
}

// Ops per host second over the measured phases of `runs`: total work over
// total time, so each iteration weighs by its duration.
double OpsPerSecond(const std::vector<Iteration>& runs) {
  double ops = 0.0;
  double seconds = 0.0;
  for (const Iteration& it : runs) {
    ops += static_cast<double>(it.attempted);
    seconds += it.run_s;
  }
  return ops / seconds;
}

bool IsEndToEndSim(const std::string& name) { return name.rfind("sim_", 0) == 0; }

// Load sizing: the engine workload's throughput and latency at a range of
// offered loads around the chosen one. Throughput at deep overload is the
// machine's capacity for the workload.
int Sweep(const Options& o) {
  const EngineSpec base = o.workload == "timesharing" ? TimesharingSpec() : PagingPressureSpec();
  std::printf("%-14s %-16s %-16s %-14s %-14s %-14s\n", "interarrival", "offered/Mcycle",
              "sessions/Mcycle", "inter_p50", "inter_p99", "absentee_p99");
  for (double scale : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.25, 1.5, 2.0}) {
    EngineSpec spec = base;
    spec.mean_interarrival = static_cast<uint64_t>(static_cast<double>(base.mean_interarrival) *
                                                   scale);
    const Iteration it = RunEngine(spec, o.seed, nullptr);
    if (!it.error.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", it.error.c_str());
      return 1;
    }
    std::printf("%-14" PRIu64 " %-16.3f %-16.3f %-14.0f %-14.0f %-14.0f\n",
                spec.mean_interarrival, 1e6 / static_cast<double>(spec.mean_interarrival),
                it.sim[0].value, it.sim[1].value, it.sim[2].value, it.sim[3].value);
    std::fflush(stdout);
  }
  return 0;
}

void PrintMetric(const Metric& m) {
  std::printf("%-44s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed, const MetricList& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(metrics[i].value) ? metrics[i].value
                                                                             : 0.0);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Run(const Options& o) {
  std::function<Iteration(uint64_t, SpanLog*)> iterate;
  if (o.workload == "acl_churn") {
    const AclChurnSpec spec = AclChurnDefaultSpec();
    iterate = [spec](uint64_t seed, SpanLog* spans) { return RunAclChurn(spec, seed, spans); };
  } else {
    const EngineSpec spec = o.workload == "timesharing" ? TimesharingSpec() : PagingPressureSpec();
    iterate = [spec](uint64_t seed, SpanLog* spans) { return RunEngine(spec, seed, spans); };
  }

  // Untraced and (with --trace 1) profiled iterations alternate; at least
  // kSubSeeds of each kind, then as many as fit in the run's seconds.
  const uint64_t begin_ns = HostProfiler::NowNs();
  std::vector<Iteration> untraced;
  std::vector<Iteration> traced;
  std::vector<MetricList> reference_sim;  // Indexed by sub-seed.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;
  double longest_s = 0.0;
  for (size_t index = 0;; ++index) {
    const bool profile = o.trace && index % 2 == 1;
    const size_t k = index % kSubSeeds;
    SpanLog spans;
    const uint64_t iter_start = HostProfiler::NowNs();
    if (profile) {
      HostProfiler::SetEnabled(true);
    }
    Iteration it = iterate(SubSeed(o.seed, k), profile ? &spans : nullptr);
    if (profile) {
      const multics::HostProfileSnapshot snapshot = HostProfiler::Snapshot();
      HostProfiler::SetEnabled(false);
      AppendHostLayers(snapshot, spans, &it.host_layers);
    }
    longest_s = std::max(longest_s,
                         static_cast<double>(HostProfiler::NowNs() - iter_start) / 1e9);
    if (!it.error.empty()) {
      error = it.error;
    } else if (index < kSubSeeds) {
      reference_sim.push_back(it.sim);
    } else if (!SameSim(reference_sim[k], it.sim)) {
      error = "simulated metrics differ between iterations of one sub-seed";
    }
    if (!profile) {
      attempted += it.attempted;
      failed += it.failed;
    }
    (profile ? traced : untraced).push_back(std::move(it));
    if (!error.empty()) {
      break;
    }
    const double elapsed = static_cast<double>(HostProfiler::NowNs() - begin_ns) / 1e9;
    const bool enough = untraced.size() >= kSubSeeds &&
                        (!o.trace || traced.size() >= kSubSeeds);
    if (enough && elapsed + longest_s > o.seconds) {
      break;
    }
  }

  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: correctness check failed: %s\n", error.c_str());
    PrintJson(false, std::max<uint64_t>(attempted, 1), failed, {});
    return 1;
  }

  const MetricList sim = Mean(reference_sim);
  // The first iteration also pays for growing this process's heap to the
  // workload's size, which later iterations reuse; it is warm-up for host
  // time (its simulated results still count).
  const std::vector<Iteration> warm(untraced.begin() + 1, untraced.end());
  MetricList metrics;
  if (!o.trace) {
    std::vector<double> setup;
    for (const Iteration& it : untraced) {
      setup.push_back(it.setup_s);
    }
    metrics.push_back({"host_ops_per_s", OpsPerSecond(warm), "ops/s"});
    metrics.push_back({"setup_s", Median(setup), "s"});
    metrics.push_back(
        {"peak_rss_mb", static_cast<double>(HostProfiler::PeakRssKb()) / 1024.0, "MB"});
    for (const Metric& m : sim) {
      if (IsEndToEndSim(m.name)) {
        metrics.push_back(m);
      }
    }
    metrics.push_back({"ops_ok_ratio",
                       1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
                       "fraction"});
  } else {
    for (const Metric& m : sim) {
      if (!IsEndToEndSim(m.name)) {
        metrics.push_back(m);
      }
    }
    // Host layers: the median of each metric over the profiled iterations.
    const MetricList& first = traced.front().host_layers;
    for (size_t i = 0; i < first.size(); ++i) {
      std::vector<double> v;
      for (const Iteration& it : traced) {
        v.push_back(it.host_layers[i].value);
      }
      metrics.push_back({first[i].name, Median(v), first[i].unit});
    }
    metrics.push_back(
        {"trace.overhead_ratio", OpsPerSecond(warm) / OpsPerSecond(traced), "ratio"});
  }

  std::printf("workload %s seed %" PRIu64 ": %zu untraced and %zu profiled iterations over "
              "%zu sub-seeds, %" PRIu64 " ops attempted, %" PRIu64 " failed\n",
              o.workload.c_str(), o.seed, untraced.size(), traced.size(), kSubSeeds, attempted,
              failed);
  std::printf("host ops/s per untraced iteration:");
  for (const Iteration& it : untraced) {
    std::printf(" %.0f", static_cast<double>(it.attempted) / it.run_s);
  }
  std::printf("\n");
  for (const Metric& m : sim) {
    if (m.name == "ops.interactive_samples" || m.name == "ops.background_samples") {
      std::printf("latency samples per sub-seed behind the sim_* percentiles, %s: %.0f\n",
                  m.name.c_str(), m.value);
    }
  }
  for (const Metric& m : metrics) {
    PrintMetric(m);
  }
  PrintJson(true, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::Parse(argc, argv);
  if (options.sweep) {
    if (options.workload == "acl_churn") {
      perfbench::Usage("--sweep applies to the engine workloads");
    }
    return perfbench::Sweep(options);
  }
  return perfbench::Run(options);
}
