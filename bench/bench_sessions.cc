// Sessions — the ten-thousand-user closed-loop workload on the work-class
// multilevel-feedback scheduler.
//
// Paper: the security kernel is supposed to carry a full time-sharing load,
// not just pass its certification suite. This bench drives the session
// engine — seeded arrivals, exponential think times, Zipf-popular shared
// segments, login through the de-privileged answering service — at 100, 1k,
// and 10k sessions and reports sustained throughput and the session-latency
// tail. A second table compares the multilevel-feedback scheduler against
// the old strict-FIFO queue at 4 CPUs: interactive sessions should see a
// visibly better p99 when absentee compiles are demoted and interactive
// wakeups promoted, with the weighted work-class shares keeping the compile
// stream from starving.
//
// Determinism: dispatch is byte-identical across runs at a fixed seed and
// CPU count. The bench proves it the blunt way — it runs the comparison
// configuration twice and CHECKs that the FNV-1a hash of the dispatch trace
// is identical.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/harness.h"
#include "src/init/bootstrap.h"
#include "src/session/engine.h"

namespace multics {
namespace {

// Enough for every dispatch of the comparison run; the 10k run truncates,
// which only shortens the hashed prefix, never changes it.
constexpr size_t kTraceLimit = 1u << 19;

uint64_t Fnv1a(const std::vector<DispatchRecord>& trace) {
  uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (v >> (byte * 8)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (const DispatchRecord& r : trace) {
    mix(r.at);
    mix(r.cpu);
    mix(r.pid);
    mix(r.level);
    mix(r.work_class);
  }
  return hash;
}

struct SessionRunResult {
  session::SessionEngineStats stats;
  uint64_t trace_hash = 0;
  uint64_t dispatches = 0;
  uint64_t promotions = 0;
  uint64_t demotions = 0;
  uint64_t steals = 0;
  uint64_t ast_contentions = 0;
  uint64_t dir_contentions = 0;
  uint64_t kernel_contentions = 0;
  Cycles ast_wait = 0;
  Cycles dir_wait = 0;
  double throughput = 0.0;  // Sessions retired per million cycles of makespan.
};

SessionRunResult RunSessions(uint32_t sessions, uint32_t cpus, SchedulerPolicy policy,
                             uint64_t seed, bool register_run_stats = false) {
  KernelParams params;
  params.machine.cpus = cpus;
  // Sized for the load: the default 256-frame / 128-entry configuration
  // thrashes the AST once a few hundred sessions hold segments at once, and
  // the bench would then measure segment-reactivation I/O, not scheduling.
  params.machine.core_frames = 16384;
  params.ast_capacity = 16384;
  Kernel kernel(params);
  BootstrapOptions options;
  options.users = DefaultUsers();
  auto report = Bootstrap::Run(kernel, options);
  CHECK(report.ok()) << StatusName(report.status());

  TrafficController& traffic = kernel.traffic();
  traffic.SetSchedulerPolicy(policy);
  traffic.EnableDispatchTrace(kTraceLimit);

  session::SessionEngineConfig config;
  config.sessions = sessions;
  config.seed = seed;
  // Mean per-session demand is ~15k cycles (80% interactive edits, 20%
  // absentee 24x3000-cycle compiles). One arrival per 4500 cycles offers
  // ~222 sessions/Mcycle against a measured capacity of ~26.5 (perfbench/
  // NOTES.md, "Load sizing"): roughly 8x overload, so the backlog grows for
  // the whole run and the latency columns include the wait behind it. The
  // value stays so the simulated figures in the committed BENCH_PR*.json
  // snapshots remain comparable.
  config.mean_interarrival = 4500;
  auto engine = session::SessionEngine::Create(&kernel, config);
  CHECK(engine.ok()) << StatusName(engine.status());
  CHECK(engine.value()->Run() == Status::kOk);

  SessionRunResult result;
  result.stats = engine.value()->stats();
  CHECK(result.stats.completed == sessions)
      << result.stats.failed_sessions << " sessions failed, " << result.stats.failed_logins
      << " logins refused";
  result.trace_hash = Fnv1a(traffic.dispatch_trace());
  result.dispatches = result.stats.slices;
  result.promotions = traffic.promotions();
  result.demotions = traffic.demotions();
  result.steals = traffic.steals();
  Machine& machine = kernel.machine();
  machine.locks().ForEach([&](const SimLock& lock) {
    const std::string_view name(lock.name());
    if (name == "ast") {
      result.ast_contentions += lock.contentions();
      result.ast_wait += lock.wait_cycles();
    } else if (name == "dir") {
      result.dir_contentions += lock.contentions();
      result.dir_wait += lock.wait_cycles();
    } else if (name == "kernel") {
      result.kernel_contentions += lock.contentions();
    }
  });
  result.throughput = result.stats.makespan == 0
                          ? 0.0
                          : static_cast<double>(sessions) * 1e6 /
                                static_cast<double>(result.stats.makespan);
  if (register_run_stats) {
    bench::RegisterRunStats(machine);
  }
  return result;
}

const char* PolicyName(SchedulerPolicy policy) {
  return policy == SchedulerPolicy::kFifo ? "fifo" : "mlf";
}

void RunBench(const bench::BenchOptions& options) {
  PrintHeader(
      "Sessions: 100/1k/10k-user closed-loop load on the work-class MLF scheduler",
      "the kernel sustains a time-sharing load; feedback scheduling holds the "
      "interactive tail while absentee compiles absorb the backlog");

  const uint32_t cpus = 4;
  // The policy comparison needs enough sessions in flight for queueing to
  // dominate — below ~100 the p99 gap is noise — so even smoke mode compares
  // at 100 (still well under a second of host time).
  const std::vector<uint32_t> scales =
      options.smoke ? std::vector<uint32_t>{16, 100} : std::vector<uint32_t>{100, 1000, 10000};
  const uint32_t compare_scale = options.smoke ? 100u : 1000u;
  const uint64_t seed = 42;

  // --- Scaling: throughput and the latency tail at each population. ---------
  Table scaling({"sessions", "cpus", "sessions/Mcycle", "p50 latency", "p95 latency",
                 "p99 latency", "makespan", "promotions", "demotions", "steals",
                 "ast cont", "dir cont"});
  for (uint32_t sessions : scales) {
    const bool primary = sessions == compare_scale;
    SessionRunResult r = RunSessions(sessions, cpus, SchedulerPolicy::kMultilevelFeedback,
                                     seed, /*register_run_stats=*/primary);
    const Distribution& lat = r.stats.interactive_latency;
    scaling.AddRow({Fmt(static_cast<uint64_t>(sessions)), Fmt(static_cast<uint64_t>(cpus)),
                    Fmt(r.throughput), Fmt(lat.Percentile(0.50)), Fmt(lat.Percentile(0.95)),
                    Fmt(lat.Percentile(0.99)), Fmt(static_cast<uint64_t>(r.stats.makespan)),
                    Fmt(r.promotions), Fmt(r.demotions), Fmt(r.steals),
                    Fmt(r.ast_contentions), Fmt(r.dir_contentions)});
    const std::string prefix = "sessions_" + std::to_string(sessions) + "_";
    bench::RegisterMetric(prefix + "throughput", r.throughput, "sessions/Mcycle");
    bench::RegisterMetric(prefix + "p50_latency", lat.Percentile(0.50), "cycles");
    bench::RegisterMetric(prefix + "p95_latency", lat.Percentile(0.95), "cycles");
    bench::RegisterMetric(prefix + "p99_latency", lat.Percentile(0.99), "cycles");
    bench::RegisterMetric(prefix + "makespan", static_cast<double>(r.stats.makespan), "cycles");
    bench::RegisterMetric(prefix + "promotions", static_cast<double>(r.promotions), "count");
    bench::RegisterMetric(prefix + "demotions", static_cast<double>(r.demotions), "count");
    bench::RegisterMetric(prefix + "steals", static_cast<double>(r.steals), "count");
    bench::RegisterMetric(prefix + "ast_contentions", static_cast<double>(r.ast_contentions),
                          "count");
    bench::RegisterMetric(prefix + "dir_contentions", static_cast<double>(r.dir_contentions),
                          "count");
  }
  scaling.Print();

  // --- Policy comparison: MLF vs strict FIFO at the same seed and CPUs. ------
  Table versus({"policy", "sessions", "interactive p50", "interactive p95", "interactive p99",
                "batch p99", "makespan", "trace hash"});
  double p99_by_policy[2] = {0.0, 0.0};
  for (SchedulerPolicy policy : {SchedulerPolicy::kFifo, SchedulerPolicy::kMultilevelFeedback}) {
    SessionRunResult r = RunSessions(compare_scale, cpus, policy, seed);
    const Distribution& lat = r.stats.interactive_latency;
    const int idx = policy == SchedulerPolicy::kMultilevelFeedback ? 1 : 0;
    p99_by_policy[idx] = lat.Percentile(0.99);
    char hash_hex[32];
    std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                  static_cast<unsigned long long>(r.trace_hash));
    versus.AddRow({PolicyName(policy), Fmt(static_cast<uint64_t>(compare_scale)),
                   Fmt(lat.Percentile(0.50)), Fmt(lat.Percentile(0.95)),
                   Fmt(lat.Percentile(0.99)), Fmt(r.stats.batch_latency.Percentile(0.99)),
                   Fmt(static_cast<uint64_t>(r.stats.makespan)), hash_hex});
    const std::string prefix = std::string("sessions_") + PolicyName(policy) + "_";
    bench::RegisterMetric(prefix + "interactive_p99", lat.Percentile(0.99), "cycles");
    bench::RegisterMetric(prefix + "interactive_p50", lat.Percentile(0.50), "cycles");
    bench::RegisterMetric(prefix + "makespan", static_cast<double>(r.stats.makespan), "cycles");

    if (policy == SchedulerPolicy::kMultilevelFeedback) {
      // The determinism claim, proven bluntly: the same seed and CPU count
      // must reproduce the dispatch sequence byte for byte.
      SessionRunResult again = RunSessions(compare_scale, cpus, policy, seed);
      CHECK(again.trace_hash == r.trace_hash)
          << "dispatch trace diverged across identical runs";
      CHECK(again.stats.makespan == r.stats.makespan);
      // The hash is 64-bit; fold to 32 so the metric survives the double
      // JSON representation exactly.
      bench::RegisterMetric("sessions_trace_hash32",
                            static_cast<double>((r.trace_hash ^ (r.trace_hash >> 32)) &
                                                0xffffffffull),
                            "hash");
    }
  }
  versus.Print();
  CHECK(p99_by_policy[1] < p99_by_policy[0])
      << "MLF interactive p99 " << p99_by_policy[1] << " did not beat FIFO "
      << p99_by_policy[0];
  bench::RegisterMetric("sessions_p99_improvement",
                        p99_by_policy[1] > 0 ? p99_by_policy[0] / p99_by_policy[1] : 0.0, "x");

  std::printf(
      "\nUnder FIFO every interactive wakeup queues behind whatever compile\n"
      "bursts arrived first, so the interactive tail tracks the absentee\n"
      "backlog. The feedback scheduler demotes the compile hogs level by\n"
      "level, promotes each terminal wakeup back to level 0, and serves the\n"
      "interactive work class four shares to the absentee one — the p99 gap\n"
      "above is that machinery, measured. The trace hashes match across\n"
      "repeated runs: dispatch is a pure function of (seed, cpus).\n");
}

}  // namespace
}  // namespace multics

MX_BENCH(bench_sessions)
