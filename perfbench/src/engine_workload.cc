// The two session-engine workloads. Both drive the kernel only through its
// public entry points: Kernel construction, Bootstrap::Run, and
// SessionEngine::Create/Run. The sizing behind each spec is in NOTES.md.

#include <memory>

#include "perfbench/src/workloads.h"
#include "src/init/bootstrap.h"
#include "src/session/engine.h"

namespace perfbench {

using multics::HostProfiler;

EngineSpec TimesharingSpec() {
  EngineSpec spec;
  spec.cpus = 4;
  // Sized so the working set fits: no evictions, no disk fetches.
  spec.core_frames = 16384;
  spec.ast_capacity = 16384;
  spec.sessions = 10000;
  spec.hot_segments = 32;
  // About 55% of the measured capacity (NOTES.md, "Load sizing").
  spec.mean_interarrival = 67500;
  return spec;
}

EngineSpec PagingPressureSpec() {
  EngineSpec spec;
  spec.cpus = 4;
  // Kernel defaults: 256 frames and 128 AST entries, against 256 hot
  // library segments. Offered far past saturation, so the machine thrashes
  // and throughput is the paging-bound capacity (NOTES.md, "Load sizing").
  spec.sessions = 4000;
  spec.hot_segments = 256;
  spec.mean_interarrival = 15000;
  return spec;
}

Iteration RunEngine(const EngineSpec& spec, uint64_t seed, SpanLog* spans) {
  Iteration it;
  const uint64_t start_ns = HostProfiler::NowNs();

  multics::KernelParams params;
  params.machine.cpus = spec.cpus;
  if (spec.core_frames != 0) {
    params.machine.core_frames = spec.core_frames;
  }
  if (spec.ast_capacity != 0) {
    params.ast_capacity = spec.ast_capacity;
  }
  std::unique_ptr<multics::Kernel> kernel;
  {
    LayerSpan span(spans, "init.boot");
    kernel = std::make_unique<multics::Kernel>(params);
    multics::BootstrapOptions options;
    options.users = multics::DefaultUsers();
    auto report = multics::Bootstrap::Run(*kernel, options);
    if (!report.ok()) {
      it.error = "bootstrap failed: " + std::string(multics::StatusName(report.status()));
      return it;
    }
  }

  multics::session::SessionEngineConfig config;
  config.sessions = spec.sessions;
  config.hot_segments = spec.hot_segments;
  config.mean_interarrival = spec.mean_interarrival;
  config.seed = seed;
  std::unique_ptr<multics::session::SessionEngine> engine;
  {
    LayerSpan span(spans, "session.prepare");
    auto created = multics::session::SessionEngine::Create(kernel.get(), config);
    if (!created.ok()) {
      it.error = "engine set-up failed: " + std::string(multics::StatusName(created.status()));
      return it;
    }
    engine = std::move(created.value());
  }

  PhaseFacts facts;
  multics::Kernel* k = kernel.get();
  engine->SetTickObserver([&facts, k](uint64_t) { facts.ast.Sample(*k); }, kAstSampleEvery);

  const CounterMap before = ReadCounters(*kernel);
  const uint64_t run_start_ns = HostProfiler::NowNs();
  it.setup_s = static_cast<double>(run_start_ns - start_ns) / 1e9;
  multics::Status status;
  {
    LayerSpan span(spans, "session.run");
    status = engine->Run();
  }
  it.run_s = static_cast<double>(HostProfiler::NowNs() - run_start_ns) / 1e9;
  const CounterMap after = ReadCounters(*kernel);

  const multics::session::SessionEngineStats& stats = engine->stats();
  it.attempted = spec.sessions;
  it.failed = stats.failed_sessions + stats.failed_logins;
  if (status != multics::Status::kOk) {
    it.error = "engine run stopped: " + std::string(multics::StatusName(status));
  } else if (stats.completed + stats.failed_sessions + stats.failed_logins != spec.sessions) {
    it.error = "session count mismatch: completed + failed != sessions";
  } else if (!kernel->machine().lock_trace().violations().empty()) {
    it.error = "lock-order violation observed";
  }

  const multics::Distribution& interactive = stats.interactive_latency;
  const multics::Distribution& batch = stats.batch_latency;
  auto pct = [](const multics::Distribution& d, double q) {
    return d.count() == 0 ? 0.0 : d.Percentile(q);
  };
  it.sim.push_back({"sim_ops_per_mcycle",
                    stats.makespan == 0 ? 0.0
                                        : static_cast<double>(stats.completed) * 1e6 /
                                              static_cast<double>(stats.makespan),
                    "ops/Mcycle"});
  it.sim.push_back({"sim_interactive_p50_cycles", pct(interactive, 0.50), "cycles"});
  it.sim.push_back({"sim_interactive_p99_cycles", pct(interactive, 0.99), "cycles"});
  it.sim.push_back({"sim_background_p99_cycles", pct(batch, 0.99), "cycles"});

  facts.ops = spec.sessions;
  facts.slices = stats.slices;
  facts.failed_logins = stats.failed_logins;
  facts.failed_sessions = stats.failed_sessions;
  facts.interactive_samples = interactive.count();
  facts.background_samples = batch.count();
  const std::string account = AppendSimLayers(*kernel, before, after, facts, &it.sim);
  if (it.error.empty()) {
    it.error = account;
  }
  return it;
}

}  // namespace perfbench
