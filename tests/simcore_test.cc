// Determinism oath for the sim-core speed program (PR 10).
//
// The event-queue slab, the SimLock flat busy-interval vector, the meter's
// interned counter ids, and the per-CPU SDW walk cache are all pure host-side
// restructurings: they must not move a single simulated cycle, reorder one
// dispatch, or change one exported meter byte. This test pins the complete
// fingerprint of a fixed session-engine workload — FNV-1a dispatch-trace
// hash, final sim clock, and an FNV-1a hash over the *full* meter export
// (counters, distribution summaries, attribution profile) — to the exact
// values recorded from the pre-refactor seed tree. If any hot-path rewrite
// perturbs the simulation, the constants below catch it byte-for-byte.
//
// The constants were captured from the seed at commit 383d500 (pre-refactor)
// and re-verified against the refactored tree; they are the oath, do not
// regenerate them casually. They have been re-captured twice, each time for
// a model change rather than a refactor: page control stopped writing pages
// nobody reads (delete and truncate discard their pages, and a clean page
// goes back to its disk home without a write); then logout began destroying
// the session's process through proc_destroy, and each arrival began
// scheduling the next instead of all arrivals being posted up front.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/base/event_queue.h"
#include "src/init/bootstrap.h"
#include "src/proc/traffic_controller.h"
#include "src/session/engine.h"

namespace multics {
namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void MixBytes(uint64_t* hash, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    *hash ^= p[i];
    *hash *= kFnvPrime;
  }
}

void MixU64(uint64_t* hash, uint64_t v) { MixBytes(hash, &v, sizeof(v)); }

void MixStr(uint64_t* hash, const std::string& s) { MixBytes(hash, s.data(), s.size()); }

uint64_t DispatchHash(const std::vector<DispatchRecord>& trace) {
  uint64_t hash = kFnvOffset;
  for (const DispatchRecord& r : trace) {
    MixU64(&hash, r.at);
    MixU64(&hash, r.cpu);
    MixU64(&hash, r.pid);
    MixU64(&hash, r.level);
    MixU64(&hash, r.work_class);
  }
  return hash;
}

// Canonical serialization of everything the meter exports, hashed. Uses only
// the public snapshot APIs (name-sorted by contract), so the serialization —
// and therefore the golden hash — is independent of the meter's internal
// containers, which is exactly what the refactor replaces.
uint64_t MeterExportHash(const Meter& meter) {
  uint64_t hash = kFnvOffset;
  for (const auto& [name, value] : meter.CounterSnapshot()) {
    MixStr(&hash, name);
    MixU64(&hash, value);
  }
  for (const auto& [name, dist] : meter.DistributionSnapshot()) {
    MixStr(&hash, name);
    MixStr(&hash, dist->Summary());
  }
  for (const auto& [key, entry] : meter.profile()) {
    MixU64(&hash, key.pid);
    MixU64(&hash, key.ring);
    MixStr(&hash, key.path);
    MixU64(&hash, entry.count);
    MixU64(&hash, entry.self);
    MixU64(&hash, entry.total);
  }
  return hash;
}

struct GoldenFingerprint {
  uint64_t dispatch_hash = 0;
  Cycles final_clock = 0;
  uint64_t meter_export_hash = 0;
  uint32_t completed = 0;
};

GoldenFingerprint RunGoldenWorkload(uint32_t cpus) {
  KernelParams params;
  params.machine.cpus = cpus;  // Explicit: MULTICS_CPUS must not move the oath.
  params.machine.core_frames = 16384;
  params.ast_capacity = 16384;
  Kernel kernel(params);
  BootstrapOptions options;
  options.users = DefaultUsers();
  EXPECT_TRUE(Bootstrap::Run(kernel, options).ok());

  TrafficController& traffic = kernel.traffic();
  traffic.EnableDispatchTrace(1u << 16);

  session::SessionEngineConfig config;
  config.sessions = 80;
  config.seed = 777;
  config.mean_interarrival = 4500;
  auto engine = session::SessionEngine::Create(&kernel, config);
  EXPECT_TRUE(engine.ok());
  EXPECT_EQ(engine.value()->Run(), Status::kOk);

  GoldenFingerprint fp;
  fp.dispatch_hash = DispatchHash(traffic.dispatch_trace());
  fp.final_clock = kernel.machine().clock().now();
  fp.meter_export_hash = MeterExportHash(kernel.machine().meter());
  fp.completed = engine.value()->stats().completed;
  return fp;
}

// --- The oath: pre-refactor values, byte for byte ----------------------------

TEST(SimCoreGoldenTest, UniprocessorFingerprintMatchesSeed) {
  const GoldenFingerprint fp = RunGoldenWorkload(/*cpus=*/1);
  EXPECT_EQ(fp.completed, 80u);
  EXPECT_EQ(fp.dispatch_hash, 0xefccbd57aff8e1d3ull);
  EXPECT_EQ(fp.final_clock, 2495110u);
  EXPECT_EQ(fp.meter_export_hash, 0x5430f6651c510b68ull);
}

TEST(SimCoreGoldenTest, FourCpuFingerprintMatchesSeed) {
  const GoldenFingerprint fp = RunGoldenWorkload(/*cpus=*/4);
  EXPECT_EQ(fp.completed, 80u);
  EXPECT_EQ(fp.dispatch_hash, 0xa2e59a096258e521ull);
  EXPECT_EQ(fp.final_clock, 795629u);
  EXPECT_EQ(fp.meter_export_hash, 0xd58cbc60f779e061ull);
}

// --- The memory-pressure oath ------------------------------------------------
//
// The golden workload above runs with core and AST far larger than its
// working set, so it never evicts a page or a segment. This one squeezes the
// same engine into 24 frames and 32 AST entries on the default bulk store and
// disk: pages thrash through core, bulk and disk, and segments are evicted
// from the AST and reactivated by segment faults. It pins the page-control
// and segment-control paths (page moves, the device slot store, AST victim
// selection) the way the oath above pins the scheduler and the meter.
//
// The constants were captured from the tree before pages moved by ownership
// and the segment store was indexed by uid, and re-captured with the oath
// above for each model change since; do not regenerate them casually.

struct PressureFingerprint {
  GoldenFingerprint golden;
  uint64_t ast_evictions = 0;
  PageControlMetrics paging;
};

PressureFingerprint RunPressureWorkload(uint32_t cpus) {
  KernelParams params;
  params.machine.cpus = cpus;
  params.machine.core_frames = 24;
  params.ast_capacity = 32;
  Kernel kernel(params);
  BootstrapOptions options;
  options.users = DefaultUsers();
  EXPECT_TRUE(Bootstrap::Run(kernel, options).ok());

  TrafficController& traffic = kernel.traffic();
  traffic.EnableDispatchTrace(1u << 16);

  session::SessionEngineConfig config;
  config.sessions = 120;
  config.seed = 777;
  config.mean_interarrival = 4500;
  auto engine = session::SessionEngine::Create(&kernel, config);
  EXPECT_TRUE(engine.ok());
  EXPECT_EQ(engine.value()->Run(), Status::kOk);

  PressureFingerprint fp;
  fp.golden.dispatch_hash = DispatchHash(traffic.dispatch_trace());
  fp.golden.final_clock = kernel.machine().clock().now();
  fp.golden.meter_export_hash = MeterExportHash(kernel.machine().meter());
  fp.golden.completed = engine.value()->stats().completed;
  fp.ast_evictions = kernel.store().ast_evictions();
  fp.paging = kernel.page_control().metrics();
  return fp;
}

// The oath only means something if the workload really drives every level.
void ExpectPressureCoversThePagingPaths(const PressureFingerprint& fp) {
  EXPECT_GT(fp.ast_evictions, 0u);
  EXPECT_GT(fp.paging.core_evictions, 0u);
  EXPECT_GT(fp.paging.fetches_from_bulk, 0u);
  EXPECT_GT(fp.paging.fetches_from_disk, 0u);
}

TEST(SimCorePressureTest, UniprocessorFingerprintMatchesSeed) {
  const PressureFingerprint fp = RunPressureWorkload(/*cpus=*/1);
  ExpectPressureCoversThePagingPaths(fp);
  EXPECT_EQ(fp.golden.completed, 120u);
  EXPECT_EQ(fp.golden.dispatch_hash, 0xf5dd8b00e723be2full);
  EXPECT_EQ(fp.golden.final_clock, 28103981u);
  EXPECT_EQ(fp.golden.meter_export_hash, 0x339a4d19fa1e5382ull);
}

TEST(SimCorePressureTest, FourCpuFingerprintMatchesSeed) {
  const PressureFingerprint fp = RunPressureWorkload(/*cpus=*/4);
  ExpectPressureCoversThePagingPaths(fp);
  EXPECT_EQ(fp.golden.completed, 120u);
  EXPECT_EQ(fp.golden.dispatch_hash, 0xb82b560a5c83aa41ull);
  EXPECT_EQ(fp.golden.final_clock, 17929662u);
  EXPECT_EQ(fp.golden.meter_export_hash, 0x2bc0b16ccef424f0ull);
}

// Two same-configuration runs in one process must agree with themselves too:
// the caches and slabs the refactor adds keep no state that leaks from one
// machine into the next.
TEST(SimCoreGoldenTest, RepeatRunsAreByteIdentical) {
  const GoldenFingerprint a = RunGoldenWorkload(/*cpus=*/4);
  const GoldenFingerprint b = RunGoldenWorkload(/*cpus=*/4);
  EXPECT_EQ(a.dispatch_hash, b.dispatch_hash);
  EXPECT_EQ(a.final_clock, b.final_clock);
  EXPECT_EQ(a.meter_export_hash, b.meter_export_hash);
}

}  // namespace
}  // namespace multics
