// E9 — The Mitre compartment model at the bottom layer.
//
// Paper (footnote 2 and the partitioning discussion): the formal model
// "specifies a set of access constraints that restrict information flow in a
// hierarchy of compartments to patterns consistent with the national
// security classification scheme", enforced at the bottom layer so that
// sharing mechanisms above are "common only within each compartment."
//
// We report (a) the enforcement cost — reference-monitor decision cycles
// with and without the lattice checks, wall-clock microbenchmarks of the
// decision itself — and (b) the flow matrix actually enforced end-to-end
// between subjects at every level pair.

#include <benchmark/benchmark.h>

#include "bench/common.h"
#include "bench/harness.h"
#include "src/userring/initiator.h"

namespace multics {
namespace {

void FlowMatrix() {
  BootedSystem system = BootedSystem::Make(KernelConfiguration::Kernelized6180());
  Kernel& kernel = *system.kernel;

  const std::vector<std::pair<std::string, MlsLabel>> levels = {
      {"unclass", MlsLabel{SensitivityLevel::kUnclassified, {}}},
      {"confid", MlsLabel{SensitivityLevel::kConfidential, {}}},
      {"secret", MlsLabel{SensitivityLevel::kSecret, {}}},
      {"topsec", MlsLabel{SensitivityLevel::kTopSecret, {}}},
      {"s+cat1", MlsLabel{SensitivityLevel::kSecret, CategorySet::Of({1})}},
  };

  // A trusted service installs one segment per object label in an
  // all-can-try directory.
  auto root = kernel.RootDir(*system.init);
  CHECK(root.ok());
  SegmentAttributes dir_attrs;
  dir_attrs.acl.Set(AclEntry{"*", "*", "*", kDirStatus | kDirAppend});
  dir_attrs.label = MlsLabel::SystemLow();
  CHECK(kernel.FsCreateDirectory(*system.init, root.value(), "matrix", dir_attrs).ok());
  auto matrix_dir = kernel.Initiate(*system.init, root.value(), "matrix");
  CHECK(matrix_dir.ok());
  for (const auto& [name, label] : levels) {
    SegmentAttributes attrs;
    attrs.acl.Set(AclEntry{"*", "*", "*", kModeRead | kModeWrite});
    attrs.label = label;
    CHECK(kernel.FsCreateSegment(*system.init, matrix_dir->segno, "obj_" + name, attrs).ok());
  }

  std::printf("\nEnforced flow matrix (subject row, object column): r=read w=write -=none\n");
  std::vector<std::string> header = {"subject \\ object"};
  for (const auto& [name, label] : levels) {
    header.push_back(name);
  }
  Table table(header);
  for (const auto& [subject_name, clearance] : levels) {
    Process* subject = system.AddUser("U_" + subject_name, "Proj", clearance);
    auto subject_root = kernel.RootDir(*subject);
    CHECK(subject_root.ok());
    auto dir = kernel.Initiate(*subject, subject_root.value(), "matrix");
    CHECK(dir.ok());
    std::vector<std::string> row = {subject_name};
    for (const auto& [object_name, object_label] : levels) {
      auto init = kernel.Initiate(*subject, dir->segno, "obj_" + object_name);
      std::string cell = "-";
      if (init.ok()) {
        cell.clear();
        cell += (init->granted_modes & kModeRead) ? "r" : "-";
        cell += (init->granted_modes & kModeWrite) ? "w" : "-";
      }
      row.push_back(cell);
    }
    table.AddRow(std::move(row));
  }
  table.Print();
}

void EnforcementCost(const bench::BenchOptions& options) {
  const int probes = options.smoke ? 10 : 50;
  std::printf("\nReference-monitor outcomes on a mixed workload (%d library initiations\n"
              "plus %d probes of a top-secret segment whose ACL would grant everything):\n",
              probes, probes);
  Table table({"configuration", "monitor checks", "grants", "denials",
               "ts probe result"});
  for (bool mls : {false, true}) {
    KernelConfiguration config = KernelConfiguration::Kernelized6180();
    config.mls_enforcement = mls;
    BootedSystem system = BootedSystem::Make(config);
    Kernel& kernel = *system.kernel;

    // A trusted service plants a top-secret segment with a wide-open ACL.
    auto root = kernel.RootDir(*system.init);
    CHECK(root.ok());
    SegmentAttributes ts_attrs;
    ts_attrs.acl.Set(AclEntry{"*", "*", "*", kModeRead | kModeWrite});
    ts_attrs.label = MlsLabel{SensitivityLevel::kTopSecret, CategorySet::Of({2})};
    CHECK(kernel.FsCreateSegment(*system.init, root.value(), "ts_probe", ts_attrs).ok());

    Process* user = system.AddUser("Jones", "Faculty",
                                   MlsLabel{SensitivityLevel::kSecret, CategorySet::Of({1})});
    UserInitiator initiator(&kernel, user);
    std::string probe_outcome;
    for (int i = 0; i < probes; ++i) {
      (void)initiator.InitiatePath(">system_library>math_");
      auto user_root = kernel.RootDir(*user);
      auto probe = kernel.Initiate(*user, user_root.value(), "ts_probe");
      probe_outcome = probe.ok() ? "rw granted (ACL alone!)"
                                 : std::string(StatusName(probe.status()));
      if (probe.ok()) {
        (void)kernel.Terminate(*user, probe->segno);
      }
    }
    table.AddRow({std::string("mls ") + (mls ? "on" : "off"), Fmt(kernel.monitor().checks()),
                  Fmt(kernel.audit().grants()), Fmt(kernel.audit().denials()),
                  probe_outcome});
    const std::string prefix = mls ? "mls_on_" : "mls_off_";
    bench::RegisterMetric(prefix + "monitor_checks", kernel.monitor().checks(), "checks");
    bench::RegisterMetric(prefix + "denials", kernel.audit().denials(), "denials");
    bench::RegisterRunStats(kernel.machine());  // Last configuration (mls on) wins.
  }
  table.Print();
  std::printf("With the lattice off, the wide ACL alone hands a secret-cleared subject a\n"
              "top-secret segment. The bottom-layer compartment checks are what stop it.\n");
}

// Microbenchmarks: what one access decision costs on the host.
void BM_Dominates(benchmark::State& state) {
  MlsLabel a{SensitivityLevel::kSecret, CategorySet::Of({1, 3, 5})};
  MlsLabel b{SensitivityLevel::kConfidential, CategorySet::Of({1, 3})};
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Dominates(b));
  }
}
BENCHMARK(BM_Dominates);

void BM_SegmentModesAclOnly(benchmark::State& state) {
  SimClock clock;
  AuditLog audit(&clock);
  ReferenceMonitor monitor(&audit, /*mls=*/false);
  Branch branch;
  branch.acl.Set(AclEntry{"*", "Faculty", "*", kModeRead});
  branch.acl.Set(AclEntry{"Jones", "Faculty", "*", kModeRead | kModeWrite});
  Principal jones{"Jones", "Faculty", "a"};
  MlsLabel clearance{SensitivityLevel::kSecret, {}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.SegmentModes(branch, jones, clearance));
  }
}
BENCHMARK(BM_SegmentModesAclOnly);

void BM_SegmentModesWithMls(benchmark::State& state) {
  SimClock clock;
  AuditLog audit(&clock);
  ReferenceMonitor monitor(&audit, /*mls=*/true);
  Branch branch;
  branch.acl.Set(AclEntry{"*", "Faculty", "*", kModeRead});
  branch.acl.Set(AclEntry{"Jones", "Faculty", "*", kModeRead | kModeWrite});
  branch.label = MlsLabel{SensitivityLevel::kConfidential, CategorySet::Of({1})};
  Principal jones{"Jones", "Faculty", "a"};
  MlsLabel clearance{SensitivityLevel::kSecret, CategorySet::Of({1})};
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.SegmentModes(branch, jones, clearance));
  }
}
BENCHMARK(BM_SegmentModesWithMls);

void RunBench(const bench::BenchOptions& options) {
  PrintHeader("E9: the Mitre compartment model at the kernel's bottom layer",
              "information flows only upward in the lattice; ACLs refine within it");
  FlowMatrix();
  EnforcementCost(options);
  if (options.wallclock) {
    int argc = 1;
    char arg0[] = "bench_mls";
    char* argv[] = {arg0, nullptr};
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
}

}  // namespace
}  // namespace multics

MX_BENCH(bench_mls)
