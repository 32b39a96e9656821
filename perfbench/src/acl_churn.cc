// acl_churn: a benchmark-owned churner that calls the kernel gates directly
// from user processes on one simulated CPU, bypassing the scheduler and the
// session engine. It mixes two op types on Zipf-popular shared segments:
//
//   * access ops: initiate_seg, bursts of word references, terminate_seg. An
//     access op is interleaved with other processes' steps, so an ACL write
//     can land between its bursts;
//   * ACL writes by the owner: fs_set_acl or fs_remove_acl_entry. Each write
//     disconnects every SDW of the segment, so the next reference takes a
//     segment fault and the reference monitor re-derives access.
//
// The churner keeps its own shadow table of the ACLs and checks every outcome
// against it: an initiate or a reference is granted exactly when the shadow
// grants read, every granted read returns the word the owner stored, and the
// kernel's audit-denial count equals the denials the shadow predicts.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/base/random.h"
#include "src/init/bootstrap.h"

namespace perfbench {

using multics::AclEntry;
using multics::HostProfiler;
using multics::Kernel;
using multics::Process;
using multics::SegNo;
using multics::Status;
using multics::Word;
using multics::WordOffset;

namespace {

// Words per page the owner stores at set-up; references read only these.
constexpr uint32_t kMarkedWordsPerPage = 16;
constexpr uint32_t kMarkStride = multics::kPageWords / kMarkedWordsPerPage;
constexpr uint32_t kBurstsPerAccess = 3;
constexpr uint32_t kReadsPerBurst = 4;
constexpr double kZipfS = 1.1;
const char* const kProject = "Churn";

Word Marker(uint32_t segment, WordOffset offset) {
  return static_cast<Word>(segment) * 65536 + offset + 1;
}

std::string SegmentName(uint32_t segment) { return "seg_" + std::to_string(segment); }
std::string UserName(uint32_t user) { return "U" + std::to_string(user); }

// The churner's own model of every segment's ACL: an optional per-user entry
// over the "*.Churn.*" read default.
class ShadowAcl {
 public:
  ShadowAcl(uint32_t segments, uint32_t users)
      : entry_(static_cast<size_t>(segments) * users, kNoEntry), users_(users) {}

  bool HasEntry(uint32_t seg, uint32_t user) const { return At(seg, user) != kNoEntry; }
  bool Readable(uint32_t seg, uint32_t user) const {
    const int8_t e = At(seg, user);
    return e == kNoEntry ? true : e == 1;
  }
  void Set(uint32_t seg, uint32_t user, bool read) { At(seg, user) = read ? 1 : 0; }
  void Remove(uint32_t seg, uint32_t user) { At(seg, user) = kNoEntry; }

 private:
  static constexpr int8_t kNoEntry = -1;
  int8_t& At(uint32_t seg, uint32_t user) { return entry_[seg * users_ + user]; }
  int8_t At(uint32_t seg, uint32_t user) const { return entry_[seg * users_ + user]; }
  std::vector<int8_t> entry_;
  uint32_t users_;
};

struct User {
  Process* process = nullptr;
  SegNo dir = multics::kInvalidSegNo;
  // The access op in flight, if any.
  bool in_flight = false;
  uint32_t segment = 0;
  SegNo segno = multics::kInvalidSegNo;
  uint32_t bursts_left = 0;
  // Simulated cycles the op's own steps have taken, each including the
  // switch into the process: an access op's latency. Steps of other
  // processes interleave between them and are not counted.
  multics::Cycles service = 0;
};

class Churner {
 public:
  Churner(Kernel* kernel, const AclChurnSpec& spec, uint64_t seed, SpanLog* spans)
      : kernel_(kernel), spec_(spec), rng_(seed), spans_(spans),
        shadow_(spec.segments, spec.processes) {}

  // Builds the shared tree and the user processes. Returns "" or an error.
  std::string Build();
  // Runs spec.ops ops. Returns "" or the first mismatch against the shadow.
  std::string Run();

  const multics::Distribution& access_latency() const { return access_latency_; }
  const multics::Distribution& write_latency() const { return write_latency_; }
  uint64_t expected_audit_denials() const { return initiate_denials_; }
  multics::Cycles makespan() const { return makespan_; }
  const AstSampler& ast() const { return ast_; }

 private:
  std::string AclWrite();
  // One step of a user's access op; records the op's latency when it ends.
  std::string AccessStep(uint32_t user_index);
  std::string AccessStepBody(uint32_t user_index, bool* done);
  std::string Terminate(User& user);
  multics::Cycles Now() { return kernel_->machine().clock().now(); }

  Kernel* kernel_;
  AclChurnSpec spec_;
  multics::Rng rng_;
  SpanLog* spans_;
  ShadowAcl shadow_;
  Process* owner_ = nullptr;
  SegNo owner_dir_ = multics::kInvalidSegNo;
  std::vector<User> users_;
  uint64_t ops_done_ = 0;
  uint64_t initiate_denials_ = 0;
  multics::Distribution access_latency_;
  multics::Distribution write_latency_;
  multics::Cycles makespan_ = 0;
  AstSampler ast_;
};

std::string Churner::Build() {
  auto owner = kernel_->BootstrapProcess("churn_owner",
                                         multics::Principal{"ChurnOwner", "SysDaemon", "z"},
                                         multics::MlsLabel{});
  if (!owner.ok()) {
    return "owner process: " + std::string(multics::StatusName(owner.status()));
  }
  owner_ = owner.value();
  auto root = kernel_->RootDir(*owner_);
  if (!root.ok()) {
    return "owner root: " + std::string(multics::StatusName(root.status()));
  }
  multics::SegmentAttributes dir_attrs;
  dir_attrs.acl.Set(AclEntry{"*", "*", "*", multics::kDirStatus});
  dir_attrs.acl.Set(AclEntry{"ChurnOwner", "SysDaemon", "*",
                             static_cast<uint8_t>(multics::kDirStatus | multics::kDirModify |
                                                  multics::kDirAppend)});
  if (!kernel_->FsCreateDirectory(*owner_, root.value(), "churn", dir_attrs, 0).ok()) {
    return "create >churn failed";
  }
  auto dir = kernel_->Initiate(*owner_, root.value(), "churn");
  if (!dir.ok()) {
    return "owner initiate >churn failed";
  }
  owner_dir_ = dir->segno;

  multics::SegmentAttributes seg_attrs;
  seg_attrs.acl.Set(AclEntry{"ChurnOwner", "SysDaemon", "*",
                             static_cast<uint8_t>(multics::kModeRead | multics::kModeWrite)});
  seg_attrs.acl.Set(AclEntry{"*", kProject, "*", multics::kModeRead});
  for (uint32_t s = 0; s < spec_.segments; ++s) {
    const std::string name = SegmentName(s);
    if (!kernel_->FsCreateSegment(*owner_, owner_dir_, name, seg_attrs).ok()) {
      return "create " + name + " failed";
    }
    auto seg = kernel_->Initiate(*owner_, owner_dir_, name);
    if (!seg.ok() ||
        kernel_->SegSetLength(*owner_, seg->segno, spec_.pages_per_segment) != Status::kOk ||
        kernel_->RunAs(*owner_) != Status::kOk) {
      return "set up " + name + " failed";
    }
    for (uint32_t w = 0; w < spec_.pages_per_segment * kMarkedWordsPerPage; ++w) {
      const WordOffset offset = w * kMarkStride;
      if (kernel_->cpu().Write(seg->segno, offset, Marker(s, offset)) != Status::kOk) {
        return "owner write to " + name + " failed";
      }
    }
    if (kernel_->Terminate(*owner_, seg->segno) != Status::kOk) {
      return "owner terminate " + name + " failed";
    }
  }

  users_.resize(spec_.processes);
  for (uint32_t u = 0; u < spec_.processes; ++u) {
    auto process = kernel_->BootstrapProcess(
        "churn_" + UserName(u), multics::Principal{UserName(u), kProject, "a"},
        multics::MlsLabel{});
    if (!process.ok()) {
      return "user process failed";
    }
    users_[u].process = process.value();
    auto user_root = kernel_->RootDir(*process.value());
    if (!user_root.ok()) {
      return "user root failed";
    }
    auto user_dir = kernel_->Initiate(*process.value(), user_root.value(), "churn");
    if (!user_dir.ok()) {
      return "user initiate >churn failed";
    }
    users_[u].dir = user_dir->segno;
  }
  return "";
}

std::string Churner::Run() {
  const multics::Cycles start = Now();
  for (uint64_t step = 1; ops_done_ < spec_.ops; ++step) {
    if (step % kAstSampleEvery == 0) {
      ast_.Sample(*kernel_);
    }
    std::string error = rng_.NextBool(spec_.write_fraction)
                            ? AclWrite()
                            : AccessStep(static_cast<uint32_t>(rng_.NextBelow(spec_.processes)));
    if (!error.empty()) {
      return error;
    }
  }
  // Close the access ops still in flight; they are not counted as ops.
  for (User& user : users_) {
    if (user.in_flight) {
      if (kernel_->RunAs(*user.process) != Status::kOk) {
        return "RunAs(user) failed";
      }
      std::string error = Terminate(user);
      if (!error.empty()) {
        return error;
      }
    }
  }
  makespan_ = Now() - start;
  return "";
}

std::string Churner::AclWrite() {
  const uint32_t seg = static_cast<uint32_t>(rng_.NextZipf(spec_.segments, kZipfS));
  const uint32_t user = static_cast<uint32_t>(rng_.NextBelow(spec_.processes));
  const multics::Cycles t0 = Now();
  if (kernel_->RunAs(*owner_) != Status::kOk) {
    return "RunAs(owner) failed";
  }
  Status status;
  if (shadow_.HasEntry(seg, user) && rng_.NextBool(0.5)) {
    LayerSpan span(spans_, "gate.fs_remove_acl_entry");
    status = kernel_->FsRemoveAclEntry(*owner_, owner_dir_, SegmentName(seg), UserName(user),
                                       kProject, "*");
    shadow_.Remove(seg, user);
  } else {
    // Flip the user's access, so every write changes who may read.
    const bool grant = !shadow_.Readable(seg, user);
    LayerSpan span(spans_, "gate.fs_set_acl");
    status = kernel_->FsSetAcl(
        *owner_, owner_dir_, SegmentName(seg),
        AclEntry{UserName(user), kProject, "*", grant ? multics::kModeRead : multics::kModeNull});
    shadow_.Set(seg, user, grant);
  }
  if (status != Status::kOk) {
    return "ACL write refused: " + std::string(multics::StatusName(status));
  }
  write_latency_.Add(static_cast<double>(Now() - t0));
  ++ops_done_;
  return "";
}

std::string Churner::AccessStep(uint32_t user_index) {
  User& user = users_[user_index];
  const multics::Cycles t0 = Now();
  bool done = false;
  const std::string error = AccessStepBody(user_index, &done);
  user.service += Now() - t0;
  if (done) {
    access_latency_.Add(static_cast<double>(user.service));
    user.service = 0;
    ++ops_done_;
  }
  return error;
}

std::string Churner::AccessStepBody(uint32_t user_index, bool* done) {
  User& user = users_[user_index];
  if (kernel_->RunAs(*user.process) != Status::kOk) {
    return "RunAs(user) failed";
  }
  if (!user.in_flight) {
    const uint32_t seg = static_cast<uint32_t>(rng_.NextZipf(spec_.segments, kZipfS));
    const bool expect = shadow_.Readable(seg, user_index);
    multics::Result<multics::InitiateResult> initiated = Status::kInternal;
    {
      LayerSpan span(spans_, "gate.initiate_seg");
      initiated = kernel_->Initiate(*user.process, user.dir, SegmentName(seg));
    }
    if (!expect) {
      if (initiated.status() != Status::kAccessDenied) {
        return "initiate_seg of a revoked segment returned " +
               std::string(multics::StatusName(initiated.status()));
      }
      ++initiate_denials_;
      *done = true;
      return "";
    }
    if (!initiated.ok() || (initiated->granted_modes & multics::kModeRead) == 0) {
      return "initiate_seg of a readable segment returned " +
             std::string(multics::StatusName(initiated.status()));
    }
    user.in_flight = true;
    user.segment = seg;
    user.segno = initiated->segno;
    user.bursts_left = kBurstsPerAccess;
  }

  for (uint32_t r = 0; r < kReadsPerBurst; ++r) {
    const WordOffset offset = static_cast<WordOffset>(
        rng_.NextBelow(spec_.pages_per_segment * kMarkedWordsPerPage) * kMarkStride);
    const bool expect = shadow_.Readable(user.segment, user_index);
    auto word = kernel_->cpu().Read(user.segno, offset);
    if (!expect) {
      if (word.status() != Status::kAccessDenied) {
        return "read after revocation returned " + std::string(multics::StatusName(word.status()));
      }
      *done = true;  // Denied after a revocation: the op ends.
      return Terminate(user);
    }
    if (!word.ok()) {
      return "read of a readable segment returned " +
             std::string(multics::StatusName(word.status()));
    }
    if (word.value() != Marker(user.segment, offset)) {
      return "read returned the wrong word";
    }
  }
  if (--user.bursts_left == 0) {
    *done = true;
    return Terminate(user);
  }
  return "";
}

std::string Churner::Terminate(User& user) {
  Status status;
  {
    LayerSpan span(spans_, "gate.terminate_seg");
    status = kernel_->Terminate(*user.process, user.segno);
  }
  if (status != Status::kOk) {
    return "terminate_seg refused: " + std::string(multics::StatusName(status));
  }
  user.in_flight = false;
  return "";
}

}  // namespace

AclChurnSpec AclChurnDefaultSpec() {
  AclChurnSpec spec;
  spec.processes = 8;
  spec.segments = 64;
  spec.pages_per_segment = 2;
  spec.ops = 200000;
  spec.write_fraction = 0.1;
  return spec;
}

Iteration RunAclChurn(const AclChurnSpec& spec, uint64_t seed, SpanLog* spans) {
  Iteration it;
  const uint64_t start_ns = HostProfiler::NowNs();

  multics::KernelParams params;
  params.machine.cpus = 1;
  std::unique_ptr<Kernel> kernel;
  {
    LayerSpan span(spans, "init.boot");
    kernel = std::make_unique<Kernel>(params);
    multics::BootstrapOptions options;
    options.users = multics::DefaultUsers();
    auto report = multics::Bootstrap::Run(*kernel, options);
    if (!report.ok()) {
      it.error = "bootstrap failed: " + std::string(multics::StatusName(report.status()));
      return it;
    }
  }
  Churner churner(kernel.get(), spec, seed, spans);
  {
    LayerSpan span(spans, "churn.build");
    it.error = churner.Build();
  }
  if (!it.error.empty()) {
    return it;
  }

  const CounterMap before = ReadCounters(*kernel);
  const uint64_t run_start_ns = HostProfiler::NowNs();
  it.setup_s = static_cast<double>(run_start_ns - start_ns) / 1e9;
  {
    LayerSpan span(spans, "churn.run");
    it.error = churner.Run();
  }
  it.run_s = static_cast<double>(HostProfiler::NowNs() - run_start_ns) / 1e9;
  const CounterMap after = ReadCounters(*kernel);
  it.attempted = spec.ops;
  if (!it.error.empty()) {
    it.failed = 1;
    return it;
  }
  const double audit_denials =
      after.at("core.audit_denials") - before.at("core.audit_denials");
  if (audit_denials != static_cast<double>(churner.expected_audit_denials())) {
    it.error = "audit denials " + std::to_string(static_cast<uint64_t>(audit_denials)) +
               " != shadow-table denials " + std::to_string(churner.expected_audit_denials());
  }

  auto pct = [](const multics::Distribution& d, double q) {
    return d.count() == 0 ? 0.0 : d.Percentile(q);
  };
  it.sim.push_back({"sim_ops_per_mcycle",
                    churner.makespan() == 0 ? 0.0
                                           : static_cast<double>(spec.ops) * 1e6 /
                                                 static_cast<double>(churner.makespan()),
                    "ops/Mcycle"});
  it.sim.push_back({"sim_interactive_p50_cycles", pct(churner.access_latency(), 0.50), "cycles"});
  it.sim.push_back({"sim_interactive_p99_cycles", pct(churner.access_latency(), 0.99), "cycles"});
  it.sim.push_back({"sim_background_p99_cycles", pct(churner.write_latency(), 0.99), "cycles"});

  PhaseFacts facts;
  facts.ops = spec.ops;
  facts.interactive_samples = churner.access_latency().count();
  facts.background_samples = churner.write_latency().count();
  facts.ast = churner.ast();
  const std::string account = AppendSimLayers(*kernel, before, after, facts, &it.sim);
  if (it.error.empty()) {
    it.error = account;
  }
  return it;
}

}  // namespace perfbench
