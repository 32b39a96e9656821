// Full-surface gate coverage: every supervisor entry point is exercised at
// least once through its grant path and, where meaningful, a denial path.
// Complements core_test.cc (which covers the architecture-bearing flows).

#include <gtest/gtest.h>

#include "src/init/bootstrap.h"
#include "src/link/object_format.h"
#include "src/userring/initiator.h"

namespace multics {
namespace {

class GatesTest : public ::testing::Test {
 protected:
  explicit GatesTest(KernelConfiguration config = KernelConfiguration::Kernelized6180()) {
    KernelParams params;
    params.config = config;
    params.machine.core_frames = 128;
    kernel_ = std::make_unique<Kernel>(params);
    BootstrapOptions options;
    options.users = DefaultUsers();
    auto report = Bootstrap::Run(*kernel_, options);
    CHECK(report.ok());
    init_ = report->init_process;
    auto user = kernel_->BootstrapProcess(
        "jones", Principal{"Jones", "Faculty", "a"},
        MlsLabel{SensitivityLevel::kSecret, CategorySet::Of({1})});
    CHECK(user.ok());
    user_ = user.value();
    UserInitiator initiator(kernel_.get(), user_);
    auto home = initiator.InitiateDirPath(">udd>Faculty>Jones");
    CHECK(home.ok());
    home_ = home.value();
  }

  Uid MakeSeg(const std::string& name) {
    SegmentAttributes attrs;
    attrs.acl.Set(AclEntry{"Jones", "Faculty", "*", kModeRead | kModeWrite | kModeExecute});
    attrs.acl.Set(AclEntry{"*", "*", "*", kModeRead});
    auto uid = kernel_->FsCreateSegment(*user_, home_, name, attrs);
    CHECK(uid.ok()) << StatusName(uid.status());
    return uid.value();
  }

  // Initiates `name` in the home directory, grows it to one page, and touches
  // it through the processor's checked path so a real SDW is connected. On
  // return Jones holds a valid, writable descriptor for the segment.
  SegNo ConnectWritable(const std::string& name) {
    MakeSeg(name);
    auto init = kernel_->Initiate(*user_, home_, name);
    CHECK(init.ok()) << StatusName(init.status());
    const SegNo segno = init->segno;
    CHECK(kernel_->SegSetLength(*user_, segno, 1) == Status::kOk);
    CHECK(kernel_->RunAs(*user_) == Status::kOk);
    CHECK(kernel_->cpu().Write(segno, 0, 7) == Status::kOk);
    EXPECT_TRUE(user_->dseg().Get(segno).valid);
    EXPECT_TRUE(user_->dseg().Get(segno).write);
    return segno;
  }

  std::unique_ptr<Kernel> kernel_;
  Process* init_ = nullptr;
  Process* user_ = nullptr;
  SegNo home_ = kInvalidSegNo;
};

TEST_F(GatesTest, SegLengthTruncateAndStatus) {
  MakeSeg("s");
  auto init = kernel_->Initiate(*user_, home_, "s");
  ASSERT_TRUE(init.ok());
  EXPECT_EQ(kernel_->SegGetLength(*user_, init->segno).value(), 0u);
  ASSERT_EQ(kernel_->SegSetLength(*user_, init->segno, 5), Status::kOk);
  EXPECT_EQ(kernel_->SegGetLength(*user_, init->segno).value(), 5u);
  // Shrinking goes through the seg_truncate gate.
  uint64_t calls_before = kernel_->gates().total_calls();
  ASSERT_EQ(kernel_->SegSetLength(*user_, init->segno, 2), Status::kOk);
  EXPECT_GT(kernel_->gates().total_calls(), calls_before);
  bool truncate_called = false;
  for (const GateInfo& gate : kernel_->gates().gates()) {
    if (gate.name == "seg_truncate" && gate.calls > 0) {
      truncate_called = true;
    }
  }
  EXPECT_TRUE(truncate_called);
  EXPECT_EQ(kernel_->SegGetLength(*user_, init->segno).value(), 2u);
  // Unknown segno: clean error.
  EXPECT_EQ(kernel_->SegGetLength(*user_, 3999).status(), Status::kSegmentNotKnown);
}

TEST_F(GatesTest, FsAclGates) {
  MakeSeg("s");
  ASSERT_EQ(kernel_->FsSetAcl(*user_, home_, "s", AclEntry{"Smith", "Faculty", "*", kModeRead}),
            Status::kOk);
  auto acl = kernel_->FsListAcl(*user_, home_, "s");
  ASSERT_TRUE(acl.ok());
  EXPECT_EQ(acl->size(), 3u);
  ASSERT_EQ(kernel_->FsRemoveAclEntry(*user_, home_, "s", "Smith", "Faculty", "*"),
            Status::kOk);
  EXPECT_EQ(kernel_->FsListAcl(*user_, home_, "s")->size(), 2u);
  EXPECT_EQ(kernel_->FsRemoveAclEntry(*user_, home_, "s", "Smith", "Faculty", "*"),
            Status::kNotFound);
  // A stranger may not modify the ACL (needs Modify on the directory).
  auto doe = kernel_->BootstrapProcess("doe", Principal{"Doe", "Students", "a"},
                                       MlsLabel{SensitivityLevel::kSecret, CategorySet::Of({1})});
  ASSERT_TRUE(doe.ok());
  UserInitiator initiator(kernel_.get(), doe.value());
  auto dir = initiator.InitiateDirPath(">udd>Faculty>Jones");
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(kernel_->FsSetAcl(*doe.value(), dir.value(), "s",
                              AclEntry{"Doe", "Students", "*", kModeRead | kModeWrite}),
            Status::kAccessDenied);
}

TEST_F(GatesTest, FsMaxLengthGate) {
  MakeSeg("s");
  auto init = kernel_->Initiate(*user_, home_, "s");
  ASSERT_TRUE(init.ok());
  ASSERT_EQ(kernel_->SegSetLength(*user_, init->segno, 4), Status::kOk);
  EXPECT_EQ(kernel_->FsSetMaxLength(*user_, home_, "s", 2), Status::kFailedPrecondition);
  ASSERT_EQ(kernel_->FsSetMaxLength(*user_, home_, "s", 8), Status::kOk);
  EXPECT_EQ(kernel_->SegSetLength(*user_, init->segno, 9), Status::kSegmentTooLong);
}

TEST_F(GatesTest, QuotaGates) {
  SegmentAttributes dir_attrs;
  dir_attrs.acl.Set(AclEntry{"Jones", "Faculty", "*", kDirStatus | kDirModify | kDirAppend});
  ASSERT_TRUE(kernel_->FsCreateDirectory(*user_, home_, "q", dir_attrs, 0).ok());
  auto dir = kernel_->Initiate(*user_, home_, "q");
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(kernel_->FsGetQuota(*user_, dir->segno).value(), 0u);
  ASSERT_EQ(kernel_->FsSetQuota(*user_, dir->segno, 6), Status::kOk);
  EXPECT_EQ(kernel_->FsGetQuota(*user_, dir->segno).value(), 6u);
  // Cannot set a quota below what is already charged.
  SegmentAttributes attrs;
  attrs.acl.Set(AclEntry{"Jones", "Faculty", "*", kModeRead | kModeWrite});
  ASSERT_TRUE(kernel_->FsCreateSegment(*user_, dir->segno, "fat", attrs).ok());
  auto fat = kernel_->Initiate(*user_, dir->segno, "fat");
  ASSERT_TRUE(fat.ok());
  ASSERT_EQ(kernel_->SegSetLength(*user_, fat->segno, 5), Status::kOk);
  EXPECT_EQ(kernel_->FsSetQuota(*user_, dir->segno, 4), Status::kQuotaExceeded);
}

TEST_F(GatesTest, ProcessGates) {
  auto child = kernel_->ProcCreate(
      *user_, "child", user_->principal(), user_->clearance(),
      std::make_unique<FnTask>([](TaskContext&) { return TaskState::kDone; }));
  ASSERT_TRUE(child.ok());
  const ProcessId pid = child.value()->pid();
  auto info = kernel_->ProcGetInfo(*user_, pid);
  ASSERT_TRUE(info.ok());
  EXPECT_NE(info->find("Jones.Faculty.a"), std::string::npos);
  EXPECT_EQ(kernel_->ProcGetInfo(*user_, 99999).status(), Status::kNoSuchProcess);
  const Uid uid = MakeSeg("childs");
  UserInitiator initiator(kernel_.get(), child.value());
  auto home = initiator.InitiateDirPath(">udd>Faculty>Jones");
  ASSERT_TRUE(home.ok());
  ASSERT_TRUE(kernel_->Initiate(*child.value(), home.value(), "childs").ok());
  ASSERT_EQ(kernel_->store().RefCount(uid), 1u);

  // A stranger may not destroy someone else's process...
  auto doe = kernel_->BootstrapProcess("doe", Principal{"Doe", "Students", "a"},
                                       MlsLabel::SystemLow());
  ASSERT_TRUE(doe.ok());
  EXPECT_EQ(kernel_->ProcDestroy(*doe.value(), pid), Status::kAccessDenied);
  // ...but the owner (or a ring-1 service) may. The process is erased, so
  // child.value() dangles from here on; its initiations are dropped.
  EXPECT_EQ(kernel_->ProcDestroy(*user_, pid), Status::kOk);
  EXPECT_EQ(kernel_->traffic().Find(pid), nullptr);
  EXPECT_EQ(kernel_->store().RefCount(uid), 0u);
  EXPECT_EQ(kernel_->ProcDestroy(*user_, pid), Status::kNoSuchProcess);
}

// --- Process destruction hazards ---------------------------------------------
//
// A destroyed process is freed, so every structure that could still name it
// must let go first. Under ASan a missed pointer is a heap-use-after-free.

std::unique_ptr<Task> DoneTask() {
  return std::make_unique<FnTask>([](TaskContext&) { return TaskState::kDone; });
}

TEST_F(GatesTest, AclChangeAfterDestroyFaultsOnlyLiveSdws) {
  const SegNo mine = ConnectWritable("shared");
  auto child = kernel_->ProcCreate(*user_, "child", user_->principal(), user_->clearance(),
                                   DoneTask());
  ASSERT_TRUE(child.ok());
  UserInitiator initiator(kernel_.get(), child.value());
  auto home = initiator.InitiateDirPath(">udd>Faculty>Jones");
  ASSERT_TRUE(home.ok());
  auto theirs = kernel_->Initiate(*child.value(), home.value(), "shared");
  ASSERT_TRUE(theirs.ok());
  ASSERT_EQ(kernel_->RunAs(*child.value()), Status::kOk);
  ASSERT_TRUE(kernel_->cpu().Read(theirs->segno, 0).ok());

  // Every segment the child knows carries one trailer; destruction drops them.
  const size_t trailers = kernel_->trailer_count();
  const size_t child_known = child.value()->kst().size();
  ASSERT_EQ(kernel_->ProcDestroy(*user_, child.value()->pid()), Status::kOk);
  EXPECT_EQ(kernel_->trailer_count(), trailers - child_known);

  ASSERT_EQ(kernel_->FsSetAcl(*user_, home_, "shared",
                              AclEntry{"Jones", "Faculty", "*", kModeRead}),
            Status::kOk);
  EXPECT_FALSE(user_->dseg().Get(mine).valid);
}

TEST_F(GatesTest, RunAsAfterDestroyChargesProcessSwitch) {
  auto child = kernel_->ProcCreate(*user_, "child", user_->principal(), user_->clearance(),
                                   DoneTask());
  ASSERT_TRUE(child.ok());
  ASSERT_EQ(kernel_->RunAs(*child.value()), Status::kOk);
  ASSERT_EQ(kernel_->ProcDestroy(*user_, child.value()->pid()), Status::kOk);
  EXPECT_EQ(kernel_->current(), nullptr);
  EXPECT_EQ(kernel_->cpu().address_space(), nullptr);

  // The next process may be allocated where the destroyed one lived; binding
  // it is still a switch.
  auto next = kernel_->ProcCreate(*user_, "next", user_->principal(), user_->clearance(),
                                  DoneTask());
  ASSERT_TRUE(next.ok());
  const uint64_t before = kernel_->machine().charges().Get("scheduler");
  ASSERT_EQ(kernel_->RunAs(*next.value()), Status::kOk);
  EXPECT_EQ(kernel_->machine().charges().Get("scheduler") - before,
            kernel_->machine().costs().process_switch);
}

TEST_F(GatesTest, ProcessCannotDestroyItselfInsideItsStep) {
  Kernel* kernel = kernel_.get();
  Status seen = Status::kOk;
  auto child = kernel_->ProcCreate(
      *user_, "child", user_->principal(), user_->clearance(),
      std::make_unique<FnTask>([kernel, &seen](TaskContext& ctx) {
        seen = kernel->ProcDestroy(ctx.self(), ctx.self().pid());
        return TaskState::kDone;
      }));
  ASSERT_TRUE(child.ok());
  const ProcessId pid = child.value()->pid();
  kernel_->traffic().RunUntilQuiescent();
  EXPECT_EQ(seen, Status::kFailedPrecondition);
  ASSERT_NE(kernel_->traffic().Find(pid), nullptr);
  EXPECT_EQ(kernel_->ProcDestroy(*user_, pid), Status::kOk);  // From outside it may.
}

TEST_F(GatesTest, IpcChannelLifecycleGates) {
  MakeSeg("guard");
  auto guard = kernel_->Initiate(*user_, home_, "guard");
  ASSERT_TRUE(guard.ok());
  auto channel = kernel_->IpcCreateChannel(*user_, guard->segno);
  ASSERT_TRUE(channel.ok());
  ASSERT_EQ(kernel_->IpcWakeup(*user_, channel.value(), 42), Status::kOk);
  // Only the owner (or ring<=1) destroys a channel.
  auto doe = kernel_->BootstrapProcess("doe", Principal{"Doe", "Students", "a"},
                                       MlsLabel::SystemLow());
  ASSERT_TRUE(doe.ok());
  EXPECT_EQ(kernel_->IpcDestroyChannel(*doe.value(), channel.value()), Status::kAccessDenied);
  EXPECT_EQ(kernel_->IpcDestroyChannel(*user_, channel.value()), Status::kOk);
  EXPECT_EQ(kernel_->IpcWakeup(*user_, channel.value(), 1), Status::kNoSuchChannel);
}

TEST_F(GatesTest, NetworkGates) {
  auto conn = kernel_->NetOpen(*user_, "host:rand-ten45");
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(kernel_->NetStatus(*user_, conn.value()).value(), 0u);
  ASSERT_EQ(kernel_->network().InjectFromRemote(conn.value(), "ping"), Status::kOk);
  kernel_->machine().events().RunUntilIdle();
  EXPECT_EQ(kernel_->NetStatus(*user_, conn.value()).value(), 1u);
  EXPECT_EQ(kernel_->NetRead(*user_, conn.value()).value(), "ping");
  ASSERT_EQ(kernel_->NetWrite(*user_, conn.value(), "pong"), Status::kOk);
  ASSERT_EQ(kernel_->NetClose(*user_, conn.value()), Status::kOk);
  EXPECT_EQ(kernel_->NetRead(*user_, conn.value()).status(), Status::kConnectionClosed);
}

TEST_F(GatesTest, ShutdownRequiresPrivilege) {
  EXPECT_EQ(kernel_->Shutdown(*user_), Status::kAccessDenied);
  EXPECT_EQ(kernel_->Shutdown(*init_), Status::kOk);
}

// --- Legacy-only gates -------------------------------------------------------------

class LegacyGatesTest : public GatesTest {
 protected:
  LegacyGatesTest() : GatesTest(KernelConfiguration::Legacy6180()) {}
};

TEST_F(LegacyGatesTest, PathAddressingGateFamily) {
  MakeSeg("s");
  // status_path / list_dir_path / quota_read_path
  auto status = kernel_->FsStatusPath(*user_, ">udd>Faculty>Jones>s");
  ASSERT_TRUE(status.ok());
  EXPECT_FALSE(status->is_directory);
  auto listing = kernel_->ListPath(*user_, ">udd>Faculty>Jones");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 1u);
  EXPECT_EQ(kernel_->QuotaReadPath(*user_, ">udd>Faculty").value(), 64u);

  // initiate_count_path reports the KST population.
  auto counted = kernel_->InitiateCountPath(*user_, ">udd>Faculty>Jones>s");
  ASSERT_TRUE(counted.ok());
  EXPECT_GT(counted->second, 1u);

  // set_acl_path + chname_path + delete_path
  ASSERT_EQ(kernel_->SetAclPath(*user_, ">udd>Faculty>Jones>s",
                                AclEntry{"Smith", "Faculty", "*", kModeRead}),
            Status::kOk);
  ASSERT_EQ(kernel_->ChnamePath(*user_, ">udd>Faculty>Jones>s", "t"), Status::kOk);
  EXPECT_EQ(kernel_->FsStatusPath(*user_, ">udd>Faculty>Jones>s").status(),
            Status::kNotFound);
  // terminate_file_path drops every initiation at once.
  auto again = kernel_->InitiatePath(*user_, ">udd>Faculty>Jones>t");
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(kernel_->InitiatePath(*user_, ">udd>Faculty>Jones>t").ok());
  ASSERT_EQ(kernel_->TerminateFilePath(*user_, ">udd>Faculty>Jones>t"), Status::kOk);
  EXPECT_EQ(kernel_->DeletePath(*user_, ">udd>Faculty>Jones>t"), Status::kOk);
}

TEST_F(LegacyGatesTest, NamingGateFamily) {
  MakeSeg("prog");
  auto segno = kernel_->InitiatePath(*user_, ">udd>Faculty>Jones>prog");
  ASSERT_TRUE(segno.ok());
  ASSERT_EQ(kernel_->NameBind(*user_, "prog_", segno.value()), Status::kOk);
  EXPECT_EQ(kernel_->NameLookup(*user_, "prog_").value(), segno.value());
  EXPECT_EQ(kernel_->NameList(*user_)->size(), 1u);
  EXPECT_EQ(kernel_->ExpandPathname(*user_, ">a>>b").value(), ">a>b");
  EXPECT_EQ(kernel_->GetSearchRules(*user_)->size(), 0u);
  ASSERT_EQ(kernel_->SetSearchRules(*user_, {">system_library"}), Status::kOk);
  EXPECT_EQ(kernel_->GetSearchRules(*user_)->size(), 1u);
  // terminate_ref_name unbinds and terminates when it was the last name.
  ASSERT_EQ(kernel_->TerminateRefName(*user_, "prog_"), Status::kOk);
  EXPECT_EQ(kernel_->NameLookup(*user_, "prog_").status(), Status::kNoSuchReferenceName);
  EXPECT_EQ(kernel_->TerminateRefName(*user_, "prog_"), Status::kNoSuchReferenceName);
}

TEST_F(LegacyGatesTest, LinkerGateFamily) {
  // Build a small object segment with symbols and a link to math_.
  std::vector<Word> image = ObjectBuilder()
                                .SetText({9, 9, 9})
                                .AddSymbol("entry", 1)
                                .AddSymbol("aux", 2)
                                .AddLink("math_", "sqrt")
                                .SetEntryBound(2)
                                .Build();
  MakeSeg("obj");
  auto init = kernel_->Initiate(*user_, home_, "obj");
  ASSERT_TRUE(init.ok());
  ASSERT_EQ(kernel_->SegSetLength(*user_, init->segno,
                                  PageOf(static_cast<WordOffset>(image.size())) + 1),
            Status::kOk);
  ASSERT_EQ(kernel_->RunAs(*user_), Status::kOk);
  for (WordOffset i = 0; i < image.size(); ++i) {
    ASSERT_EQ(kernel_->cpu().Write(init->segno, i, image[i]), Status::kOk);
  }
  ASSERT_EQ(kernel_->SetSearchRules(*user_, {">system_library"}), Status::kOk);

  EXPECT_EQ(kernel_->LinkGetEntryBound(*user_, init->segno).value(), 2u);
  auto defs = kernel_->LinkGetDefs(*user_, init->segno);
  ASSERT_TRUE(defs.ok());
  EXPECT_EQ(defs->size(), 2u);
  EXPECT_EQ(kernel_->LinkLookupSymbol(*user_, init->segno, "aux").value(), 2u);

  EXPECT_EQ(kernel_->LinkSnapAll(*user_, init->segno).value(), 1u);
  auto one = kernel_->LinkSnapOne(*user_, init->segno, 0);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->second, 10u);  // math_$sqrt lives at offset 10.

  ASSERT_EQ(kernel_->LinkUnsnap(*user_, init->segno), Status::kOk);
  EXPECT_EQ(kernel_->LinkSnapAll(*user_, init->segno).value(), 1u);  // Re-snaps.

  EXPECT_EQ(kernel_->CombineLinkage(*user_, {init->segno}).value(), 0u);  // All snapped.
  ASSERT_EQ(kernel_->SetLinkagePtr(*user_, init->segno, 77), Status::kOk);
  EXPECT_EQ(kernel_->GetLinkagePtr(*user_, init->segno).value(), 77u);
}

TEST_F(LegacyGatesTest, DeviceGateEdgeCases) {
  EXPECT_EQ(kernel_->TtyRead(*user_, 99).status(), Status::kDeviceError);
  EXPECT_EQ(kernel_->TtyRead(*user_, 0).status(), Status::kNotFound);  // No input yet.
  EXPECT_EQ(kernel_->CardRead(*user_).status(), Status::kDeviceError);  // Empty hopper.
  EXPECT_EQ(kernel_->TapeRead(*user_).status(), Status::kOutOfRange);   // Blank tape.
  EXPECT_EQ(kernel_->TapeSkip(*user_, 5), Status::kOutOfRange);
  ASSERT_EQ(kernel_->PrinterEject(*user_), Status::kOk);
  EXPECT_EQ(kernel_->printer().pages(), 2u);
}

TEST_F(LegacyGatesTest, LogoutDestroysTheSession) {
  const Uid uid = MakeSeg("s");
  kernel_->RegisterUser("Jones", "Faculty", "pw", MlsLabel::SystemHigh());
  auto session = kernel_->LoginLegacy(*user_, "Jones", "Faculty", "pw", user_->clearance());
  ASSERT_TRUE(session.ok());
  const ProcessId pid = session.value()->pid();
  ASSERT_TRUE(kernel_->InitiatePath(*session.value(), ">udd>Faculty>Jones>s").ok());
  ASSERT_EQ(kernel_->store().RefCount(uid), 1u);
  auto doe = kernel_->BootstrapProcess("doe", Principal{"Doe", "Students", "a"},
                                       MlsLabel::SystemLow());
  ASSERT_TRUE(doe.ok());
  const size_t sinks = kernel_->fault_sink_count();

  EXPECT_EQ(kernel_->Logout(*doe.value(), pid), Status::kAccessDenied);
  // Logout tears the session down exactly as proc_destroy does.
  EXPECT_EQ(kernel_->Logout(*user_, pid), Status::kOk);
  EXPECT_EQ(kernel_->traffic().Find(pid), nullptr);
  EXPECT_EQ(kernel_->store().RefCount(uid), 0u);
  EXPECT_EQ(kernel_->fault_sink_count(), sinks - 1);
  EXPECT_EQ(kernel_->Logout(*user_, pid), Status::kNoSuchProcess);
}

// Every registered gate must be reachable: after the suites above plus a
// sweep here, no gate in the census has zero calls.
TEST_F(LegacyGatesTest, EveryGateIsExercised) {
  // Run a broad sweep touching everything not hit in this test body.
  MakeSeg("sweep");
  auto segno = kernel_->InitiatePath(*user_, ">udd>Faculty>Jones>sweep");
  ASSERT_TRUE(segno.ok());
  (void)kernel_->RootDir(*user_);
  (void)kernel_->Initiate(*user_, home_, "sweep");
  (void)kernel_->KstStatus(*user_);
  (void)kernel_->FsList(*user_, home_);
  (void)kernel_->FsStatus(*user_, home_, "sweep");
  (void)kernel_->FsCreateLink(*user_, home_, "lnk", ">udd");
  (void)kernel_->FsAddName(*user_, home_, "sweep", "swept");
  (void)kernel_->FsRename(*user_, home_, "swept", "swoop");
  (void)kernel_->FsRemoveAclEntry(*user_, home_, "sweep", "x", "y", "z");
  (void)kernel_->FsSetRingBrackets(*user_, home_, "sweep", RingBrackets{4, 4, 5}, true, 1);
  (void)kernel_->FsSetMaxLength(*user_, home_, "sweep", 8);
  (void)kernel_->FsSetAcl(*user_, home_, "sweep", AclEntry{"*", "*", "*", kModeRead});
  (void)kernel_->FsListAcl(*user_, home_, "sweep");
  (void)kernel_->FsSetQuota(*user_, home_, 0);
  (void)kernel_->FsGetQuota(*user_, home_);
  (void)kernel_->FsDelete(*user_, home_, "lnk");
  (void)kernel_->SegGetLength(*user_, segno.value());
  (void)kernel_->SegSetLength(*user_, segno.value(), 2);
  (void)kernel_->SegSetLength(*user_, segno.value(), 1);  // truncate gate
  (void)kernel_->Terminate(*user_, segno.value());
  (void)kernel_->InitiateCountPath(*user_, ">udd>Faculty>Jones>sweep");
  (void)kernel_->TerminatePath(*user_, ">udd>Faculty>Jones>sweep");
  (void)kernel_->InitiatePath(*user_, ">udd>Faculty>Jones>sweep");
  (void)kernel_->TerminateFilePath(*user_, ">udd>Faculty>Jones>sweep");
  (void)kernel_->FsStatusPath(*user_, ">udd>Faculty>Jones>sweep");
  (void)kernel_->CreateSegmentPath(*user_, ">udd>Faculty>Jones>viapath",
                                   SegmentAttributes{});
  (void)kernel_->SetAclPath(*user_, ">udd>Faculty>Jones>viapath",
                            AclEntry{"*", "*", "*", kModeRead});
  (void)kernel_->ChnamePath(*user_, ">udd>Faculty>Jones>viapath", "renamed");
  (void)kernel_->ListPath(*user_, ">udd>Faculty>Jones");
  (void)kernel_->QuotaReadPath(*user_, ">udd>Faculty");
  (void)kernel_->TerminatePath(*user_, ">udd>Faculty>Jones>renamed");
  (void)kernel_->DeletePath(*user_, ">udd>Faculty>Jones>renamed");
  auto snapme = kernel_->InitiatePath(*user_, ">system_library>fmt_");
  ASSERT_TRUE(snapme.ok());
  (void)kernel_->SetSearchRules(*user_, {">system_library"});
  (void)kernel_->GetSearchRules(*user_);
  (void)kernel_->SearchInitiate(*user_, "math_");
  (void)kernel_->NameBind(*user_, "n", snapme.value());
  (void)kernel_->NameLookup(*user_, "n");
  (void)kernel_->NameList(*user_);
  (void)kernel_->NameUnbind(*user_, "n");
  (void)kernel_->TerminateRefName(*user_, "gone");
  (void)kernel_->PathnameOf(*user_, snapme.value());
  (void)kernel_->ExpandPathname(*user_, ">x");
  (void)kernel_->LinkGetEntryBound(*user_, snapme.value());
  (void)kernel_->LinkGetDefs(*user_, snapme.value());
  (void)kernel_->LinkLookupSymbol(*user_, snapme.value(), "format");
  (void)kernel_->LinkSnapAll(*user_, snapme.value());
  (void)kernel_->LinkSnapOne(*user_, snapme.value(), 0);
  (void)kernel_->LinkUnsnap(*user_, snapme.value());
  (void)kernel_->CombineLinkage(*user_, {snapme.value()});
  (void)kernel_->SetLinkagePtr(*user_, snapme.value(), 1);
  auto child = kernel_->ProcCreate(*user_, "c", user_->principal(), user_->clearance(),
                                   std::make_unique<FnTask>([](TaskContext&) {
                                     return TaskState::kDone;
                                   }));
  if (child.ok()) {
    (void)kernel_->ProcGetInfo(*user_, child.value()->pid());
    (void)kernel_->ProcDestroy(*user_, child.value()->pid());
  }
  auto guard = kernel_->Initiate(*user_, home_, "sweep");
  if (guard.ok()) {
    auto channel = kernel_->IpcCreateChannel(*user_, guard->segno);
    if (channel.ok()) {
      (void)kernel_->IpcWakeup(*user_, channel.value(), 1);
      (void)kernel_->IpcChannelStatus(*user_, channel.value());
      TaskContext ctx(&kernel_->traffic(), user_);
      (void)kernel_->IpcAwait(*user_, ctx, channel.value());
      (void)kernel_->IpcDestroyChannel(*user_, channel.value());
    }
  }
  (void)kernel_->ProcMetering(*user_);
  auto conn = kernel_->NetOpen(*user_, "host:x");
  if (conn.ok()) {
    (void)kernel_->NetStatus(*user_, conn.value());
    (void)kernel_->NetWrite(*user_, conn.value(), "x");
    (void)kernel_->NetRead(*user_, conn.value());
    (void)kernel_->NetClose(*user_, conn.value());
  }
  kernel_->tty(0).TypeCharacter('\n');
  (void)kernel_->TtyRead(*user_, 0);
  (void)kernel_->TtyWrite(*user_, 0, "x");
  kernel_->card_reader().LoadDeck({"card"});
  (void)kernel_->CardRead(*user_);
  (void)kernel_->PrinterWrite(*user_, "line");
  (void)kernel_->PrinterEject(*user_);
  (void)kernel_->TapeWrite(*user_, "rec");
  (void)kernel_->TapeRewind(*user_);
  (void)kernel_->TapeRead(*user_);
  (void)kernel_->TapeSkip(*user_, 0);
  (void)kernel_->MeteringInfo(*user_);
  kernel_->RegisterUser("Jones", "Faculty", "pw", MlsLabel::SystemHigh());
  auto session =
      kernel_->LoginLegacy(*user_, "Jones", "Faculty", "pw", MlsLabel::SystemLow());
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(kernel_->LoginLegacy(*user_, "Jones", "Faculty", "no", {}).ok());
  EXPECT_EQ(kernel_->Logout(*user_, session.value()->pid()), Status::kOk);
  (void)kernel_->Shutdown(*init_);

  std::vector<std::string> never_called;
  for (const GateInfo& gate : kernel_->gates().gates()) {
    if (gate.calls == 0) {
      never_called.push_back(gate.name);
    }
  }
  EXPECT_TRUE(never_called.empty()) << [&] {
    std::string out = "uncalled gates:";
    for (const std::string& name : never_called) {
      out += " " + name;
    }
    return out;
  }();
}

// --- Revocation sweep -------------------------------------------------------
//
// Every gate that rewrites an ACL or ring brackets must cut the stale SDWs
// out of every connected descriptor segment (DisconnectSdwsFor): the paper's
// rule is that access is revoked by invalidating descriptors, never by
// trusting user rings to re-check. The next reference takes a segment fault
// and re-derives access under the new terms, so a downgrade is enforced at
// the very next touch.

TEST_F(GatesTest, SetAclRevokesConnectedSdws) {
  const SegNo segno = ConnectWritable("rev_acl");

  // Downgrade Jones to read-only. The connected SDW is cut immediately.
  ASSERT_EQ(kernel_->FsSetAcl(*user_, home_, "rev_acl",
                              AclEntry{"Jones", "Faculty", "*", kModeRead}),
            Status::kOk);
  EXPECT_FALSE(user_->dseg().Get(segno).valid);

  // The next write faults, reconnects under the new ACL, and is refused;
  // reads re-derive cleanly and leave a valid read-only descriptor behind.
  EXPECT_EQ(kernel_->cpu().Write(segno, 0, 8), Status::kAccessDenied);
  EXPECT_EQ(kernel_->cpu().Read(segno, 0).value(), 7u);
  EXPECT_TRUE(user_->dseg().Get(segno).valid);
  EXPECT_FALSE(user_->dseg().Get(segno).write);
}

TEST_F(GatesTest, RemoveAclEntryRevokesConnectedSdws) {
  const SegNo segno = ConnectWritable("rev_rm");

  // Dropping Jones's own entry leaves only the *.*.* read fallback.
  ASSERT_EQ(kernel_->FsRemoveAclEntry(*user_, home_, "rev_rm", "Jones", "Faculty", "*"),
            Status::kOk);
  EXPECT_FALSE(user_->dseg().Get(segno).valid);

  EXPECT_EQ(kernel_->cpu().Write(segno, 0, 8), Status::kAccessDenied);
  EXPECT_EQ(kernel_->cpu().Read(segno, 0).value(), 7u);
  EXPECT_FALSE(user_->dseg().Get(segno).write);
}

TEST_F(GatesTest, SetRingBracketsRevokesConnectedSdws) {
  // The brackets case needs two principals: Jones may not pull the write
  // bracket below the user ring (that gate refuses to mint authority), and
  // the initializer has no modify access inside Jones's home directory. So
  // the shared segment lives in >udd, which the initializer does control.
  UserInitiator init_initiator(kernel_.get(), init_);
  auto init_udd = init_initiator.InitiateDirPath(">udd");
  ASSERT_TRUE(init_udd.ok());
  SegmentAttributes attrs;
  attrs.acl.Set(AclEntry{"Jones", "Faculty", "*", kModeRead | kModeWrite});
  attrs.acl.Set(AclEntry{"*", "*", "*", kModeRead});
  attrs.label = user_->clearance();  // Writable by Jones under MLS (no write-down).
  ASSERT_TRUE(kernel_->FsCreateSegment(*init_, init_udd.value(), "rev_rb", attrs).ok());

  UserInitiator user_initiator(kernel_.get(), user_);
  auto user_udd = user_initiator.InitiateDirPath(">udd");
  ASSERT_TRUE(user_udd.ok());
  auto init = kernel_->Initiate(*user_, user_udd.value(), "rev_rb");
  ASSERT_TRUE(init.ok());
  const SegNo segno = init->segno;
  ASSERT_EQ(kernel_->SegSetLength(*user_, segno, 1), Status::kOk);
  ASSERT_EQ(kernel_->RunAs(*user_), Status::kOk);
  ASSERT_EQ(kernel_->cpu().Write(segno, 0, 7), Status::kOk);
  ASSERT_TRUE(user_->dseg().Get(segno).valid);

  ASSERT_EQ(kernel_->FsSetRingBrackets(*user_, user_udd.value(), "rev_rb",
                                       RingBrackets{2, kRingUser, kRingUser},
                                       /*gate=*/false, /*gate_entries=*/0),
            Status::kRingViolation);
  ASSERT_EQ(kernel_->FsSetRingBrackets(*init_, init_udd.value(), "rev_rb",
                                       RingBrackets{2, kRingUser, kRingUser},
                                       /*gate=*/false, /*gate_entries=*/0),
            Status::kOk);
  EXPECT_FALSE(user_->dseg().Get(segno).valid);

  // Reconnection carries the new brackets: ring 4 is now outside the write
  // bracket, and the hardware check (not the ACL) refuses the store.
  ASSERT_EQ(kernel_->RunAs(*user_), Status::kOk);
  EXPECT_EQ(kernel_->cpu().Write(segno, 0, 8), Status::kRingViolation);
  EXPECT_EQ(kernel_->cpu().Read(segno, 0).value(), 7u);
  EXPECT_TRUE(user_->dseg().Get(segno).valid);
  EXPECT_EQ(user_->dseg().Get(segno).brackets.write_limit, 2u);
}

TEST_F(LegacyGatesTest, SetAclPathRevokesConnectedSdws) {
  const SegNo segno = ConnectWritable("rev_path");

  // The legacy pathname gate must sweep exactly like its segment-number twin.
  ASSERT_EQ(kernel_->SetAclPath(*user_, ">udd>Faculty>Jones>rev_path",
                                AclEntry{"Jones", "Faculty", "*", kModeRead}),
            Status::kOk);
  EXPECT_FALSE(user_->dseg().Get(segno).valid);

  EXPECT_EQ(kernel_->cpu().Write(segno, 0, 8), Status::kAccessDenied);
  EXPECT_EQ(kernel_->cpu().Read(segno, 0).value(), 7u);
  EXPECT_FALSE(user_->dseg().Get(segno).write);
}

}  // namespace
}  // namespace multics
