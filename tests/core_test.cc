// Integration tests for the security kernel: gate table and configurations,
// initiation/termination, the reference monitor (ACL + MLS + rings) end to
// end through the simulated hardware, segment faults, audit, and the
// policy-relevant negative properties.

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "src/core/kernel.h"

namespace multics {
namespace {

SegmentAttributes RwForAll() {
  SegmentAttributes attrs;
  attrs.acl.Set(AclEntry{"*", "*", "*", kModeRead | kModeWrite});
  return attrs;
}

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() : KernelTest(KernelConfiguration::Kernelized6180()) {}

  explicit KernelTest(const KernelConfiguration& config) {
    KernelParams params;
    params.config = config;
    params.machine.core_frames = 64;
    kernel_ = std::make_unique<Kernel>(params);

    // A trusted system service sets up a secret-labeled working directory
    // (as the initializer would build home directories), then the ordinary
    // secret-cleared user works inside it.
    auto init = kernel_->BootstrapProcess("init", Principal{"Initializer", "SysDaemon", "z"},
                                          MlsLabel::SystemHigh());
    CHECK(init.ok());
    init.value()->set_ring(kRingSupervisor);
    init_ = init.value();
    auto root = kernel_->RootDir(*init_);
    CHECK(root.ok());
    SegmentAttributes home_attrs;
    home_attrs.acl.Set(AclEntry{"*", "*", "*", kDirStatus | kDirModify | kDirAppend});
    home_attrs.label = MlsLabel{SensitivityLevel::kSecret, {}};
    CHECK(kernel_->FsCreateDirectory(*init_, root.value(), "home", home_attrs).ok());

    auto user = kernel_->BootstrapProcess("user", Principal{"Jones", "Faculty", "a"},
                                          MlsLabel{SensitivityLevel::kSecret, {}});
    CHECK(user.ok());
    user_ = user.value();
  }

  // The user's handle on the secret working directory.
  SegNo HomeDir(Process& process) {
    auto root = kernel_->RootDir(process);
    CHECK(root.ok());
    auto home = kernel_->Initiate(process, root.value(), "home");
    CHECK(home.ok()) << StatusName(home.status());
    return home->segno;
  }

  // Creates + initiates a segment in the home directory, returning its segno.
  SegNo MakeSegment(const std::string& name, const SegmentAttributes& attrs,
                    uint32_t pages = 1) {
    SegNo home = HomeDir(*user_);
    auto uid = kernel_->FsCreateSegment(*user_, home, name, attrs);
    CHECK(uid.ok()) << StatusName(uid.status());
    auto init = kernel_->Initiate(*user_, home, name);
    CHECK(init.ok()) << StatusName(init.status());
    CHECK(kernel_->SegSetLength(*user_, init->segno, pages) == Status::kOk);
    return init->segno;
  }

  std::unique_ptr<Kernel> kernel_;
  Process* init_ = nullptr;
  Process* user_ = nullptr;
};

TEST_F(KernelTest, GateCensusKernelized) {
  // The kernelized kernel has no linker, naming, path, device-io, or login
  // gates.
  EXPECT_EQ(kernel_->gates().CountByCategory(GateCategory::kLinker), 0u);
  EXPECT_EQ(kernel_->gates().CountByCategory(GateCategory::kNaming), 0u);
  EXPECT_EQ(kernel_->gates().CountByCategory(GateCategory::kPathAddressing), 0u);
  EXPECT_EQ(kernel_->gates().CountByCategory(GateCategory::kDeviceIo), 0u);
  EXPECT_GT(kernel_->gates().CountByCategory(GateCategory::kFileSystem), 10u);
}

TEST_F(KernelTest, RemovedGatesAnswerNotAGate) {
  EXPECT_EQ(kernel_->InitiatePath(*user_, ">anything").status(), Status::kNotAGate);
  EXPECT_EQ(kernel_->NameBind(*user_, "x", 100), Status::kNotAGate);
  EXPECT_EQ(kernel_->LinkSnapAll(*user_, 100).status(), Status::kNotAGate);
  EXPECT_EQ(kernel_->TtyRead(*user_, 0).status(), Status::kNotAGate);
  EXPECT_EQ(kernel_->LoginLegacy(*user_, "Jones", "Faculty", "pw", {}).status(),
            Status::kNotAGate);
}

TEST_F(KernelTest, CreateInitiateReadWrite) {
  SegNo segno = MakeSegment("data", RwForAll(), 2);
  ASSERT_EQ(kernel_->RunAs(*user_), Status::kOk);
  ASSERT_EQ(kernel_->cpu().Write(segno, 100, 4242), Status::kOk);
  auto word = kernel_->cpu().Read(segno, 100);
  ASSERT_TRUE(word.ok());
  EXPECT_EQ(word.value(), 4242u);
  // Cross-page too (exercises a second page fault).
  ASSERT_EQ(kernel_->cpu().Write(segno, kPageWords + 7, 17), Status::kOk);
  EXPECT_EQ(kernel_->cpu().Read(segno, kPageWords + 7).value(), 17u);
}

TEST_F(KernelTest, InitiateIsIdempotent) {
  SegNo segno = MakeSegment("data", RwForAll());
  auto again = kernel_->Initiate(*user_, HomeDir(*user_), "data");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->segno, segno);
}

TEST_F(KernelTest, TerminateRemovesAccess) {
  SegNo segno = MakeSegment("data", RwForAll());
  ASSERT_EQ(kernel_->RunAs(*user_), Status::kOk);
  ASSERT_EQ(kernel_->cpu().Write(segno, 0, 1), Status::kOk);
  ASSERT_EQ(kernel_->Terminate(*user_, segno), Status::kOk);
  EXPECT_EQ(kernel_->cpu().Read(segno, 0).status(), Status::kNoSuchSegment);
}

TEST_F(KernelTest, AclDenialIsEnforcedAndAudited) {
  SegmentAttributes attrs;
  attrs.acl.Set(AclEntry{"Smith", "Faculty", "*", kModeRead | kModeWrite});
  attrs.acl.Set(AclEntry{"*", "*", "*", kModeNull});
  SegNo home = HomeDir(*user_);
  // Created by Smith (another secret-cleared user), readable only by Smith.
  auto smith = kernel_->BootstrapProcess("smith", Principal{"Smith", "Faculty", "a"},
                                         MlsLabel{SensitivityLevel::kSecret, {}});
  ASSERT_TRUE(smith.ok());
  auto uid = kernel_->FsCreateSegment(*smith.value(), HomeDir(*smith.value()), "private", attrs);
  ASSERT_TRUE(uid.ok());
  uint64_t denials_before = kernel_->audit().denials();
  auto init = kernel_->Initiate(*user_, home, "private");
  EXPECT_EQ(init.status(), Status::kAccessDenied);  // Jones is not Smith.
  EXPECT_GT(kernel_->audit().denials(), denials_before);
  const AuditRecord& denial = kernel_->audit().recent().back();
  EXPECT_EQ(denial.time, kernel_->machine().clock().now());
  EXPECT_EQ(kernel_->audit().spelling(denial.principal), "Jones.Faculty.a");
  EXPECT_EQ(std::string_view(denial.operation.c_str()), "initiate_seg");
  EXPECT_EQ(denial.uid, uid.value());
  EXPECT_EQ(denial.outcome, Status::kAccessDenied);
}

TEST_F(KernelTest, ClearedAuditLogSpellsEarlierPrincipals) {
  // The model checker's seeded "forgot to audit" mutation clears the log
  // mid-run; processes interned before that keep their spelling.
  kernel_->audit().Clear();
  EXPECT_EQ(kernel_->LinkSnapAll(*user_, 100).status(), Status::kNotAGate);
  ASSERT_EQ(kernel_->audit().recent().size(), 1u);
  const AuditRecord& refusal = kernel_->audit().recent().back();
  EXPECT_EQ(kernel_->audit().spelling(refusal.principal), "Jones.Faculty.a");
  EXPECT_EQ(kernel_->audit().Intern("Jones.Faculty.a"), user_->principal_id());
}

TEST(AuditLogTest, DenialCountsSurviveTheRecentWindow) {
  SimClock clock;
  AuditLog log(&clock);
  const PrincipalId jones = log.Intern("Jones.Faculty");
  for (int i = 0; i < 1000; ++i) {
    log.Record(jones, "initiate", 1, Status::kAccessDenied);
  }
  for (int i = 0; i < 400; ++i) {
    log.Record(jones, "read", 2, Status::kMlsReadViolation);
  }
  log.Record(jones, "call", 3, Status::kRingViolation);
  for (int i = 0; i < 30; ++i) {
    log.Record(jones, "initiate", 1, Status::kOk);
  }

  EXPECT_EQ(log.recent().size(), AuditLog::kWindow);  // The window stays bounded...
  EXPECT_EQ(log.denials_with(Status::kAccessDenied), 1000u);  // ...the counts don't.
  EXPECT_EQ(log.denials_with(Status::kMlsReadViolation), 400u);
  EXPECT_EQ(log.denials_with(Status::kRingViolation), 1u);
  EXPECT_EQ(log.denials_with(Status::kOk), 0u);
  EXPECT_EQ(log.denials(), 1401u);
  EXPECT_EQ(log.grants(), 30u);

  log.Clear();
  EXPECT_TRUE(log.recent().empty());
  EXPECT_EQ(log.denials_with(Status::kAccessDenied), 0u);
  EXPECT_EQ(log.denials_with(Status::kMlsReadViolation), 0u);
  EXPECT_EQ(log.denials_with(Status::kRingViolation), 0u);
  EXPECT_EQ(log.denials(), 0u);
  EXPECT_EQ(log.grants(), 0u);
}

// Audit operations and gate names are kept by pointer, so only a string
// literal (or another static array) may name one.
template <typename Name>
concept AuditRecordAccepts = requires(AuditLog& log, Name name) {
  log.Record(0, name, kInvalidUid, Status::kOk);
};
template <typename Name>
concept RecordCallAccepts = requires(GateTable& gates, Name name) {
  gates.RecordCallIndexed(name);
};
static_assert(AuditRecordAccepts<StaticName> && RecordCallAccepts<StaticName>);
static_assert(!AuditRecordAccepts<const char*> && !AuditRecordAccepts<std::string>);
static_assert(!RecordCallAccepts<const char*> && !RecordCallAccepts<std::string>);

TEST_F(KernelTest, ReadOnlyAclStopsWritesAtTheHardware) {
  SegNo segno = MakeSegment("readonly", RwForAll());
  ASSERT_EQ(kernel_->FsSetAcl(*user_, HomeDir(*user_), "readonly",
                              AclEntry{"*", "*", "*", kModeRead}),
            Status::kOk);
  ASSERT_EQ(kernel_->RunAs(*user_), Status::kOk);
  EXPECT_TRUE(kernel_->cpu().Read(segno, 0).ok());
  EXPECT_EQ(kernel_->cpu().Write(segno, 0, 1), Status::kAccessDenied);
}

TEST_F(KernelTest, MlsStopsReadUp) {
  // A trusted service installs a top-secret segment in the secret directory
  // (an "upgraded" branch), then the secret-cleared user tries to read it.
  SegmentAttributes ts_attrs = RwForAll();
  ts_attrs.label = MlsLabel{SensitivityLevel::kTopSecret, {}};
  ASSERT_TRUE(kernel_->FsCreateSegment(*init_, HomeDir(*init_), "ts_data", ts_attrs).ok());

  auto init = kernel_->Initiate(*user_, HomeDir(*user_), "ts_data");
  // ACL grants rw to all, but the lattice denies everything readable:
  // Jones (secret) cannot observe top-secret, so no modes remain... write-up
  // is permitted by the *-property, so initiation succeeds write-only.
  ASSERT_TRUE(init.ok());
  EXPECT_EQ(init->granted_modes & kModeRead, 0);
  EXPECT_EQ(init->granted_modes & kModeWrite, kModeWrite);
  // The user can even give it storage and write into it (write-up)...
  ASSERT_EQ(kernel_->SegSetLength(*user_, init->segno, 1), Status::kOk);
  ASSERT_EQ(kernel_->RunAs(*user_), Status::kOk);
  ASSERT_EQ(kernel_->cpu().Write(init->segno, 0, 123), Status::kOk);
  // ...but can never observe a word of it.
  EXPECT_EQ(kernel_->cpu().Read(init->segno, 0).status(), Status::kAccessDenied);
}

TEST_F(KernelTest, MlsStopsWriteDown) {
  // An unclassified segment created by a low process in the (unclassified)
  // root; the secret user may read it but never write it (downward flow).
  auto low = kernel_->BootstrapProcess("low", Principal{"Doe", "Students", "a"},
                                       MlsLabel::SystemLow());
  ASSERT_TRUE(low.ok());
  auto root = kernel_->RootDir(*low.value());
  ASSERT_TRUE(kernel_->FsCreateSegment(*low.value(), root.value(), "public", RwForAll()).ok());

  auto user_root = kernel_->RootDir(*user_);
  auto init = kernel_->Initiate(*user_, user_root.value(), "public");
  ASSERT_TRUE(init.ok());
  EXPECT_NE(init->granted_modes & kModeRead, 0);
  EXPECT_EQ(init->granted_modes & kModeWrite, 0);
}

TEST_F(KernelTest, NewSegmentsGetCreatorLabel) {
  SegNo segno = MakeSegment("labeled", RwForAll());
  (void)segno;
  auto status = kernel_->FsStatus(*user_, HomeDir(*user_), "labeled");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->label, "secret");
}

TEST_F(KernelTest, SegmentFaultReconnectsAfterDeactivation) {
  SegNo segno = MakeSegment("data", RwForAll());
  ASSERT_EQ(kernel_->RunAs(*user_), Status::kOk);
  ASSERT_EQ(kernel_->cpu().Write(segno, 5, 99), Status::kOk);

  // Force deactivation (as AST pressure would); SDW is invalidated.
  auto uid = user_->kst().UidOf(segno);
  ASSERT_TRUE(uid.ok());
  ASSERT_EQ(kernel_->store().Deactivate(uid.value()), Status::kOk);
  EXPECT_FALSE(user_->dseg().Get(segno).valid);

  // Next reference takes a segment fault and reconnects transparently.
  uint64_t faults_before = kernel_->cpu().segment_faults();
  auto word = kernel_->cpu().Read(segno, 5);
  ASSERT_TRUE(word.ok());
  EXPECT_EQ(word.value(), 99u);
  EXPECT_GT(kernel_->cpu().segment_faults(), faults_before);
}

TEST_F(KernelTest, AclChangeTakesEffectOnNextTouch) {
  SegNo segno = MakeSegment("mutable", RwForAll());
  ASSERT_EQ(kernel_->RunAs(*user_), Status::kOk);
  ASSERT_EQ(kernel_->cpu().Write(segno, 0, 1), Status::kOk);

  ASSERT_EQ(kernel_->FsSetAcl(*user_, HomeDir(*user_), "mutable",
                              AclEntry{"*", "*", "*", kModeRead}),
            Status::kOk);
  // The SDW was disconnected; the reconnect recomputes access.
  EXPECT_EQ(kernel_->cpu().Write(segno, 0, 2), Status::kAccessDenied);
  EXPECT_TRUE(kernel_->cpu().Read(segno, 0).ok());
}

// A length change reaches every holder, not just the caller: the processor
// checks an SDW's bound before its page table, so a holder whose SDW kept
// the old bound would never take the fault that refreshes it.
TEST_F(KernelTest, LengthChangeReachesEveryHolder) {
  SegNo segno = MakeSegment("shared", RwForAll());
  auto colleague = kernel_->BootstrapProcess("smith", Principal{"Smith", "Faculty", "a"},
                                             MlsLabel{SensitivityLevel::kSecret, {}});
  ASSERT_TRUE(colleague.ok());
  Process& smith = *colleague.value();
  auto shared = kernel_->Initiate(smith, HomeDir(smith), "shared");
  ASSERT_TRUE(shared.ok());
  ASSERT_EQ(kernel_->RunAs(smith), Status::kOk);
  ASSERT_TRUE(kernel_->cpu().Read(shared->segno, 0).ok());

  // The owner grows the segment and writes the new page; the colleague
  // reads it.
  ASSERT_EQ(kernel_->SegSetLength(*user_, segno, 2), Status::kOk);
  ASSERT_EQ(kernel_->RunAs(*user_), Status::kOk);
  ASSERT_EQ(kernel_->cpu().Write(segno, kPageWords, 42), Status::kOk);
  ASSERT_EQ(kernel_->RunAs(smith), Status::kOk);
  auto grown = kernel_->cpu().Read(shared->segno, kPageWords);
  ASSERT_EQ(grown.status(), Status::kOk);
  EXPECT_EQ(grown.value(), 42u);

  // Truncation takes the page away from the colleague as well.
  ASSERT_EQ(kernel_->SegSetLength(*user_, segno, 1), Status::kOk);
  ASSERT_EQ(kernel_->RunAs(smith), Status::kOk);
  EXPECT_EQ(kernel_->cpu().Read(shared->segno, kPageWords).status(), Status::kOutOfRange);
  EXPECT_TRUE(kernel_->cpu().Read(shared->segno, 0).ok());
}

TEST_F(KernelTest, KstStatusListsKnownSegments) {
  MakeSegment("a", RwForAll());
  MakeSegment("b", RwForAll());
  auto list = kernel_->KstStatus(*user_);
  ASSERT_TRUE(list.ok());
  EXPECT_GE(list->size(), 4u);  // Root + home handles + two segments.
}

TEST_F(KernelTest, QuotaEnforcedThroughGates) {
  SegNo home = HomeDir(*user_);
  SegmentAttributes dir_attrs;
  dir_attrs.acl.Set(AclEntry{"*", "*", "*", kDirStatus | kDirModify | kDirAppend});
  auto dir_uid = kernel_->FsCreateDirectory(*user_, home, "limited", dir_attrs, 2);
  ASSERT_TRUE(dir_uid.ok());
  auto dir = kernel_->Initiate(*user_, home, "limited");
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(kernel_->FsCreateSegment(*user_, dir->segno, "fat", RwForAll()).ok());
  auto seg = kernel_->Initiate(*user_, dir->segno, "fat");
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ(kernel_->SegSetLength(*user_, seg->segno, 3), Status::kQuotaExceeded);
  EXPECT_EQ(kernel_->SegSetLength(*user_, seg->segno, 2), Status::kOk);
  EXPECT_EQ(kernel_->FsGetQuota(*user_, dir->segno).value(), 2u);
}

TEST_F(KernelTest, DirectoryHandleGivesNoDataAccess) {
  auto root = kernel_->RootDir(*user_);
  ASSERT_EQ(kernel_->RunAs(*user_), Status::kOk);
  // The root handle is valid but carries no read permission and no pages.
  auto read = kernel_->cpu().Read(root.value(), 0);
  EXPECT_FALSE(read.ok());
}

TEST_F(KernelTest, ProcCreateInheritsPrincipalForUserRing) {
  auto child = kernel_->ProcCreate(
      *user_, "child", Principal{"Impostor", "Nowhere", "a"},
      MlsLabel{SensitivityLevel::kTopSecret, {}},
      std::make_unique<FnTask>([](TaskContext&) { return TaskState::kDone; }));
  ASSERT_TRUE(child.ok());
  // Ring-4 caller cannot mint a foreign principal or raise clearance.
  EXPECT_EQ(child.value()->principal(), user_->principal());
  EXPECT_TRUE(user_->clearance().Dominates(child.value()->clearance()));
}

TEST_F(KernelTest, IpcGuardSegmentControlsWakeup) {
  // Channel guarded by a segment only Jones can write.
  SegmentAttributes guard_attrs;
  guard_attrs.acl.Set(AclEntry{"Jones", "Faculty", "*", kModeRead | kModeWrite});
  guard_attrs.acl.Set(AclEntry{"*", "*", "*", kModeRead});
  SegNo guard = MakeSegment("guard", guard_attrs);
  auto channel = kernel_->IpcCreateChannel(*user_, guard);
  ASSERT_TRUE(channel.ok());

  // Jones can wake it.
  EXPECT_EQ(kernel_->IpcWakeup(*user_, channel.value(), 1), Status::kOk);

  // Smith (read-only on the guard) cannot.
  auto smith = kernel_->BootstrapProcess("smith", Principal{"Smith", "Faculty", "a"},
                                         MlsLabel{SensitivityLevel::kSecret, {}});
  ASSERT_TRUE(smith.ok());
  EXPECT_EQ(kernel_->IpcWakeup(*smith.value(), channel.value(), 2), Status::kAccessDenied);
}

TEST_F(KernelTest, MeteringReportsConfiguration) {
  auto info = kernel_->MeteringInfo(*user_);
  ASSERT_TRUE(info.ok());
  EXPECT_NE(info->find("kernelized-6180"), std::string::npos);
}

TEST_F(KernelTest, FlawCatalogSeeded) {
  EXPECT_GE(kernel_->flaws().total(), 10u);
  EXPECT_GT(kernel_->flaws().CountByClass(FlawClass::kUncheckedArgument), 0u);
}

// --- Legacy configuration ------------------------------------------------------------

class LegacyKernelTest : public KernelTest {
 protected:
  LegacyKernelTest() : KernelTest(KernelConfiguration::Legacy6180()) {}
};

TEST_F(LegacyKernelTest, GateCensusLegacyHasRemovableCategories) {
  GateTable& gates = kernel_->gates();
  EXPECT_EQ(gates.CountByCategory(GateCategory::kLinker), 8u);
  EXPECT_EQ(gates.CountByCategory(GateCategory::kNaming), 10u);
  EXPECT_EQ(gates.CountByCategory(GateCategory::kPathAddressing), 11u);
  EXPECT_EQ(gates.CountByCategory(GateCategory::kDeviceIo), 9u);
  // The paper's arithmetic: linker ~10%, linker+naming+path ~1/3.
  double linker_fraction = 8.0 / gates.count();
  EXPECT_NEAR(linker_fraction, 0.10, 0.02);
  double removed_fraction = (8.0 + 10.0 + 11.0) / gates.count();
  EXPECT_NEAR(removed_fraction, 0.33, 0.05);
}

TEST_F(LegacyKernelTest, PathInitiationWorks) {
  auto segno = kernel_->CreateSegmentPath(*user_, ">home>prog", RwForAll());
  ASSERT_TRUE(segno.ok());
  auto again = kernel_->InitiatePath(*user_, ">home>prog");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), segno.value());
  EXPECT_EQ(kernel_->PathnameOf(*user_, segno.value()).value(), ">home>prog");
  EXPECT_EQ(kernel_->TerminatePath(*user_, ">home>prog"), Status::kOk);
}

TEST_F(LegacyKernelTest, ReferenceNamesInKernel) {
  SegNo segno = MakeSegment("prog", RwForAll());
  ASSERT_EQ(kernel_->NameBind(*user_, "prog_", segno), Status::kOk);
  EXPECT_EQ(kernel_->NameLookup(*user_, "prog_").value(), segno);
  EXPECT_EQ(kernel_->NameBind(*user_, "prog_", segno), Status::kReferenceNameBound);
  auto names = kernel_->NameList(*user_);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 1u);
  EXPECT_EQ(kernel_->NameUnbind(*user_, "prog_"), Status::kOk);
  EXPECT_EQ(kernel_->NameLookup(*user_, "prog_").status(), Status::kNoSuchReferenceName);
}

TEST_F(LegacyKernelTest, SearchRulesResolveThroughKernel) {
  SegNo home = HomeDir(*user_);
  SegmentAttributes dir_attrs;
  dir_attrs.acl.Set(AclEntry{"*", "*", "*", kDirStatus | kDirModify | kDirAppend});
  ASSERT_TRUE(kernel_->FsCreateDirectory(*user_, home, "lib", dir_attrs).ok());
  auto dir = kernel_->Initiate(*user_, home, "lib");
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(kernel_->FsCreateSegment(*user_, dir->segno, "tool", RwForAll()).ok());

  ASSERT_EQ(kernel_->SetSearchRules(*user_, {">nonexistent", ">home>lib"}), Status::kOk);
  auto found = kernel_->SearchInitiate(*user_, "tool");
  ASSERT_TRUE(found.ok());
  // Second resolution hits the kernel-cached reference name.
  EXPECT_EQ(kernel_->SearchInitiate(*user_, "tool").value(), found.value());
}

TEST_F(LegacyKernelTest, LegacyLoginGateAuthenticates) {
  kernel_->RegisterUser("Jones", "Faculty", "pw123",
                        MlsLabel{SensitivityLevel::kSecret, {}});
  auto bad = kernel_->LoginLegacy(*user_, "Jones", "Faculty", "wrong", {});
  EXPECT_EQ(bad.status(), Status::kAuthenticationFailed);
  // A refused login has no process yet: it is audited as person.project.
  const AuditRecord& refusal = kernel_->audit().recent().back();
  EXPECT_EQ(kernel_->audit().spelling(refusal.principal), "Jones.Faculty");
  EXPECT_EQ(std::string_view(refusal.operation.c_str()), "login");
  EXPECT_EQ(refusal.outcome, Status::kAuthenticationFailed);
  auto too_high = kernel_->LoginLegacy(*user_, "Jones", "Faculty", "pw123",
                                       MlsLabel{SensitivityLevel::kTopSecret, {}});
  EXPECT_EQ(too_high.status(), Status::kAccessDenied);
  EXPECT_EQ(kernel_->audit().spelling(kernel_->audit().recent().back().principal),
            "Jones.Faculty");
  EXPECT_EQ(kernel_->audit().recent().back().outcome, Status::kMlsReadViolation);
  auto ok = kernel_->LoginLegacy(*user_, "Jones", "Faculty", "pw123",
                                 MlsLabel{SensitivityLevel::kSecret, {}});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value()->principal().person, "Jones");
}

TEST_F(LegacyKernelTest, DeviceGatesOperate) {
  kernel_->card_reader().LoadDeck({"first card", "second card"});
  auto card = kernel_->CardRead(*user_);
  ASSERT_TRUE(card.ok());
  EXPECT_EQ(card->size(), 80u);
  EXPECT_EQ(card->substr(0, 10), "first card");

  EXPECT_EQ(kernel_->PrinterWrite(*user_, "hello printer"), Status::kOk);
  EXPECT_EQ(kernel_->printer().lines_printed(), 1u);

  EXPECT_EQ(kernel_->TapeWrite(*user_, "record one"), Status::kOk);
  EXPECT_EQ(kernel_->TapeRewind(*user_), Status::kOk);
  EXPECT_EQ(kernel_->TapeRead(*user_).value(), "record one");

  kernel_->tty(0).TypeCharacter('h');
  kernel_->tty(0).TypeCharacter('i');
  kernel_->tty(0).TypeCharacter('\n');
  EXPECT_EQ(kernel_->TtyRead(*user_, 0).value(), "hi");
}

TEST_F(LegacyKernelTest, E3StateBloatVisible) {
  // Walking paths and binding names piles state into ring 0.
  size_t before = kernel_->KernelAddressSpaceStateBytes(*user_);
  for (int i = 0; i < 10; ++i) {
    auto segno =
        kernel_->CreateSegmentPath(*user_, ">home>seg" + std::to_string(i), RwForAll());
    ASSERT_TRUE(segno.ok());
    ASSERT_EQ(kernel_->NameBind(*user_, "refname_" + std::to_string(i), segno.value()),
              Status::kOk);
  }
  size_t after = kernel_->KernelAddressSpaceStateBytes(*user_);
  EXPECT_GT(after, before + 300);  // Names + pathname strings, in ring 0.
}

// --- 645 configuration -----------------------------------------------------------------

TEST(Legacy645Test, SoftwareRingsMakeGatesExpensive) {
  KernelParams params;
  params.config = KernelConfiguration::Legacy645();
  Kernel kernel(params);
  auto user = kernel.BootstrapProcess("u", Principal{"Jones", "Faculty", "a"}, {});
  ASSERT_TRUE(user.ok());

  Cycles before = kernel.machine().clock().now();
  ASSERT_TRUE(kernel.RootDir(*user.value()).ok());
  Cycles crossing_645 = kernel.machine().clock().now() - before;

  KernelParams params6180;
  params6180.config = KernelConfiguration::Legacy6180();
  Kernel kernel6180(params6180);
  auto user2 = kernel6180.BootstrapProcess("u", Principal{"Jones", "Faculty", "a"}, {});
  ASSERT_TRUE(user2.ok());
  Cycles before2 = kernel6180.machine().clock().now();
  ASSERT_TRUE(kernel6180.RootDir(*user2.value()).ok());
  Cycles crossing_6180 = kernel6180.machine().clock().now() - before2;

  EXPECT_GT(crossing_645, 5 * crossing_6180);
}

}  // namespace
}  // namespace multics
