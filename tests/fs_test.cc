// Tests for the file system: ACL matching, pathnames, the UID segment store
// (layer 1), the naming hierarchy (layer 2), quotas, and the KST.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/base/random.h"
#include "src/fs/acl.h"
#include "src/fs/hierarchy.h"
#include "src/fs/kst.h"
#include "src/fs/pathname.h"
#include "src/fs/segment_store.h"
#include "src/mem/page_control_parallel.h"
#include "src/mem/page_control_sequential.h"

namespace multics {
namespace {

// --- ACL ------------------------------------------------------------------------

TEST(PrincipalTest, ParseFull) {
  auto p = Principal::Parse("Jones.Faculty.a");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->person, "Jones");
  EXPECT_EQ(p->project, "Faculty");
  EXPECT_EQ(p->tag, "a");
  EXPECT_EQ(p->ToString(), "Jones.Faculty.a");
}

TEST(PrincipalTest, DefaultTag) {
  auto p = Principal::Parse("Smith.Students");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->tag, "a");
}

TEST(PrincipalTest, RejectsMalformed) {
  EXPECT_FALSE(Principal::Parse("JustOneName").ok());
  EXPECT_FALSE(Principal::Parse("").ok());
}

TEST(AclTest, ExactMatchGrants) {
  Acl acl;
  acl.Set(AclEntry{"Jones", "Faculty", "*", kModeRead | kModeWrite});
  Principal jones{"Jones", "Faculty", "a"};
  Principal smith{"Smith", "Faculty", "a"};
  EXPECT_EQ(acl.EffectiveModes(jones), kModeRead | kModeWrite);
  EXPECT_EQ(acl.EffectiveModes(smith), kModeNull);
}

TEST(AclTest, MostSpecificEntryWins) {
  Acl acl;
  acl.Set(AclEntry{"*", "Faculty", "*", kModeRead});
  acl.Set(AclEntry{"Jones", "Faculty", "*", kModeNull});  // Deny Jones explicitly.
  EXPECT_EQ(acl.EffectiveModes({"Jones", "Faculty", "a"}), kModeNull);
  EXPECT_EQ(acl.EffectiveModes({"Smith", "Faculty", "a"}), kModeRead);
}

TEST(AclTest, WildcardAll) {
  Acl acl;
  acl.Set(AclEntry{"*", "*", "*", kModeRead | kModeExecute});
  EXPECT_EQ(acl.EffectiveModes({"Anyone", "Anywhere", "z"}), kModeRead | kModeExecute);
}

TEST(AclTest, SetReplacesSameName) {
  Acl acl;
  acl.Set(AclEntry{"Jones", "Faculty", "a", kModeRead});
  acl.Set(AclEntry{"Jones", "Faculty", "a", kModeWrite});
  EXPECT_EQ(acl.size(), 1u);
  EXPECT_EQ(acl.EffectiveModes({"Jones", "Faculty", "a"}), kModeWrite);

  // Names are compared by field, not by their dotted spelling, which these
  // two share.
  Acl dotted;
  dotted.Set(AclEntry{"Jones.Faculty", "a", "*", kModeRead});
  dotted.Set(AclEntry{"Jones", "Faculty.a", "*", kModeRead | kModeWrite});
  EXPECT_EQ(dotted.size(), 2u);
  EXPECT_EQ(dotted.EffectiveModes({"Jones.Faculty", "a", "x"}), kModeRead);
  EXPECT_EQ(dotted.EffectiveModes({"Jones", "Faculty.a", "x"}), kModeRead | kModeWrite);
}

TEST(AclTest, RemoveEntry) {
  Acl acl;
  acl.Set(AclEntry{"Jones", "Faculty", "a", kModeRead});
  EXPECT_EQ(acl.Remove("Jones", "Faculty", "a"), Status::kOk);
  EXPECT_EQ(acl.Remove("Jones", "Faculty", "a"), Status::kNotFound);
  EXPECT_EQ(acl.EffectiveModes({"Jones", "Faculty", "a"}), kModeNull);

  // A name that only spells like an entry does not remove it.
  acl.Set(AclEntry{"Jones.Faculty", "a", "*", kModeRead});
  EXPECT_EQ(acl.Remove("Jones", "Faculty.a", "*"), Status::kNotFound);
  EXPECT_EQ(acl.size(), 1u);
  EXPECT_EQ(acl.EffectiveModes({"Jones.Faculty", "a", "x"}), kModeRead);
}

TEST(AclTest, ModeStrings) {
  EXPECT_EQ(SegmentModeString(kModeRead | kModeWrite), "rw-");
  EXPECT_EQ(SegmentModeString(kModeNull), "---");
  EXPECT_EQ(DirModeString(kDirStatus | kDirAppend), "s-a");
  auto modes = ParseSegmentModes("re");
  ASSERT_TRUE(modes.ok());
  EXPECT_EQ(modes.value(), kModeRead | kModeExecute);
  EXPECT_FALSE(ParseSegmentModes("rq").ok());
}

// --- Pathnames --------------------------------------------------------------------

TEST(PathTest, ParseAbsolute) {
  auto p = Path::Parse(">udd>Faculty>Jones");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->components.size(), 3u);
  EXPECT_EQ(p->ToString(), ">udd>Faculty>Jones");
  EXPECT_EQ(p->Leaf(), "Jones");
  EXPECT_EQ(p->Parent().ToString(), ">udd>Faculty");
}

TEST(PathTest, RootForms) {
  auto root = Path::Parse(">");
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root->IsRoot());
  EXPECT_EQ(root->ToString(), ">");
}

TEST(PathTest, RejectsRelativeAndBadNames) {
  EXPECT_FALSE(Path::Parse("udd>x").ok());
  EXPECT_FALSE(Path::Parse("").ok());
  EXPECT_FALSE(Path::Parse(">a>..>b").ok());
}

TEST(PathTest, ValidEntryNames) {
  EXPECT_TRUE(ValidEntryName("alpha_1"));
  EXPECT_FALSE(ValidEntryName(""));
  EXPECT_FALSE(ValidEntryName("."));
  EXPECT_FALSE(ValidEntryName("has>gt"));
  EXPECT_FALSE(ValidEntryName(std::string(40, 'x')));
}

// --- Segment store / hierarchy fixture --------------------------------------------

class FsTest : public ::testing::Test {
 protected:
  FsTest()
      : machine_(MachineConfig{.core_frames = 32}),
        core_map_(32),
        bulk_("bulk", 64, 2000, 2000, &machine_),
        disk_("disk", 4096, 20000, 20000, &machine_),
        ast_(64),
        store_(&machine_, &ast_, &disk_),
        page_control_(&machine_, &core_map_, &bulk_, &disk_, &policy_),
        hierarchy_(&store_) {
    store_.AttachPageControl(&page_control_);
    CHECK(hierarchy_.Init() == Status::kOk);
  }

  SegmentAttributes UserSeg() {
    SegmentAttributes attrs;
    attrs.acl.Set(AclEntry{"*", "*", "*", kModeRead | kModeWrite});
    attrs.author = Principal{"Jones", "Faculty", "a"};
    return attrs;
  }

  Machine machine_;
  CoreMap core_map_;
  PagingDevice bulk_;
  PagingDevice disk_;
  ActiveSegmentTable ast_;
  ClockPolicy policy_;
  SegmentStore store_;
  SequentialPageControl page_control_;
  Hierarchy hierarchy_;
};

TEST_F(FsTest, CreateAndLookupSegment) {
  auto uid = hierarchy_.CreateSegment(hierarchy_.root(), "alpha", UserSeg());
  ASSERT_TRUE(uid.ok());
  auto entry = hierarchy_.Lookup(hierarchy_.root(), "alpha");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->uid, uid.value());
  EXPECT_FALSE(entry->is_link);
  auto branch = store_.Get(uid.value());
  ASSERT_TRUE(branch.ok());
  EXPECT_FALSE(branch.value()->is_directory);
  EXPECT_EQ(branch.value()->parent, hierarchy_.root());
}

TEST_F(FsTest, DuplicateNameRejected) {
  ASSERT_TRUE(hierarchy_.CreateSegment(hierarchy_.root(), "alpha", UserSeg()).ok());
  EXPECT_EQ(hierarchy_.CreateSegment(hierarchy_.root(), "alpha", UserSeg()).status(),
            Status::kNameDuplication);
}

TEST_F(FsTest, NestedDirectoriesAndPathResolution) {
  auto udd = hierarchy_.CreateDirectory(hierarchy_.root(), "udd", UserSeg());
  ASSERT_TRUE(udd.ok());
  auto proj = hierarchy_.CreateDirectory(udd.value(), "Faculty", UserSeg());
  ASSERT_TRUE(proj.ok());
  auto seg = hierarchy_.CreateSegment(proj.value(), "notes", UserSeg());
  ASSERT_TRUE(seg.ok());

  auto path = Path::Parse(">udd>Faculty>notes");
  ASSERT_TRUE(path.ok());
  auto resolved = hierarchy_.ResolvePath(path.value());
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value(), seg.value());

  auto reverse = hierarchy_.PathOf(seg.value());
  ASSERT_TRUE(reverse.ok());
  EXPECT_EQ(reverse->ToString(), ">udd>Faculty>notes");
}

TEST_F(FsTest, ResolveRootAndMissing) {
  auto root = hierarchy_.ResolvePath(Path{});
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value(), hierarchy_.root());
  auto missing = Path::Parse(">nothing>here");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(hierarchy_.ResolvePath(missing.value()).status(), Status::kNotFound);
}

TEST_F(FsTest, LinksResolveTransitively) {
  auto dir = hierarchy_.CreateDirectory(hierarchy_.root(), "real", UserSeg());
  ASSERT_TRUE(dir.ok());
  auto seg = hierarchy_.CreateSegment(dir.value(), "target", UserSeg());
  ASSERT_TRUE(seg.ok());
  ASSERT_EQ(hierarchy_.CreateLink(hierarchy_.root(), "shortcut", ">real>target"), Status::kOk);
  ASSERT_EQ(hierarchy_.CreateLink(hierarchy_.root(), "alias_dir", ">real"), Status::kOk);

  auto direct = hierarchy_.ResolvePath(Path::Parse(">shortcut").value());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct.value(), seg.value());

  // A link to a directory with components after it.
  auto through = hierarchy_.ResolvePath(Path::Parse(">alias_dir>target").value());
  ASSERT_TRUE(through.ok());
  EXPECT_EQ(through.value(), seg.value());
}

TEST_F(FsTest, LinkLoopsTerminate) {
  ASSERT_EQ(hierarchy_.CreateLink(hierarchy_.root(), "a", ">b"), Status::kOk);
  ASSERT_EQ(hierarchy_.CreateLink(hierarchy_.root(), "b", ">a"), Status::kOk);
  EXPECT_EQ(hierarchy_.ResolvePath(Path::Parse(">a").value()).status(), Status::kLinkageFault);
}

TEST_F(FsTest, AddNameAndRename) {
  auto uid = hierarchy_.CreateSegment(hierarchy_.root(), "alpha", UserSeg());
  ASSERT_TRUE(uid.ok());
  ASSERT_EQ(hierarchy_.AddName(hierarchy_.root(), "alpha", "alef"), Status::kOk);
  auto by_alias = hierarchy_.Lookup(hierarchy_.root(), "alef");
  ASSERT_TRUE(by_alias.ok());
  EXPECT_EQ(by_alias->uid, uid.value());

  // Deleting one of two names keeps the segment.
  ASSERT_EQ(hierarchy_.DeleteEntry(hierarchy_.root(), "alpha"), Status::kOk);
  EXPECT_TRUE(store_.Exists(uid.value()));
  ASSERT_EQ(hierarchy_.Rename(hierarchy_.root(), "alef", "aleph"), Status::kOk);
  EXPECT_TRUE(hierarchy_.Lookup(hierarchy_.root(), "aleph").ok());
  // Deleting the last name deletes the segment.
  ASSERT_EQ(hierarchy_.DeleteEntry(hierarchy_.root(), "aleph"), Status::kOk);
  EXPECT_FALSE(store_.Exists(uid.value()));
}

TEST_F(FsTest, DeleteDirectoryRequiresEmpty) {
  auto dir = hierarchy_.CreateDirectory(hierarchy_.root(), "d", UserSeg());
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(hierarchy_.CreateSegment(dir.value(), "inner", UserSeg()).ok());
  EXPECT_EQ(hierarchy_.DeleteEntry(hierarchy_.root(), "d"), Status::kDirectoryNotEmpty);
  ASSERT_EQ(hierarchy_.DeleteEntry(dir.value(), "inner"), Status::kOk);
  EXPECT_EQ(hierarchy_.DeleteEntry(hierarchy_.root(), "d"), Status::kOk);
  EXPECT_FALSE(store_.Exists(dir.value()));
}

TEST_F(FsTest, ActivationLifecycle) {
  auto uid = hierarchy_.CreateSegment(hierarchy_.root(), "alpha", UserSeg());
  ASSERT_TRUE(uid.ok());
  ASSERT_EQ(store_.SetLength(uid.value(), 3), Status::kOk);

  auto seg = store_.Activate(uid.value());
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ(seg.value()->pages, 3u);

  // Write through page control, then release and force deactivation.
  ASSERT_EQ(page_control_.EnsureResident(seg.value(), 1, AccessMode::kWrite), Status::kOk);
  machine_.core().WriteWord(seg.value()->page_table.entries[1].frame, 4, 777);
  seg.value()->page_table.entries[1].modified = true;

  ASSERT_EQ(store_.DeactivateAll(), Status::kOk);
  EXPECT_EQ(ast_.Find(uid.value()), nullptr);

  // Reactivate: the word must come back from disk.
  auto again = store_.Activate(uid.value());
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(page_control_.EnsureResident(again.value(), 1, AccessMode::kRead), Status::kOk);
  EXPECT_EQ(machine_.core().ReadWord(again.value()->page_table.entries[1].frame, 4), 777u);
}

TEST_F(FsTest, InitiationRefCounting) {
  auto uid = hierarchy_.CreateSegment(hierarchy_.root(), "alpha", UserSeg());
  ASSERT_TRUE(uid.ok());
  store_.AddRef(uid.value());
  store_.AddRef(uid.value());  // Second process initiates.
  EXPECT_EQ(store_.RefCount(uid.value()), 2u);
  EXPECT_EQ(store_.DropRef(uid.value()), Status::kOk);
  EXPECT_EQ(store_.DropRef(uid.value()), Status::kOk);
  EXPECT_EQ(store_.DropRef(uid.value()), Status::kFailedPrecondition);
}

TEST_F(FsTest, DeactivationHookFiresBeforeTeardown) {
  auto uid = hierarchy_.CreateSegment(hierarchy_.root(), "alpha", UserSeg());
  ASSERT_TRUE(uid.ok());
  std::vector<Uid> hooked;
  store_.SetDeactivateHook([&](Uid u) {
    hooked.push_back(u);
    EXPECT_NE(ast_.Find(u), nullptr);  // Page table still alive during hook.
  });
  ASSERT_TRUE(store_.Activate(uid.value()).ok());
  ASSERT_EQ(store_.Deactivate(uid.value()), Status::kOk);
  EXPECT_EQ(hooked, (std::vector<Uid>{uid.value()}));
  store_.SetDeactivateHook(nullptr);
}

TEST_F(FsTest, AstEvictionMakesRoom) {
  // Fill the AST (capacity 64) with zero-ref segments, then activate one more.
  std::vector<Uid> uids;
  for (int i = 0; i < 64; ++i) {
    auto uid = hierarchy_.CreateSegment(hierarchy_.root(), "seg" + std::to_string(i), UserSeg());
    ASSERT_TRUE(uid.ok());
    ASSERT_TRUE(store_.Activate(uid.value()).ok());
    uids.push_back(uid.value());
  }
  EXPECT_EQ(store_.active_count(), 64u);
  auto extra = hierarchy_.CreateSegment(hierarchy_.root(), "extra", UserSeg());
  ASSERT_TRUE(extra.ok());
  EXPECT_TRUE(store_.Activate(extra.value()).ok());
  EXPECT_EQ(store_.active_count(), 64u);  // One victim was deactivated.
}

// --- AST victim selection: differential check against the full scan ----------

// The eviction rule as a full scan over the AST in its iteration order: the
// first unwired segment nobody has initiated, else the first unwired one.
Uid ReferenceVictim(SegmentStore& store) {
  Uid zero_ref_victim = kInvalidUid;
  Uid any_victim = kInvalidUid;
  store.ast()->ForEach([&](ActiveSegment* seg) {
    if (seg->wired) {
      return;
    }
    if (any_victim == kInvalidUid) {
      any_victim = seg->uid;
    }
    if (zero_ref_victim == kInvalidUid && store.RefCount(seg->uid) == 0) {
      zero_ref_victim = seg->uid;
    }
  });
  return zero_ref_victim != kInvalidUid ? zero_ref_victim : any_victim;
}

TEST(AstVictimTest, EvictionMatchesFullScanReference) {
  Machine machine(MachineConfig{.core_frames = 16});
  CoreMap core_map(16);
  PagingDevice bulk("bulk", 64, 2000, 2000, &machine);
  PagingDevice disk("disk", 4096, 20000, 20000, &machine);
  ActiveSegmentTable ast(8);
  ClockPolicy policy;
  SegmentStore store(&machine, &ast, &disk);
  SequentialPageControl page_control(&machine, &core_map, &bulk, &disk, &policy);
  store.AttachPageControl(&page_control);
  std::vector<Uid> deactivated;
  store.SetDeactivateHook([&](Uid uid) { deactivated.push_back(uid); });

  Rng rng(1975);
  std::vector<Uid> live;
  auto create = [&] {
    auto uid = store.Create(SegmentAttributes{}, /*is_directory=*/false, kInvalidUid);
    ASSERT_TRUE(uid.ok());
    ASSERT_EQ(store.SetLength(uid.value(), static_cast<uint32_t>(rng.NextBelow(3))),
              Status::kOk);
    live.push_back(uid.value());
  };
  for (int i = 0; i < 24; ++i) {
    create();
  }

  // Activates `uid`; when that needs an eviction, the segment deactivated
  // must be exactly the reference scan's pick (or none, if it finds none).
  uint64_t evictions = 0;
  uint64_t evictions_of_initiated = 0;
  uint64_t refusals = 0;
  auto activate = [&](Uid uid, bool wired) {
    const bool evicts = ast.Find(uid) == nullptr && ast.size() == ast.capacity();
    const Uid expected = evicts ? ReferenceVictim(store) : kInvalidUid;
    deactivated.clear();
    auto seg = store.Activate(uid, wired);
    if (!evicts) {
      ASSERT_TRUE(seg.ok());
      EXPECT_TRUE(deactivated.empty());
    } else if (expected == kInvalidUid) {
      EXPECT_EQ(seg.status(), Status::kResourceExhausted);
      EXPECT_TRUE(deactivated.empty());
      ++refusals;
    } else {
      ASSERT_TRUE(seg.ok());
      ASSERT_EQ(deactivated, std::vector<Uid>{expected});
      ++evictions;
      if (store.RefCount(expected) > 0) {
        ++evictions_of_initiated;
      }
    }
    if (seg.ok() && seg.value()->pages > 0) {
      // Dirty a page so the victim's flush has something to write home.
      ASSERT_EQ(page_control.EnsureResident(seg.value(), 0, AccessMode::kWrite), Status::kOk);
      machine.core().WriteWord(seg.value()->page_table.entries[0].frame, 1, uid);
    }
  };

  for (int step = 0; step < 6000; ++step) {
    const Uid uid = live[rng.NextBelow(live.size())];
    switch (rng.NextBelow(8)) {
      case 0:
      case 1:
      case 2:
        activate(uid, /*wired=*/rng.NextBelow(10) == 0);
        break;
      case 3:
      case 4:
        store.AddRef(uid);
        break;
      case 5:
        (void)store.DropRef(uid);
        break;
      case 6:
        if (ast.Find(uid) != nullptr) {
          ASSERT_EQ(store.Deactivate(uid), Status::kOk);
        }
        break;
      case 7:
        if (store.RefCount(uid) == 0) {
          ASSERT_EQ(store.Delete(uid), Status::kOk);
          std::erase(live, uid);
          create();
        }
        break;
    }
  }
  // Both halves of the rule ran, and so did the refusal.
  for (Uid uid : live) {
    if (ast.Find(uid) != nullptr) {
      ASSERT_EQ(store.Deactivate(uid), Status::kOk);
    }
  }
  for (size_t i = 0; i < ast.capacity(); ++i) {
    activate(live[i], /*wired=*/true);
  }
  activate(live[ast.capacity()], /*wired=*/false);
  EXPECT_GT(evictions, 500u);
  EXPECT_GT(evictions_of_initiated, 0u);
  EXPECT_GT(evictions - evictions_of_initiated, 0u);
  EXPECT_GT(refusals, 0u);
  EXPECT_EQ(store.ast_evictions(), evictions);
  store.SetDeactivateHook(nullptr);
}

TEST_F(FsTest, DeleteWhileInitiatedRefused) {
  auto uid = hierarchy_.CreateSegment(hierarchy_.root(), "alpha", UserSeg());
  ASSERT_TRUE(uid.ok());
  store_.AddRef(uid.value());
  EXPECT_EQ(hierarchy_.DeleteEntry(hierarchy_.root(), "alpha"), Status::kFailedPrecondition);
  ASSERT_EQ(store_.DropRef(uid.value()), Status::kOk);
  EXPECT_EQ(hierarchy_.DeleteEntry(hierarchy_.root(), "alpha"), Status::kOk);
}

TEST_F(FsTest, QuotaEnforcedAtNearestAncestor) {
  auto dir = hierarchy_.CreateDirectory(hierarchy_.root(), "limited", UserSeg(),
                                        /*quota_pages=*/4);
  ASSERT_TRUE(dir.ok());
  auto a = hierarchy_.CreateSegment(dir.value(), "a", UserSeg());
  auto b = hierarchy_.CreateSegment(dir.value(), "b", UserSeg());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(store_.SetLength(a.value(), 3), Status::kOk);
  EXPECT_EQ(store_.SetLength(b.value(), 2), Status::kQuotaExceeded);
  EXPECT_EQ(store_.SetLength(b.value(), 1), Status::kOk);
  // Shrinking refunds.
  EXPECT_EQ(store_.SetLength(a.value(), 1), Status::kOk);
  EXPECT_EQ(store_.SetLength(b.value(), 3), Status::kOk);
}

TEST_F(FsTest, QuotaInheritedThroughSubdirectories) {
  auto top = hierarchy_.CreateDirectory(hierarchy_.root(), "top", UserSeg(), 5);
  ASSERT_TRUE(top.ok());
  auto sub = hierarchy_.CreateDirectory(top.value(), "sub", UserSeg());  // No own quota.
  ASSERT_TRUE(sub.ok());
  auto seg = hierarchy_.CreateSegment(sub.value(), "s", UserSeg());
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ(store_.SetLength(seg.value(), 6), Status::kQuotaExceeded);
  EXPECT_EQ(store_.SetLength(seg.value(), 5), Status::kOk);
}

TEST_F(FsTest, MaxLengthEnforced) {
  auto uid = hierarchy_.CreateSegment(hierarchy_.root(), "alpha", UserSeg());
  ASSERT_TRUE(uid.ok());
  EXPECT_EQ(store_.SetLength(uid.value(), kMaxSegmentPages + 1), Status::kSegmentTooLong);
}

TEST_F(FsTest, GrowWhileActiveResizesPageTable) {
  auto uid = hierarchy_.CreateSegment(hierarchy_.root(), "alpha", UserSeg());
  ASSERT_TRUE(uid.ok());
  ASSERT_EQ(store_.SetLength(uid.value(), 1), Status::kOk);
  auto seg = store_.Activate(uid.value());
  ASSERT_TRUE(seg.ok());
  ASSERT_EQ(store_.SetLength(uid.value(), 4), Status::kOk);
  EXPECT_EQ(seg.value()->pages, 4u);
  EXPECT_EQ(seg.value()->page_table.size(), 4u);
  EXPECT_EQ(page_control_.EnsureResident(seg.value(), 3, AccessMode::kWrite), Status::kOk);
}

// --- Delete and truncate discard, under both page-control designs ---------------
//
// Nobody can read a deleted or truncated page again, so page control
// releases it wherever it lives and writes nothing. Core (8 frames) and the
// bulk store (8 slots) are small enough that an active segment of 24 pages
// spreads over core, bulk and disk.

class StoreDiscardTest : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr uint32_t kPages = 24;

  StoreDiscardTest()
      : machine_(MachineConfig{.core_frames = 8}),
        core_map_(8),
        bulk_("bulk", 8, 2000, 2000, &machine_),
        disk_("disk", 512, 20000, 20000, &machine_),
        ast_(8),
        store_(&machine_, &ast_, &disk_) {
    if (GetParam()) {
      // Daemon thresholds that leave pages on the bulk store once idle.
      page_control_ = std::make_unique<ParallelPageControl>(
          &machine_, &core_map_, &bulk_, &disk_, &policy_,
          ParallelPageControlConfig{.core_low_water = 2,
                                    .core_high_water = 4,
                                    .bulk_low_water = 2,
                                    .bulk_high_water = 4});
    } else {
      page_control_ =
          std::make_unique<SequentialPageControl>(&machine_, &core_map_, &bulk_, &disk_, &policy_);
    }
    store_.AttachPageControl(page_control_.get());
  }

  ActiveSegment* NewActive() {
    auto uid = store_.Create(SegmentAttributes{}, /*is_directory=*/false, kInvalidUid);
    CHECK(uid.ok());
    CHECK(store_.SetLength(uid.value(), kPages) == Status::kOk);
    auto seg = store_.Activate(uid.value());
    CHECK(seg.ok());
    return seg.value();
  }

  void Write(ActiveSegment* seg, PageNo page, uint32_t offset, Word value) {
    ASSERT_EQ(page_control_->EnsureResident(seg, page, AccessMode::kWrite), Status::kOk);
    PageTableEntry& pte = seg->page_table.entries[page];
    machine_.core().WriteWord(pte.frame, offset, value);
    pte.used = true;
    pte.modified = true;
    machine_.events().RunUntil(machine_.clock().now());  // Let daemons breathe.
  }

  Word Read(ActiveSegment* seg, PageNo page, uint32_t offset) {
    CHECK(page_control_->EnsureResident(seg, page, AccessMode::kRead) == Status::kOk);
    PageTableEntry& pte = seg->page_table.entries[page];
    pte.used = true;
    return machine_.core().ReadWord(pte.frame, offset);
  }

  // Writes every page, then lets the daemons settle.
  void Fill(ActiveSegment* seg, Word base) {
    for (PageNo p = 0; p < seg->pages; ++p) {
      Write(seg, p, 5, base + p);
      Write(seg, p, kPageWords - 1, base + p);
    }
    machine_.events().RunUntilIdle();
  }

  static uint32_t CountAt(const ActiveSegment* seg, PageLevel level) {
    uint32_t count = 0;
    for (PageNo p = 0; p < seg->pages; ++p) {
      count += seg->location[p].level == level ? 1 : 0;
    }
    return count;
  }

  // The disk records the segment holds: on-disk pages and core pages' homes.
  static uint32_t DiskRecords(const ActiveSegment* seg, PageNo end) {
    uint32_t count = 0;
    for (PageNo p = 0; p < end; ++p) {
      const PageLoc& loc = seg->location[p];
      if (loc.level == PageLevel::kDisk ||
          (loc.level == PageLevel::kCore && loc.addr != kInvalidDevAddr)) {
        ++count;
      }
    }
    return count;
  }

  uint64_t DeviceWrites() const { return bulk_.writes() + disk_.writes(); }

  Machine machine_;
  CoreMap core_map_;
  PagingDevice bulk_;
  PagingDevice disk_;
  ActiveSegmentTable ast_;
  ClockPolicy policy_;
  SegmentStore store_;
  std::unique_ptr<PageControl> page_control_;
};

TEST_P(StoreDiscardTest, DeleteOfActiveSegmentWritesNothingAndFreesEverything) {
  const uint32_t bulk_before = bulk_.used_pages();
  const uint32_t disk_before = disk_.used_pages();
  ActiveSegment* seg = NewActive();
  const Uid uid = seg->uid;
  Fill(seg, 100);
  // Fetch a page back from disk: in core, it keeps its record as its home.
  PageNo on_disk = 0;
  while (on_disk < kPages && seg->location[on_disk].level != PageLevel::kDisk) {
    ++on_disk;
  }
  ASSERT_LT(on_disk, kPages);
  EXPECT_EQ(Read(seg, on_disk, 5), 100 + on_disk);
  EXPECT_EQ(seg->location[on_disk].level, PageLevel::kCore);
  EXPECT_NE(seg->location[on_disk].addr, kInvalidDevAddr);
  ASSERT_GT(CountAt(seg, PageLevel::kCore), 0u);
  ASSERT_GT(CountAt(seg, PageLevel::kBulk), 0u);
  ASSERT_GT(CountAt(seg, PageLevel::kDisk), 0u);

  const uint64_t writes = DeviceWrites();
  ASSERT_EQ(store_.Delete(uid), Status::kOk);
  machine_.events().RunUntilIdle();
  EXPECT_EQ(DeviceWrites(), writes);
  EXPECT_EQ(ast_.Find(uid), nullptr);
  EXPECT_EQ(core_map_.free_count(), core_map_.frame_count());
  EXPECT_EQ(bulk_.used_pages(), bulk_before);
  EXPECT_EQ(disk_.used_pages(), disk_before);
}

TEST_P(StoreDiscardTest, TruncateWritesNothingAndKeepsTheHead) {
  constexpr PageNo kCut = 4;
  ActiveSegment* seg = NewActive();
  Fill(seg, 400);
  for (PageNo p = 0; p < kCut; ++p) {
    ASSERT_EQ(Read(seg, p, 5), 400 + p);  // The head back in core.
  }
  machine_.events().RunUntilIdle();
  const std::vector<PageLoc> head(seg->location.begin(), seg->location.begin() + kCut);
  uint32_t head_in_core = 0;
  uint32_t head_on_bulk = 0;
  for (PageNo p = 0; p < kCut; ++p) {
    head_in_core += seg->page_table.entries[p].present ? 1 : 0;
    head_on_bulk += head[p].level == PageLevel::kBulk ? 1 : 0;
  }
  ASSERT_GT(head_in_core, 0u);
  const uint32_t head_records = DiskRecords(seg, kCut);

  const uint64_t writes = DeviceWrites();
  ASSERT_EQ(store_.SetLength(seg->uid, kCut), Status::kOk);
  EXPECT_EQ(DeviceWrites(), writes);
  ASSERT_EQ(seg->pages, kCut);
  for (PageNo p = 0; p < kCut; ++p) {
    EXPECT_EQ(seg->location[p].level, head[p].level) << p;
    EXPECT_EQ(seg->location[p].addr, head[p].addr) << p;
    EXPECT_EQ(seg->page_table.entries[p].present, head[p].level == PageLevel::kCore) << p;
  }
  EXPECT_EQ(core_map_.free_count(), core_map_.frame_count() - head_in_core);
  EXPECT_EQ(bulk_.used_pages(), head_on_bulk);
  EXPECT_EQ(disk_.used_pages(), head_records);

  // The tail grows back as zero pages; the head kept its words.
  ASSERT_EQ(store_.SetLength(seg->uid, kPages), Status::kOk);
  for (PageNo p = kCut; p < kPages; ++p) {
    EXPECT_EQ(Read(seg, p, 5), 0u) << p;
    EXPECT_EQ(Read(seg, p, kPageWords - 1), 0u) << p;
  }
  for (PageNo p = 0; p < kCut; ++p) {
    EXPECT_EQ(Read(seg, p, 5), 400 + p) << p;
  }
}

// Object reuse: a segment created after a delete, and handed the frames,
// bulk slots and disk records the deleted one held, reads only zeros.
TEST_P(StoreDiscardTest, SegmentCreatedAfterDeleteReadsZeros) {
  ActiveSegment* old = NewActive();
  Fill(old, 0xdead0000);
  std::vector<DevAddr> old_records;
  for (const PageLoc& loc : old->location) {
    if (loc.level == PageLevel::kDisk) {
      old_records.push_back(loc.addr);
    }
  }
  ASSERT_FALSE(old_records.empty());
  ASSERT_EQ(store_.Delete(old->uid), Status::kOk);

  ActiveSegment* fresh = NewActive();
  for (PageNo p = 0; p < kPages; ++p) {
    Write(fresh, p, 0, 1);  // A different word: the rest of the page must stay zero.
  }
  machine_.events().RunUntilIdle();
  ASSERT_EQ(page_control_->FlushSegment(fresh), Status::kOk);
  uint32_t reused = 0;
  for (const PageLoc& loc : fresh->location) {
    reused += std::count(old_records.begin(), old_records.end(), loc.addr) > 0 ? 1 : 0;
  }
  EXPECT_GT(reused, 0u);
  for (PageNo p = 0; p < kPages; ++p) {
    EXPECT_EQ(Read(fresh, p, 0), 1u) << p;
    EXPECT_EQ(Read(fresh, p, 5), 0u) << p;
    EXPECT_EQ(Read(fresh, p, kPageWords - 1), 0u) << p;
  }
}

INSTANTIATE_TEST_SUITE_P(BothDesigns, StoreDiscardTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& design) {
                           return design.param ? "Parallel" : "Sequential";
                         });

// --- KST -----------------------------------------------------------------------

TEST(KstTest, AssignIsIdempotentWithUsageCounts) {
  KnownSegmentTable kst(64, 100);
  auto a = kst.Assign(500);
  auto b = kst.Assign(500);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value(), b.value());
  EXPECT_GE(a.value(), 64u);
  EXPECT_EQ(kst.size(), 1u);
  EXPECT_EQ(kst.UsageCount(a.value()), 2u);
  // One release leaves the entry alive for the other holder.
  auto first = kst.Release(a.value());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 1u);
  EXPECT_TRUE(kst.UidOf(a.value()).ok());
  auto second = kst.Release(a.value());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), 0u);
  EXPECT_FALSE(kst.UidOf(a.value()).ok());
}

TEST(KstTest, ForceReleaseIgnoresUsage) {
  KnownSegmentTable kst(64, 100);
  auto a = kst.Assign(500);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(kst.Assign(500).ok());
  ASSERT_EQ(kst.ForceRelease(a.value()), Status::kOk);
  EXPECT_FALSE(kst.UidOf(a.value()).ok());
}

TEST(KstTest, BidirectionalLookup) {
  KnownSegmentTable kst;
  auto segno = kst.Assign(42);
  ASSERT_TRUE(segno.ok());
  EXPECT_EQ(kst.UidOf(segno.value()).value(), 42u);
  EXPECT_EQ(kst.SegNoOf(42).value(), segno.value());
  EXPECT_EQ(kst.UidOf(9999).status(), Status::kSegmentNotKnown);
}

TEST(KstTest, ReleaseRecyclesNumbers) {
  KnownSegmentTable kst(64, 65);  // Only two numbers available.
  auto a = kst.Assign(1);
  auto b = kst.Assign(2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(kst.Assign(3).status(), Status::kNoFreeSegmentNumbers);
  ASSERT_TRUE(kst.Release(a.value()).ok());
  auto c = kst.Assign(3);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value(), a.value());
}

TEST(KstTest, InvalidUidRejected) {
  KnownSegmentTable kst;
  EXPECT_EQ(kst.Assign(kInvalidUid).status(), Status::kInvalidArgument);
}

// ForEach drives process teardown and the kst_status gate's answer, so its
// order must not depend on the table's layout: it is segment-number order,
// whatever order the numbers were handed out and given back in.
TEST(KstTest, ForEachVisitsLiveEntriesInSegnoOrder) {
  KnownSegmentTable kst(64, 69);
  for (Uid uid = 1; uid <= 6; ++uid) {
    ASSERT_TRUE(kst.Assign(uid).ok());  // 64..69, cursor wraps to 64.
  }
  ASSERT_TRUE(kst.Release(67).ok());
  ASSERT_TRUE(kst.Release(65).ok());
  EXPECT_EQ(kst.Assign(7).value(), 65u);  // The cursor finds 65 first.
  EXPECT_EQ(kst.Assign(8).value(), 67u);
  ASSERT_EQ(kst.ForceRelease(64), Status::kOk);
  ASSERT_TRUE(kst.Release(68).ok());

  std::vector<std::pair<SegNo, Uid>> seen;
  kst.ForEach([&](SegNo segno, Uid uid) { seen.emplace_back(segno, uid); });
  EXPECT_EQ(seen, (std::vector<std::pair<SegNo, Uid>>{{65, 7}, {66, 3}, {67, 8}, {69, 6}}));
  EXPECT_EQ(kst.size(), 4u);
}

TEST(KstTest, ReusedNumberStartsWithNoTrailer) {
  KnownSegmentTable kst(64, 64);  // One number, so the next assign reuses it.
  ASSERT_EQ(kst.Assign(1).value(), 64u);
  kst.set_trailer(64, 5);
  EXPECT_EQ(kst.trailer(64), 5u);
  ASSERT_EQ(kst.Release(64).value(), 0u);
  EXPECT_EQ(kst.trailer(64), KnownSegmentTable::kNoTrailer);
  ASSERT_EQ(kst.Assign(2).value(), 64u);
  EXPECT_EQ(kst.trailer(64), KnownSegmentTable::kNoTrailer);
  EXPECT_EQ(kst.UidOf(64).value(), 2u);
  EXPECT_EQ(kst.UsageCount(64), 1u);
}

}  // namespace
}  // namespace multics
