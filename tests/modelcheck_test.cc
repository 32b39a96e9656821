// Kill-tests for the bounded model checker (src/modelcheck/checker.h).
//
// Two obligations from docs/AUDIT.md's "sampled vs exhaustive" column:
//   1. the real kernel is *clean*: the Fast configuration explores to its
//      fixed point with deterministic state/transition counts and zero
//      violations, and the differential fuzzer agrees;
//   2. the checker *kills*: every seeded monitor bug (Mutation) produces a
//      counterexample that names the violated invariant and the gate
//      sequence that reaches it. A checker that can't catch a planted bug
//      proves nothing about the kernel it passes.

#include "src/modelcheck/checker.h"

#include <set>
#include <string>

#include "gtest/gtest.h"

namespace multics::mc {
namespace {

// Shallow variant of the ctest configuration for the per-mutation runs: the
// seeded bugs all fire within two gate calls, so depth 2 keeps the seven
// kill-tests fast while the fixed-point test below still runs Fast() whole.
McConfig Shallow(Mutation mutation = Mutation::kNone) {
  McConfig config = McConfig::Fast();
  config.max_depth = 2;
  config.mutation = mutation;
  return config;
}

std::set<std::string> Invariants(const McResult& result) {
  std::set<std::string> out;
  for (const McViolation& v : result.violations) out.insert(v.invariant);
  return out;
}

// Runs a mutation to its counterexamples and asserts the expected invariant
// is among them, with a non-empty trace naming a gate op (unless the bug is
// a boot-time configuration violation, which needs no trace).
McResult ExpectKilled(Mutation mutation, const std::string& invariant,
                      bool expect_trace = true) {
  ModelChecker checker(Shallow(mutation));
  const McResult result = checker.Explore();
  EXPECT_FALSE(result.clean())
      << MutationName(mutation) << " survived exploration";
  EXPECT_TRUE(Invariants(result).count(invariant))
      << MutationName(mutation) << " expected [" << invariant << "], got:\n"
      << result.ToString();
  for (const McViolation& v : result.violations) {
    if (v.invariant != invariant) continue;
    if (expect_trace) {
      EXPECT_FALSE(v.trace.empty()) << v.ToString();
      if (v.trace.empty()) return result;
      // Every counterexample step names a process-qualified gate op.
      EXPECT_NE(v.trace.front().find("p"), std::string::npos) << v.ToString();
      EXPECT_NE(v.trace.front().find(":"), std::string::npos) << v.ToString();
    } else {
      EXPECT_TRUE(v.trace.empty()) << v.ToString();
    }
    return result;
  }
  return result;
}

// --- The real kernel is clean ------------------------------------------------

TEST(ModelCheckTest, FastConfigurationExploresCleanToFixedPoint) {
  ModelChecker checker(McConfig::Fast());
  const McResult result = checker.Explore();
  EXPECT_TRUE(result.clean()) << result.ToString();
  EXPECT_TRUE(result.stats.fixed_point) << result.ToString();
  // The acceptance bar: deterministic counts for 2 procs x 2 segs x 2 levels.
  // A change here means the alphabet, the canonical state, or the kernel's
  // reachable protection states changed — all of which certification cares
  // about, so the numbers are pinned rather than merely compared run-to-run.
  EXPECT_EQ(result.stats.states, 1080u);
  EXPECT_EQ(result.stats.transitions, 17280u);
  EXPECT_EQ(result.stats.max_depth, 8u);
  EXPECT_EQ(result.stats.alphabet, 20u);
}

TEST(ModelCheckTest, DepthBoundedExplorationIsDeterministic) {
  const McConfig config = Shallow();
  ModelChecker first(config);
  ModelChecker second(config);
  const McResult a = first.Explore();
  const McResult b = second.Explore();
  EXPECT_TRUE(a.clean()) << a.ToString();
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.stats.states, b.stats.states);
  EXPECT_EQ(a.stats.transitions, b.stats.transitions);
  EXPECT_FALSE(a.stats.fixed_point);  // Depth 2 truncates on purpose.
}

// With seg_set_length in the alphabet, every connected descriptor must carry
// the segment's current length: the shortest way to break that is two
// holders and one length change, so depth 3 suffices.
TEST(ModelCheckTest, LengthChangesReachEveryConnectedDescriptor) {
  McConfig config = Shallow();
  config.with_seg_set_length = true;
  config.max_depth = 3;
  ModelChecker checker(config);
  const McResult result = checker.Explore();
  EXPECT_TRUE(result.clean()) << result.ToString();
}

TEST(ModelCheckTest, FuzzAgreesWithOracleOnTheRealKernel) {
  ModelChecker checker(McConfig::Fast());
  const McResult result = checker.Fuzz(/*seed=*/7, /*ops=*/600);
  EXPECT_TRUE(result.clean()) << result.ToString();
  EXPECT_EQ(result.stats.fuzz_ops, 600u);
}

// --- Every seeded monitor bug is caught --------------------------------------

TEST(ModelCheckTest, KillsWidenedSdwBrackets) {
  const McResult result =
      ExpectKilled(Mutation::kWidenSdwBrackets, "sdw-consistency");
  // The witness names the widened descriptor, not just "something differs".
  bool named = false;
  for (const McViolation& v : result.violations) {
    named = named || v.detail.find("brackets") != std::string::npos;
  }
  EXPECT_TRUE(named) << result.ToString();
}

TEST(ModelCheckTest, KillsSkippedAclRevocation) {
  const McResult result =
      ExpectKilled(Mutation::kSkipAclRevocation, "oracle-diff");
  // The counterexample is the two-step revocation sequence: initiate, then
  // the policy change that should have severed the connection.
  bool two_step = false;
  for (const McViolation& v : result.violations) {
    two_step = two_step || v.trace.size() >= 2;
  }
  EXPECT_TRUE(two_step) << result.ToString();
}

TEST(ModelCheckTest, KillsIgnoredMlsInModeDerivation) {
  const McResult result = ExpectKilled(Mutation::kIgnoreMls, "oracle-diff");
  // The ACL-only modes widen past the lattice, so the certifier's own MLS
  // pass fires alongside the differential witness.
  EXPECT_TRUE(Invariants(result).count("mls-widening")) << result.ToString();
}

TEST(ModelCheckTest, KillsMissingAuditRecordOnDenial) {
  const McResult result =
      ExpectKilled(Mutation::kMissingAudit, "audit-completeness");
  bool names_denial = false;
  for (const McViolation& v : result.violations) {
    names_denial = names_denial || v.detail.find("denial") != std::string::npos;
  }
  EXPECT_TRUE(names_denial) << result.ToString();
}

TEST(ModelCheckTest, KillsLockOrderInversion) {
  ExpectKilled(Mutation::kLockOrderInversion, "lock-order");
}

TEST(ModelCheckTest, KillsTrustedUserProcess) {
  // Only the oracle's configuration *intent* disagrees with the live ring:
  // the kernel's own passes see a self-consistent (wrongly trusted) world.
  ExpectKilled(Mutation::kTrustedUserProcess, "oracle-diff");
}

TEST(ModelCheckTest, KillsGateWithoutEntryBound) {
  // A boot-time configuration violation: caught at the initial state before
  // any gate call, so the counterexample trace is legitimately empty.
  const McResult result = ExpectKilled(
      Mutation::kGateWithoutEntries, "gate-discipline", /*expect_trace=*/false);
  bool names_bound = false;
  for (const McViolation& v : result.violations) {
    names_bound = names_bound || v.detail.find("entry bound") != std::string::npos;
  }
  EXPECT_TRUE(names_bound) << result.ToString();
}

TEST(ModelCheckTest, FuzzerAlsoKillsASeededBug) {
  McConfig config = McConfig::Fast();
  config.mutation = Mutation::kSkipAclRevocation;
  ModelChecker checker(config);
  const McResult result = checker.Fuzz(/*seed=*/3, /*ops=*/400);
  EXPECT_FALSE(result.clean());
  EXPECT_TRUE(Invariants(result).count("oracle-diff")) << result.ToString();
}

// --- Counterexample formatting -----------------------------------------------

TEST(ModelCheckTest, CounterexampleTextNamesInvariantAndSequence) {
  ModelChecker checker(Shallow(Mutation::kWidenSdwBrackets));
  const McResult result = checker.Explore();
  ASSERT_FALSE(result.violations.empty());
  const std::string text = result.violations.front().ToString();
  EXPECT_NE(text.find("[sdw-consistency]"), std::string::npos) << text;
  EXPECT_NE(text.find("trace:"), std::string::npos) << text;
  EXPECT_NE(text.find("1. "), std::string::npos) << text;
}

}  // namespace
}  // namespace multics::mc
