// Unit tests for src/base: Status/Result, RNG determinism, event queue
// ordering and cancellation, statistics.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/event_queue.h"
#include "src/base/random.h"
#include "src/base/result.h"
#include "src/base/stats.h"
#include "src/base/status.h"

namespace multics {
namespace {

TEST(StatusTest, NamesAreStable) {
  EXPECT_EQ(StatusName(Status::kOk), "OK");
  EXPECT_EQ(StatusName(Status::kAccessDenied), "ACCESS_DENIED");
  EXPECT_EQ(StatusName(Status::kRingViolation), "RING_VIOLATION");
  EXPECT_EQ(StatusName(Status::kMlsWriteViolation), "MLS_WRITE_VIOLATION");
  EXPECT_EQ(StatusName(Status::kBadObjectFormat), "BAD_OBJECT_FORMAT");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.status(), Status::kOk);
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::kNotFound;
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status(), Status::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Doubler(Result<int> in) {
  MX_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubler(21).value(), 42);
  EXPECT_EQ(Doubler(Status::kOutOfRange).status(), Status::kOutOfRange);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(11);
  uint64_t low = 0;
  constexpr int kSamples = 5000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.NextZipf(100, 1.2) < 10) {
      ++low;
    }
  }
  // The first 10 of 100 ranks should receive well over half the mass.
  EXPECT_GT(low, kSamples / 2);
}

// Pins NextZipf's draws and the generator state they leave behind, so a
// rewrite of the rejection loop cannot silently change any workload.
TEST(RngTest, ZipfDrawSequenceIsPinned) {
  struct Case {
    uint64_t n;
    double s;
    std::vector<uint64_t> draws;
  };
  const std::vector<Case> cases = {
      {64, 1.1, {13, 19, 8, 0, 0, 2, 0, 0, 0, 1, 2, 0}},
      {1, 1.1, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {4096, 1.1, {235, 10, 3, 178, 3, 0, 0, 343, 215, 6, 19, 0}},
      {100, 1.2, {1, 1, 3, 0, 10, 80, 0, 1, 32, 1, 81, 4}},
  };
  Rng rng(20261017);
  for (const Case& c : cases) {
    std::vector<uint64_t> got;
    for (size_t i = 0; i < c.draws.size(); ++i) {
      got.push_back(rng.NextZipf(c.n, c.s));
    }
    EXPECT_EQ(got, c.draws) << "n=" << c.n << " s=" << c.s;
  }
  EXPECT_EQ(rng.Next(), 0xdeafe39faf604f33ull);
}

TEST(RngTest, BoolProbabilityEdges) {
  Rng rng(3);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(EventQueueTest, DispatchesInTimeOrder) {
  SimClock clock;
  EventQueue q(&clock);
  std::vector<int> order;
  q.ScheduleAfter(30, [&] { order.push_back(3); });
  q.ScheduleAfter(10, [&] { order.push_back(1); });
  q.ScheduleAfter(20, [&] { order.push_back(2); });
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.now(), 30u);
}

TEST(EventQueueTest, SameTimeIsFifo) {
  SimClock clock;
  EventQueue q(&clock);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAfter(10, [&order, i] { order.push_back(i); });
  }
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// The slab grows with the peak pending population, never with the number
// of events served: a dispatched event's slot goes back on the freelist
// before the next schedule, so a storm of 100k schedule-then-dispatch
// cycles stays in one block, and a second wave of 100k pending events
// reuses the nodes the first wave left behind.
TEST(EventQueueTest, SlabFollowsPendingEventsNotEventsServed) {
  SimClock clock;
  EventQueue q(&clock);
  int ran = 0;

  for (int i = 0; i < 100000; ++i) {
    q.ScheduleAfter(10, [&] { ++ran; });
    ASSERT_TRUE(q.RunOne());
  }
  EXPECT_EQ(ran, 100000);
  EXPECT_TRUE(q.empty());
  EXPECT_LE(q.slab_slots(), 64u);  // One block, recycled 100k times.

  for (int i = 0; i < 100000; ++i) {
    q.ScheduleAfter(10 + i, [&] { ++ran; });
  }
  EXPECT_EQ(q.pending(), 100000u);
  const size_t peak_slab = q.slab_slots();
  EXPECT_EQ(q.RunUntilIdle(), 100000u);

  for (int i = 0; i < 100000; ++i) {
    q.ScheduleAfter(10 + i, [&] { ++ran; });
  }
  EXPECT_EQ(q.slab_slots(), peak_slab);  // Recycled, not regrown.
  EXPECT_EQ(q.RunUntilIdle(), 100000u);
  EXPECT_EQ(ran, 300000);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  SimClock clock;
  EventQueue q(&clock);
  int count = 0;
  q.ScheduleAfter(10, [&] { ++count; });
  q.ScheduleAfter(20, [&] { ++count; });
  q.ScheduleAfter(30, [&] { ++count; });
  EXPECT_EQ(q.RunUntil(20), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(clock.now(), 20u);
  q.RunUntilIdle();
  EXPECT_EQ(count, 3);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  SimClock clock;
  EventQueue q(&clock);
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      q.ScheduleAfter(10, chain);
    }
  };
  q.ScheduleAfter(10, chain);
  q.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(clock.now(), 50u);
}

TEST(DistributionTest, BasicMoments) {
  Distribution d;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    d.Add(x);
  }
  EXPECT_EQ(d.count(), 5u);
  EXPECT_DOUBLE_EQ(d.mean(), 3.0);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 5.0);
  EXPECT_NEAR(d.stddev(), 1.5811, 1e-3);
}

TEST(DistributionTest, Percentiles) {
  Distribution d;
  for (int i = 1; i <= 100; ++i) {
    d.Add(i);
  }
  EXPECT_DOUBLE_EQ(d.Percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(d.Percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(d.Percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(d.Percentile(0.0), 1.0);
}

// A percentile read sorts the samples in place; samples added after it must
// be sorted in before the next read.
TEST(DistributionTest, SamplesAddedAfterAPercentileReadAreSortedIn) {
  Distribution d;
  for (int i = 10; i >= 1; --i) {
    d.Add(i);
  }
  EXPECT_DOUBLE_EQ(d.Percentile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(d.Percentile(1.0), 10.0);
  d.Add(0.5);
  d.Add(20.0);
  d.Add(5.5);
  EXPECT_EQ(d.count(), 13u);
  EXPECT_DOUBLE_EQ(d.Percentile(0.0), 0.5);
  EXPECT_DOUBLE_EQ(d.Percentile(0.5), 5.5);  // Rank 7 of 13.
  EXPECT_DOUBLE_EQ(d.Percentile(1.0), 20.0);
}

// min, max, mean and stddev do not depend on sample order, so sorting in
// place leaves them bit-for-bit unchanged.
TEST(DistributionTest, InPlaceSortLeavesMomentsUnchanged) {
  Distribution d;
  for (double x : {7.25, -3.0, 11.5, 0.125, 4.0, 4.0, 99.0, -0.5}) {
    d.Add(x);
  }
  const double min = d.min();
  const double max = d.max();
  const double mean = d.mean();
  const double stddev = d.stddev();
  EXPECT_DOUBLE_EQ(d.Percentile(0.5), 4.0);
  EXPECT_EQ(d.min(), min);
  EXPECT_EQ(d.max(), max);
  EXPECT_EQ(d.mean(), mean);
  EXPECT_EQ(d.stddev(), stddev);
  EXPECT_EQ(d.count(), 8u);
}

TEST(CounterSetTest, IncrementAndGet) {
  CounterSet c;
  c.Increment("gates");
  c.Increment("gates", 4);
  c.Increment("faults");
  EXPECT_EQ(c.Get("gates"), 5u);
  EXPECT_EQ(c.Get("faults"), 1u);
  EXPECT_EQ(c.Get("missing"), 0u);
  EXPECT_EQ(c.Snapshot().size(), 2u);
}

}  // namespace
}  // namespace multics
