// Unit tests for the discrete-event simulation kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/metrics.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace sim {
namespace {

TEST(TimeTest, DurationArithmetic) {
  EXPECT_EQ(Duration::Millis(3).nanos(), 3'000'000);
  EXPECT_EQ(Duration::Seconds(2) + Duration::Millis(500), Duration::Millis(2500));
  EXPECT_EQ(Duration::Millis(10) - Duration::Millis(4), Duration::Millis(6));
  EXPECT_EQ(Duration::Millis(10) * 3, Duration::Millis(30));
  EXPECT_EQ(Duration::Millis(10) / 2, Duration::Millis(5));
  EXPECT_LT(Duration::Micros(999), Duration::Millis(1));
  EXPECT_DOUBLE_EQ(Duration::Millis(1500).seconds(), 1.5);
}

TEST(TimeTest, TimePointArithmetic) {
  TimePoint t = TimePoint::Zero() + Duration::Seconds(1);
  EXPECT_EQ(t.nanos(), 1'000'000'000);
  EXPECT_EQ(t - TimePoint::Zero(), Duration::Seconds(1));
  EXPECT_EQ((t + Duration::Millis(1)) - t, Duration::Millis(1));
}

TEST(TimeTest, Formatting) {
  EXPECT_EQ(Duration::Seconds(3).ToString(), "3s");
  EXPECT_EQ(Duration::Millis(42).ToString(), "42ms");
  EXPECT_EQ(Duration::Micros(7).ToString(), "7us");
  EXPECT_EQ(Duration::Nanos(5).ToString(), "5ns");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(10), 10u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BoolProbabilityExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, BoolProbabilityApprox) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0;
  double sum_sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(23);
  Rng child = parent.Fork();
  // Child stream differs from parent's subsequent stream.
  EXPECT_NE(child.NextU64(), parent.NextU64());
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(TimePoint(30), [&] { fired.push_back(3); });
  q.Schedule(TimePoint(10), [&] { fired.push_back(1); });
  q.Schedule(TimePoint(20), [&] { fired.push_back(2); });
  while (!q.Empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeFifoBySchedulingOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(TimePoint(5), [&fired, i] { fired.push_back(i); });
  }
  while (!q.Empty()) {
    q.PopNext().fn();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[i], i);
  }
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventId id = q.Schedule(TimePoint(1), [&] { ran = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, DoubleCancelReturnsFalse) {
  EventQueue q;
  EventId id = q.Schedule(TimePoint(1), [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueTest, CancelInvalidId) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(EventId{}));
  EXPECT_FALSE(q.Cancel(EventId{999}));
}

TEST(EventQueueTest, CompactionBoundsHeapUnderCancelChurn) {
  EventQueue q;
  // Retransmit-timer pattern: nearly every scheduled event is cancelled
  // before it fires. The physical heap must stay bounded by the live count,
  // not by the total ever scheduled.
  std::vector<EventId> pending;
  for (int i = 0; i < 100000; ++i) {
    pending.push_back(q.Schedule(TimePoint(i + 1), [] {}));
    if (i % 100 != 0) {
      q.Cancel(pending.back());
    }
  }
  EXPECT_EQ(q.size(), 1000u);
  EXPECT_LT(q.heap_size(), 10000u);
  // Surviving events still fire in time order despite the sweeps.
  TimePoint last = TimePoint::Zero();
  while (!q.Empty()) {
    auto fired = q.PopNext();
    EXPECT_GT(fired.when, last);
    last = fired.when;
  }
}

TEST(EventQueueTest, CancelOfFiredEventIsNoOp) {
  EventQueue q;
  EventId id = q.Schedule(TimePoint(1), [] {});
  q.Schedule(TimePoint(2), [] {});
  (void)q.PopNext();  // fires `id`
  // Cancelling the fired event must not eat the remaining live entry.
  EXPECT_FALSE(q.Cancel(id));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.Empty());
  EXPECT_EQ(q.PopNext().when, TimePoint(2));
}

TEST(SimulatorTest, SelfCancellingTimeoutDoesNotLoseLaterEvents) {
  // Regression: a timeout that fires and then cancels its own handle (the
  // 2PC coordinator's decide path) used to corrupt the live-event count,
  // making the queue report empty while events remained — and a later run
  // would then pop an event scheduled before the artificially advanced
  // clock.
  Simulator s;
  EventId timeout{};
  int fired = 0;
  timeout = s.ScheduleAfter(Duration::Millis(1), [&] { s.Cancel(timeout); });
  s.ScheduleAfter(Duration::Millis(5), [&] { ++fired; });
  s.RunFor(Duration::Millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.pending_events(), 0u);
  // A second run must start from a consistent clock/queue.
  s.ScheduleAfter(Duration::Millis(1), [&] { ++fired; });
  s.RunFor(Duration::Millis(10));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, CancelAllLeavesEmptyQueue) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.Schedule(TimePoint(i + 1), [] {}));
  }
  for (EventId id : ids) {
    EXPECT_TRUE(q.Cancel(id));
  }
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.size(), 0u);
}

// Model check: random schedule/cancel/pop sequences, some issued from inside
// popped closures, against a reference set ordered by (when, schedule order).
// Cancels target pending, fired and already-cancelled ids alike, so stale ids
// whose slot now holds a newer event are exercised too.
TEST(EventQueueTest, RandomOpsMatchSortedReference) {
  enum State : char { kPending, kFired, kCancelled };
  // Percent weights of schedule, cancel and pop in phases of 2000 steps:
  // grow, cancel-heavy (drives the sweep), drain.
  constexpr int kWeights[3][3] = {{70, 15, 15}, {10, 80, 10}, {15, 15, 70}};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    EventQueue q;
    std::set<std::pair<int64_t, size_t>> ref;  // (when, tag); tags rise with schedule order
    std::vector<EventId> ids;                  // indexed by tag
    std::vector<int64_t> when_of;
    std::vector<State> state;
    std::vector<std::weak_ptr<char>> closure_alive;
    std::vector<size_t> pending;  // tags still pending, any order
    std::vector<size_t> pending_pos;
    std::vector<size_t> fired_tags;
    int64_t now = 0;
    size_t fired_cancels = 0, repeat_cancels = 0, stale_reused = 0, nested = 0, sweeps = 0;

    auto drop_pending = [&](size_t tag) {
      const size_t pos = pending_pos[tag];
      pending[pos] = pending.back();
      pending_pos[pending[pos]] = pos;
      pending.pop_back();
    };
    std::function<void()> schedule;
    std::function<void(bool)> cancel;
    schedule = [&] {
      const size_t tag = ids.size();
      const int64_t when = now + static_cast<int64_t>(rng.NextBelow(16));  // frequent ties
      const bool nests = rng.NextBool(0.2);
      auto token = std::make_shared<char>();
      closure_alive.push_back(token);
      ids.push_back(q.Schedule(TimePoint(when), [&, tag, nests, token] {
        fired_tags.push_back(tag);
        if (nests) {
          ++nested;
          schedule();
          cancel(rng.NextBool(0.5));
        }
      }));
      when_of.push_back(when);
      state.push_back(kPending);
      pending_pos.push_back(pending.size());
      pending.push_back(tag);
      ref.emplace(when, tag);
    };
    cancel = [&](bool pick_pending) {
      if (ids.empty() || (pick_pending && pending.empty())) {
        return;
      }
      const size_t tag = pick_pending ? pending[rng.NextBelow(pending.size())]
                                      : static_cast<size_t>(rng.NextBelow(ids.size()));
      const bool expect = state[tag] == kPending;
      if (!expect) {
        ++(state[tag] == kFired ? fired_cancels : repeat_cancels);
        for (size_t live : pending) {
          stale_reused += ids[live].slot == ids[tag].slot;
        }
      }
      const size_t heap_before = q.heap_size();
      ASSERT_EQ(q.Cancel(ids[tag]), expect) << "tag " << tag;
      if (!expect) {
        ASSERT_EQ(q.heap_size(), heap_before);
        return;
      }
      state[tag] = kCancelled;
      ref.erase({when_of[tag], tag});
      drop_pending(tag);
      EXPECT_TRUE(closure_alive[tag].expired()) << "Cancel frees the closure at once";
      sweeps += q.heap_size() < heap_before;
      ASSERT_LE(q.heap_size() - q.size(), std::max<size_t>(128, q.size()));
    };

    for (int step = 0; step < 30000; ++step) {
      const int* w = kWeights[(step / 2000) % 3];
      const auto roll = static_cast<int>(rng.NextBelow(100));
      if (roll < w[0]) {
        schedule();
      } else if (roll < w[0] + w[1]) {
        cancel(rng.NextBool(0.5));
      } else if (!ref.empty()) {
        const auto [when, tag] = *ref.begin();
        if (rng.NextBool(0.5)) {  // PopNext must skip dead keys without it too
          ASSERT_EQ(q.NextTime(), TimePoint(when));
        }
        EventQueue::Fired fired = q.PopNext();
        ASSERT_EQ(fired.when, TimePoint(when));
        ref.erase(ref.begin());
        state[tag] = kFired;
        drop_pending(tag);
        now = when;
        const size_t before = fired_tags.size();
        fired.fn();
        ASSERT_EQ(fired_tags.size(), before + 1);
        ASSERT_EQ(fired_tags[before], tag) << "popped out of (when, seq) order";
      }
      ASSERT_EQ(q.size(), ref.size());
      ASSERT_EQ(q.Empty(), ref.empty());
      ASSERT_GE(q.heap_size(), q.size());
    }
    // Every branch the model means to cover was actually taken.
    EXPECT_GT(nested, 0u);
    EXPECT_GT(fired_cancels, 0u);
    EXPECT_GT(repeat_cancels, 0u);
    EXPECT_GT(stale_reused, 0u);
    EXPECT_GT(sweeps, 0u);
    while (!ref.empty()) {
      ASSERT_EQ(q.PopNext().when, TimePoint(ref.begin()->first));
      ref.erase(ref.begin());
    }
    EXPECT_TRUE(q.Empty());
  }
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator s;
  TimePoint seen = TimePoint::Zero();
  s.ScheduleAfter(Duration::Millis(5), [&] { seen = s.now(); });
  s.Run();
  EXPECT_EQ(seen, TimePoint::Zero() + Duration::Millis(5));
  EXPECT_EQ(s.events_executed(), 1u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.ScheduleAfter(Duration::Millis(i), [&] { ++count; });
  }
  s.RunUntil(TimePoint::Zero() + Duration::Millis(5));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), TimePoint::Zero() + Duration::Millis(5));
  s.Run();
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, RunForAdvancesClockEvenWhenIdle) {
  Simulator s;
  s.RunFor(Duration::Seconds(3));
  EXPECT_EQ(s.now(), TimePoint::Zero() + Duration::Seconds(3));
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator s;
  std::vector<int64_t> times;
  s.ScheduleAfter(Duration::Millis(1), [&] {
    times.push_back(s.now().nanos());
    s.ScheduleAfter(Duration::Millis(1), [&] { times.push_back(s.now().nanos()); });
  });
  s.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[1] - times[0], Duration::Millis(1).nanos());
}

TEST(SimulatorTest, RequestStopEndsRun) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.ScheduleAfter(Duration::Millis(i), [&] {
      if (++count == 3) {
        s.RequestStop();
      }
    });
  }
  s.Run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.pending_events(), 7u);
}

TEST(SimulatorTest, EventLimitGuards) {
  Simulator s;
  s.set_event_limit(100);
  // Self-perpetuating event chain.
  std::function<void()> loop = [&] { s.ScheduleAfter(Duration::Millis(1), loop); };
  s.ScheduleAfter(Duration::Millis(1), loop);
  s.Run();
  EXPECT_EQ(s.events_executed(), 100u);
}

TEST(PeriodicTimerTest, FiresRepeatedly) {
  Simulator s;
  int fires = 0;
  PeriodicTimer timer(&s, Duration::Millis(10), [&] { ++fires; });
  timer.Start(Duration::Millis(10));
  s.RunUntil(TimePoint::Zero() + Duration::Millis(55));
  EXPECT_EQ(fires, 5);
  timer.Stop();
  s.Run();
  EXPECT_EQ(fires, 5);
}

TEST(PeriodicTimerTest, StopFromCallback) {
  Simulator s;
  int fires = 0;
  PeriodicTimer timer(&s, Duration::Millis(10), [&] {
    if (++fires == 3) {
      timer.Stop();
    }
  });
  timer.Start(Duration::Zero());
  s.Run();
  EXPECT_EQ(fires, 3);
}

TEST(MetricsTest, CounterAccumulates) {
  MetricsRegistry registry;
  registry.GetCounter("x").Add(3);
  registry.GetCounter("x").Add(4);
  EXPECT_EQ(registry.GetCounter("x").value(), 7);
  EXPECT_NE(registry.FindCounter("x"), nullptr);
  EXPECT_EQ(registry.FindCounter("y"), nullptr);
}

TEST(MetricsTest, GaugeTracksPeak) {
  Gauge g;
  g.Set(5);
  g.Add(10);
  g.Add(-12);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.peak(), 15);
}

TEST(MetricsTest, HistogramStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Record(i);
  }
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 100);
  EXPECT_NEAR(h.Quantile(0.5), 50.5, 1.0);
  EXPECT_NEAR(h.Quantile(0.99), 99.0, 1.1);
  EXPECT_NEAR(h.stddev(), 29.0, 0.5);
}

TEST(MetricsTest, HistogramEmpty) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

}  // namespace
}  // namespace sim
