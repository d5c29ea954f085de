#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace hivesim::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.Now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(3.0, [&] { order.push_back(3); });
  sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(2.0, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
  EXPECT_EQ(sim.events_fired(), 3u);
}

TEST(SimulatorTest, SameTimeEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.Schedule(2.0, [] {});
  sim.Run();
  bool fired = false;
  sim.Schedule(-1.0, [&] { fired = true; });
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);
}

TEST(SimulatorTest, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.Schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // Double-cancel reports false.
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator sim;
  EventId id = sim.Schedule(1.0, [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<double> times;
  std::function<void()> tick = [&] {
    times.push_back(sim.Now());
    if (times.size() < 5) sim.Schedule(1.5, tick);
  };
  sim.Schedule(0.0, tick);
  sim.Run();
  ASSERT_EQ(times.size(), 5u);
  EXPECT_DOUBLE_EQ(times.back(), 6.0);
}

TEST(SimulatorTest, EventCanCancelAnotherPendingEvent) {
  Simulator sim;
  bool victim_fired = false;
  EventId victim = sim.Schedule(2.0, [&] { victim_fired = true; });
  sim.Schedule(1.0, [&] { EXPECT_TRUE(sim.Cancel(victim)); });
  sim.Run();
  EXPECT_FALSE(victim_fired);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(sim.Now(), 10.0);
}

TEST(SimulatorTest, RunUntilStopsBeforeLaterEvents) {
  Simulator sim;
  std::vector<double> fired;
  sim.Schedule(1.0, [&] { fired.push_back(1.0); });
  sim.Schedule(5.0, [&] { fired.push_back(5.0); });
  sim.RunUntil(3.0);
  EXPECT_EQ(fired, std::vector<double>{1.0});
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
  sim.Run();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 5.0}));
}

TEST(SimulatorTest, RunUntilIncludesBoundaryEvents) {
  Simulator sim;
  bool fired = false;
  sim.Schedule(3.0, [&] { fired = true; });
  sim.RunUntil(3.0);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, PendingCountsLiveEventsOnly) {
  Simulator sim;
  EventId a = sim.Schedule(1.0, [] {});
  sim.Schedule(2.0, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, EventsFiredExcludesCancelled) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(sim.Schedule(i + 1.0, [] {}));
  EXPECT_TRUE(sim.Cancel(ids[1]));
  EXPECT_TRUE(sim.Cancel(ids[3]));
  sim.Run();
  EXPECT_EQ(sim.events_fired(), 3u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, StepAdvancesAccountingOneEventAtATime) {
  Simulator sim;
  sim.Schedule(1.0, [] {});
  sim.Schedule(2.0, [] {});
  EXPECT_EQ(sim.events_fired(), 0u);
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(sim.events_fired(), 1u);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(sim.events_fired(), 2u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.events_fired(), 2u);
}

TEST(SimulatorTest, RunUntilFiresOnlyDueEventsAndCountsThem) {
  Simulator sim;
  sim.Schedule(1.0, [] {});
  sim.Schedule(5.0, [] {});
  sim.RunUntil(2.0);
  EXPECT_EQ(sim.events_fired(), 1u);
  EXPECT_EQ(sim.pending(), 1u);
  sim.RunUntil(5.0);
  EXPECT_EQ(sim.events_fired(), 2u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  Simulator sim;
  double last = -1;
  int count = 0;
  for (int i = 0; i < 5000; ++i) {
    const double when = (i * 7919) % 1000 / 10.0;
    sim.Schedule(when, [&, when] {
      EXPECT_GE(when, last);
      last = when;
      ++count;
    });
  }
  sim.Run();
  EXPECT_EQ(count, 5000);
}

TEST(SimulatorTest, ScheduleAtPastClampsToNow) {
  Simulator sim;
  sim.Schedule(4.0, [] {});
  sim.Run();
  double fired_at = -1;
  sim.ScheduleAt(1.0, [&] { fired_at = sim.Now(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(fired_at, 4.0);
}

TEST(SimulatorTest, CancelThenPendingDropsImmediately) {
  // pending() excludes a cancelled event the moment Cancel returns, even
  // though its stale heap entry is only discarded lazily on pop.
  Simulator sim;
  EventId a = sim.Schedule(1.0, [] {});
  EventId b = sim.Schedule(2.0, [] {});
  EventId c = sim.Schedule(3.0, [] {});
  EXPECT_EQ(sim.pending(), 3u);
  EXPECT_TRUE(sim.Cancel(b));
  EXPECT_EQ(sim.pending(), 2u);  // No lag waiting for the heap to drain.
  EXPECT_TRUE(sim.Cancel(a));
  EXPECT_TRUE(sim.Cancel(c));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.Step());  // Only stale entries remain in the heap.
  EXPECT_EQ(sim.events_fired(), 0u);
}

TEST(SimulatorTest, StaleIdAfterSlotReuseDoesNotCancelNewEvent) {
  // Cancelling frees the pool slot; the next Schedule may reuse it. The
  // old id carries the old generation and must not touch the new event.
  Simulator sim;
  EventId old_id = sim.Schedule(1.0, [] { FAIL() << "cancelled event fired"; });
  EXPECT_TRUE(sim.Cancel(old_id));
  bool fired = false;
  EventId new_id = sim.Schedule(1.0, [&] { fired = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(sim.Cancel(old_id));  // Stale generation: a no-op.
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, IdFromFiredEventStaysInvalidAcrossReuse) {
  Simulator sim;
  EventId first = sim.Schedule(1.0, [] {});
  sim.Run();
  // The slot is free again; reschedule (likely reusing it) and verify the
  // fired event's id can no longer cancel anything.
  bool fired = false;
  sim.Schedule(1.0, [&] { fired = true; });
  EXPECT_FALSE(sim.Cancel(first));
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CallbackCanReuseItsOwnSlot) {
  // A firing event's slot is released before its callback runs, so the
  // callback's own Schedule may land in the same slot. The new event must
  // be live and cancellable under its fresh generation.
  Simulator sim;
  EventId inner = 0;
  bool inner_fired = false;
  sim.Schedule(1.0, [&] {
    inner = sim.Schedule(1.0, [&] { inner_fired = true; });
  });
  sim.RunUntil(1.5);
  ASSERT_NE(inner, 0u);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.Cancel(inner));
  sim.Run();
  EXPECT_FALSE(inner_fired);
}

TEST(SimulatorTest, HeavyCancelRescheduleKeepsPoolConsistent) {
  // Storm of schedule/cancel cycles across a small live set: every id
  // stays unique-per-lifetime, cancelled events never fire, survivors all
  // fire exactly once in time order.
  Simulator sim;
  std::vector<EventId> live;
  int fired = 0;
  double last = 0.0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 8; ++i) {
      live.push_back(sim.Schedule(1.0 + (round * 8 + i) % 13, [&] {
        EXPECT_GE(sim.Now(), last);
        last = sim.Now();
        ++fired;
      }));
    }
    // Cancel half of what we just scheduled.
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(sim.Cancel(live[live.size() - 1 - 2 * i]));
    }
  }
  sim.Run();
  EXPECT_EQ(fired, 200 * 4);
  EXPECT_EQ(sim.pending(), 0u);
}

// Run() dispatches same-timestamp cohorts in one heap drain; the
// observable order must be exactly the (when, seq) order that repeated
// Step() produces. Build an interleaved schedule (several timestamps,
// several events each, scheduled out of timestamp order so seq and when
// disagree), trace both dispatch styles, and compare.
TEST(SimulatorTest, BatchedCohortDispatchMatchesSingleStepOrder) {
  const auto build = [](Simulator& sim, std::vector<int>& order) {
    int tag = 0;
    for (int round = 0; round < 3; ++round) {
      for (double when : {2.0, 1.0, 3.0, 1.0, 2.0}) {
        const int id = tag++;
        sim.ScheduleAt(when, [&order, id] { order.push_back(id); });
      }
    }
  };
  Simulator stepped;
  std::vector<int> stepped_order;
  build(stepped, stepped_order);
  while (stepped.Step()) {
  }
  Simulator batched;
  std::vector<int> batched_order;
  build(batched, batched_order);
  batched.Run();
  EXPECT_EQ(batched_order, stepped_order);
  EXPECT_EQ(batched.events_fired(), stepped.events_fired());
  EXPECT_EQ(batched.Now(), stepped.Now());
}

// A cohort member cancelled by an earlier member of the same cohort must
// not fire, exactly as if its stale heap entry had been skipped.
TEST(SimulatorTest, EventCanCancelLaterMemberOfItsOwnCohort) {
  Simulator sim;
  std::vector<int> order;
  EventId victim = 0;
  sim.Schedule(1.0, [&] {
    order.push_back(0);
    EXPECT_TRUE(sim.Cancel(victim));
  });
  victim = sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(1.0, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(sim.events_fired(), 2u);
  EXPECT_EQ(sim.pending(), 0u);
}

// An event scheduled *for the current timestamp* by a cohort member
// carries a larger seq, so it fires after the rest of the cohort — the
// same order single-stepping produces.
TEST(SimulatorTest, CohortMemberSchedulingAtSameTimeFiresAfterCohort) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(1.0, [&] {
    order.push_back(0);
    sim.Schedule(0.0, [&order] { order.push_back(3); });
  });
  sim.Schedule(1.0, [&order] { order.push_back(1); });
  sim.Schedule(1.0, [&order] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// RunUntil must leave a cohort strictly past the bound fully queued —
// draining it into scratch and re-pushing would be observable through
// pending() only, but leaving it queued is the contract.
TEST(SimulatorTest, RunUntilLeavesFutureCohortIntact) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.Schedule(2.0, [&order, i] { order.push_back(i); });
  }
  sim.RunUntil(1.0);
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(sim.pending(), 4u);
  EXPECT_EQ(sim.Now(), 1.0);
  sim.RunUntil(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// --- End-of-timestamp hooks ---

// Records the clock and the fired-event count at each call, then runs an
// optional action (which may schedule events or re-request the hook).
struct RecordingHook : EndOfTimestampHook {
  explicit RecordingHook(Simulator* sim) : sim(sim) {}
  void OnEndOfTimestamp() override {
    calls.push_back(sim->Now());
    fired_at_call.push_back(sim->events_fired());
    if (action) action();
  }
  Simulator* sim;
  std::vector<double> calls;
  std::vector<uint64_t> fired_at_call;
  std::function<void()> action;
};

TEST(EndOfTimestampHookTest, RunsOnceAfterEveryCohortOfItsTimestamp) {
  Simulator sim;
  RecordingHook hook(&sim);
  std::vector<int> order;
  sim.ScheduleAt(1.0, [&] {
    order.push_back(0);
    sim.DeferToEndOfTimestamp(&hook);
    // A later cohort at the same timestamp: the hook waits for it.
    sim.Schedule(0.0, [&] {
      order.push_back(2);
      sim.Schedule(0.0, [&order] { order.push_back(3); });
    });
  });
  sim.ScheduleAt(1.0, [&order] { order.push_back(1); });
  sim.ScheduleAt(2.0, [&] {
    order.push_back(4);
    EXPECT_EQ(hook.calls.size(), 1u);
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(hook.calls, (std::vector<double>{1.0}));
  EXPECT_EQ(hook.fired_at_call, (std::vector<uint64_t>{4}));
}

TEST(EndOfTimestampHookTest, CohortsScheduledByTheHookFireBeforeTheClockMoves) {
  Simulator sim;
  RecordingHook hook(&sim);
  int rounds = 0;
  std::vector<double> fired_at;
  // Each hook call schedules a same-timestamp event that re-requests the
  // hook, three times over: all of it happens at t=1.
  hook.action = [&] {
    if (++rounds == 3) return;
    sim.Schedule(0.0, [&] {
      fired_at.push_back(sim.Now());
      sim.DeferToEndOfTimestamp(&hook);
    });
  };
  sim.ScheduleAt(1.0, [&] { sim.DeferToEndOfTimestamp(&hook); });
  sim.ScheduleAt(2.0, [&] { fired_at.push_back(sim.Now()); });
  sim.Run();
  EXPECT_EQ(hook.calls, (std::vector<double>{1.0, 1.0, 1.0}));
  EXPECT_EQ(fired_at, (std::vector<double>{1.0, 1.0, 2.0}));
  EXPECT_EQ(hook.fired_at_call, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(EndOfTimestampHookTest, NeverCountedAsAnEvent) {
  telemetry::MetricsRegistry metrics;
  telemetry::Telemetry::ScopedSinks sinks(/*trace=*/nullptr, &metrics);
  Simulator sim;
  RecordingHook hook(&sim);
  for (int i = 1; i <= 5; ++i) {
    sim.ScheduleAt(i, [&] { sim.DeferToEndOfTimestamp(&hook); });
  }
  sim.Run();
  EXPECT_EQ(hook.calls.size(), 5u);
  EXPECT_EQ(sim.events_fired(), 5u);
  EXPECT_EQ(metrics.CounterValue("sim.events_fired"), 5.0);
  EXPECT_EQ(metrics.CounterValue("sim.events_scheduled"), 5.0);
}

TEST(EndOfTimestampHookTest, RunsBeforeRunAndRunUntilReturn) {
  Simulator sim;
  RecordingHook hook(&sim);
  // Requested outside any event, with nothing queued.
  sim.DeferToEndOfTimestamp(&hook);
  sim.Run();
  EXPECT_EQ(hook.calls, (std::vector<double>{0.0}));

  // RunUntil runs it at the last event's time, before the clock moves on
  // to the bound.
  sim.ScheduleAt(1.5, [&] { sim.DeferToEndOfTimestamp(&hook); });
  sim.ScheduleAt(9.0, [] {});
  sim.RunUntil(4.0);
  EXPECT_EQ(hook.calls, (std::vector<double>{0.0, 1.5}));
  EXPECT_EQ(sim.Now(), 4.0);

  // Requested between runs: it still runs at the old time.
  sim.DeferToEndOfTimestamp(&hook);
  sim.RunUntil(5.0);
  EXPECT_EQ(hook.calls, (std::vector<double>{0.0, 1.5, 4.0}));
  EXPECT_EQ(sim.Now(), 5.0);
}

TEST(EndOfTimestampHookTest, StepRunsItBeforeFiringALaterEvent) {
  Simulator sim;
  RecordingHook hook(&sim);
  sim.ScheduleAt(1.0, [&] { sim.DeferToEndOfTimestamp(&hook); });
  sim.ScheduleAt(2.0, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_TRUE(hook.calls.empty());
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(hook.calls, (std::vector<double>{1.0}));
  EXPECT_EQ(sim.Now(), 2.0);
}

TEST(EndOfTimestampHookTest, CancelledSameTimeEventDoesNotHoldItBack) {
  Simulator sim;
  RecordingHook hook(&sim);
  sim.ScheduleAt(1.0, [&] {
    const EventId doomed = sim.Schedule(0.0, [] { ADD_FAILURE(); });
    sim.Cancel(doomed);
    sim.DeferToEndOfTimestamp(&hook);
  });
  sim.ScheduleAt(3.0, [] {});
  sim.Run();
  EXPECT_EQ(hook.calls, (std::vector<double>{1.0}));
}

TEST(EndOfTimestampHookTest, WithdrawnHookIsNotCalled) {
  Simulator sim;
  RecordingHook kept(&sim);
  RecordingHook withdrawn(&sim);
  sim.ScheduleAt(1.0, [&] {
    sim.DeferToEndOfTimestamp(&withdrawn);
    sim.DeferToEndOfTimestamp(&kept);
    sim.WithdrawEndOfTimestamp(&withdrawn);
    sim.WithdrawEndOfTimestamp(&withdrawn);  // Not pending: a no-op.
  });
  sim.Run();
  EXPECT_TRUE(withdrawn.calls.empty());
  EXPECT_EQ(kept.calls, (std::vector<double>{1.0}));
}

// --- Queue-order oracle ---

// Mirrors every event it schedules into a reference set ordered by
// (when, seq) and checks each firing against the set's minimum, so any
// queue tier that pops out of the strict total order fails at the first
// misplaced event. Firing events and the end-of-timestamp hook react at
// random (same-time and future schedules, cancels, hook requests) while
// a budget lasts.
class OrderOracle : public EndOfTimestampHook {
 public:
  OrderOracle(Simulator* sim, uint64_t seed) : sim_(sim), rng_(seed) {}

  void Add(double when) {
    const double at = std::max(when, sim_->Now());
    const uint64_t seq = next_seq_++;
    const EventId id =
        sim_->ScheduleAt(when, [this, at, seq] { Fire(at, seq); });
    reference_.emplace(at, seq);
    scheduled_.push_back({id, at, seq});
  }

  // Cancels a random event ever scheduled; the kernel and the reference
  // must agree on whether it was still pending.
  void CancelRandom() {
    const Scheduled& s = scheduled_[Pick(scheduled_.size())];
    const bool cancelled = sim_->Cancel(s.id);
    EXPECT_EQ(reference_.erase({s.at, s.seq}), cancelled ? 1u : 0u);
  }

  void RequestHook() {
    if (hook_pending_) return;
    hook_pending_ = true;
    sim_->DeferToEndOfTimestamp(this);
  }

  void OnEndOfTimestamp() override {
    hook_pending_ = false;
    ++hook_calls_;
    EXPECT_TRUE(reference_.empty() ||
                reference_.begin()->first > sim_->Now())
        << "hook ran with an event due at " << sim_->Now();
    if (budget_ > 0 && rng_.Bernoulli(0.3)) {
      --budget_;
      Add(sim_->Now());  // Fires before the clock moves.
    }
  }

  // Every pending event must be later than `bound`.
  void ExpectNothingDueBy(double bound) const {
    EXPECT_TRUE(reference_.empty() || reference_.begin()->first > bound);
  }

  double NextWhen() const { return reference_.begin()->first; }
  size_t pending() const { return reference_.size(); }
  uint64_t fired() const { return fired_; }
  uint64_t hook_calls() const { return hook_calls_; }
  bool hook_pending() const { return hook_pending_; }
  Rng& rng() { return rng_; }
  /// Reactions left for firing events and the hook.
  void set_budget(int budget) { budget_ = budget; }

 private:
  struct Scheduled {
    EventId id;
    double at;
    uint64_t seq;
  };

  size_t Pick(size_t n) {
    return static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(n) - 1));
  }

  void Fire(double at, uint64_t seq) {
    ASSERT_FALSE(reference_.empty());
    EXPECT_EQ(*reference_.begin(), std::make_pair(at, seq))
        << "fired (" << at << ", " << seq << ") out of (when, seq) order";
    EXPECT_EQ(sim_->Now(), at);
    reference_.erase({at, seq});
    ++fired_;
    if (budget_ <= 0) return;
    --budget_;
    const double roll = rng_.Uniform();
    if (roll < 0.15) {
      Add(at);  // Same time: after everything already due now.
    } else if (roll < 0.30) {
      Add(at + rng_.Uniform(0.0, 2.0));
    } else if (roll < 0.40) {
      Add(std::floor(at) + 1.0);  // Joins the next whole-second cohort.
    } else if (roll < 0.55) {
      CancelRandom();  // May hit a later member of this very cohort.
    } else if (roll < 0.60) {
      RequestHook();
    }
  }

  Simulator* sim_;
  Rng rng_;
  uint64_t next_seq_ = 0;
  std::set<std::pair<double, uint64_t>> reference_;
  std::vector<Scheduled> scheduled_;
  int budget_ = 0;
  uint64_t fired_ = 0;
  uint64_t hook_calls_ = 0;
  bool hook_pending_ = false;
};

// Bulk whole-second cohorts (the fleet heartbeat shape) interleaved with
// random-time and same-time pushes, cancels landing in every tier, and a
// loop that alternates Step, RunUntil (bounds between and exactly on
// cohorts, so due-checks re-push the next entry) and fresh schedules.
TEST(QueueOrderOracleTest, FireOrderIsTheReferenceSort) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Simulator sim;
    OrderOracle oracle(&sim, seed);
    Rng& rng = oracle.rng();
    constexpr int kCohorts = 4;
    // Odd seeds load pure cohorts, whose windows fill the run alone.
    // Every third seed loads small cohorts, latest first, so that one
    // refill window holds them all out of timestamp order.
    const double interleave = seed % 2 == 0 ? 0.05 : 0.0;
    const bool reversed = seed % 3 == 0;
    const int cohort_size = reversed ? 240 : 3000;
    for (int k = 1; k <= kCohorts; ++k) {
      const int c = reversed ? kCohorts + 1 - k : k;
      for (int i = 0; i < cohort_size; ++i) {
        oracle.Add(static_cast<double>(c));
        if (rng.Bernoulli(interleave)) {
          oracle.Add(rng.Uniform(0.0, kCohorts + 1.0));
        }
        if (rng.Bernoulli(interleave / 5)) {
          oracle.Add(static_cast<double>(rng.UniformInt(1, kCohorts)));
        }
      }
    }
    for (int i = 0; i < 500; ++i) oracle.CancelRandom();  // Still staged.
    oracle.set_budget(20000);
    int loop_adds = 2000;
    while (sim.pending() > 0 || oracle.hook_pending()) {
      const double roll = rng.Uniform();
      if (roll < 0.35) {
        const uint64_t fired = sim.events_fired();
        const bool stepped = sim.Step();
        EXPECT_EQ(stepped, sim.events_fired() == fired + 1);
        ASSERT_TRUE(stepped || sim.pending() == 0) << "queue lost events";
      } else if (roll < 0.60) {
        const double bound = sim.Now() + rng.Uniform(0.0, 0.3);
        sim.RunUntil(bound);
        oracle.ExpectNothingDueBy(bound);
        EXPECT_EQ(sim.Now(), bound);
      } else if (roll < 0.70 && oracle.pending() > 0) {
        const double bound = oracle.NextWhen();  // Exactly on an event.
        sim.RunUntil(bound);
        oracle.ExpectNothingDueBy(bound);
      } else if (roll < 0.85 && loop_adds-- > 0) {
        oracle.Add(sim.Now() + rng.Uniform(0.0, 1.0));
        oracle.Add(std::floor(sim.Now()) + 1.0);
        oracle.CancelRandom();
      } else if (roll < 0.90) {
        oracle.RequestHook();
      } else if (roll < 0.92) {
        sim.Run();
        ASSERT_EQ(sim.pending(), 0u) << "queue lost events";
      }
      ASSERT_EQ(sim.pending(), oracle.pending());
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_EQ(oracle.pending(), 0u);
    EXPECT_EQ(sim.events_fired(), oracle.fired());
    EXPECT_GT(oracle.hook_calls(), 0u);
  }
}

// Counts `sim.events_heaped` for a world built by `schedule` and run to
// the end.
double EventsHeaped(const std::function<void(Simulator&)>& schedule) {
  telemetry::MetricsRegistry metrics;
  telemetry::Telemetry::ScopedSinks sinks(/*trace=*/nullptr, &metrics);
  Simulator sim;
  schedule(sim);
  sim.Run();
  EXPECT_EQ(sim.pending(), 0u);
  return metrics.CounterValue("sim.events_heaped");
}

// Bulk-scheduled cohorts migrate in (when, seq) order, so they pop from
// the sorted run without ever entering the heap; entries that arrive out
// of order do enter it, and are counted.
TEST(QueueOrderOracleTest, BulkCohortsBypassTheHeap) {
  EXPECT_EQ(EventsHeaped([](Simulator& sim) {
              for (int tick = 1; tick <= 4; ++tick) {
                for (int i = 0; i < 5000; ++i) sim.ScheduleAt(tick, [] {});
              }
            }),
            0.0);
  EXPECT_GT(EventsHeaped([](Simulator& sim) {
              for (int i = 5000; i > 0; --i) sim.ScheduleAt(i, [] {});
            }),
            0.0);
}

}  // namespace
}  // namespace hivesim::sim
