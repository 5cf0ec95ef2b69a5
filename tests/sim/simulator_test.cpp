#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/random.h"

namespace tempriv::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, RunAdvancesClockToEventTimes) {
  Simulator sim;
  std::vector<double> seen;
  sim.schedule_at(5.0, [&] { seen.push_back(sim.now()); });
  sim.schedule_at(2.5, [&] { seen.push_back(sim.now()); });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(seen, (std::vector<double>{2.5, 5.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_after(3.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 13.0);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(4.0, [] {}), std::invalid_argument);
}

TEST(Simulator, SchedulingAtCurrentTimeIsAllowed) {
  Simulator sim;
  bool nested_ran = false;
  sim.schedule_at(5.0, [&] {
    sim.schedule_at(5.0, [&] { nested_ran = true; });
  });
  sim.run();
  EXPECT_TRUE(nested_ran);
}

TEST(Simulator, NonFiniteTimesThrow) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(kTimeInfinity, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(std::nan(""), [] {}), std::invalid_argument);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(static_cast<double>(i), [&] { ++fired; });
  }
  EXPECT_EQ(sim.run_until(5.5), 5u);
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.5);  // clock rests at the deadline
  EXPECT_EQ(sim.pending_events(), 5u);
  EXPECT_EQ(sim.run_until(100.0), 5u);
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, RunUntilIncludesEventsAtDeadline) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(5.0, [&] { fired = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, StopHaltsProcessing) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  // A fresh run() resumes with the remaining events.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelledEventsDoNotRun) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, EventsExecutedAccumulates) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(static_cast<double>(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, NextEventTimeReflectsQueue) {
  Simulator sim;
  EXPECT_EQ(sim.next_event_time(), kTimeInfinity);
  sim.schedule_at(4.0, [] {});
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 4.0);
}

TEST(Simulator, CascadedEventsKeepVirtualTimeCausal) {
  // Events scheduling events: time must be non-decreasing throughout.
  Simulator sim;
  std::vector<double> times;
  std::function<void(int)> chain = [&](int depth) {
    times.push_back(sim.now());
    if (depth > 0) {
      sim.schedule_after(0.5, [&chain, depth] { chain(depth - 1); });
    }
  };
  sim.schedule_at(1.0, [&] { chain(20); });
  sim.run();
  ASSERT_EQ(times.size(), 21u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GT(times[i], times[i - 1]);
  }
}

TEST(SimulatorBatch, EqualTimeEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(SimulatorBatch, CallbackCancellingLaterEqualTimeEventSuppressesIt) {
  Simulator sim;
  bool ran = false;
  EventId doomed;
  sim.schedule_at(1.0, [&] { sim.cancel(doomed); });
  doomed = sim.schedule_at(1.0, [&] { ran = true; });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorBatch, CallbackSchedulingAtSameTimeRunsAfterCohort) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.schedule_at(1.0, [&] { order.push_back(9); });
  });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 9}));
}

TEST(SimulatorBatch, StopMidBatchLeavesRemainderPending) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.stop();
  });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 1.0);

  // Resuming runs the rest in the original order.
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorBatch, ExceptionMidBatchRequeuesRemainder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, [&] { throw std::runtime_error("boom"); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(SimulatorBatch, RunUntilHonorsDeadlineAcrossBatches) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.schedule_at(2.0, [&] { order.push_back(3); });
  sim.schedule_at(3.0, [&] { order.push_back(4); });
  EXPECT_EQ(sim.run_until(2.0), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

// A self-extending, cancel-heavy schedule on an integer time grid: every
// callback records (tag, now), may cancel a recently scheduled event, and
// schedules up to three children through either lane, often at the current
// time, so equal-time cohorts span both lanes and carry tombstones. The
// random draws happen inside the callbacks, so any change in execution
// order changes the rest of the trace.
class CohortHarness {
 public:
  explicit CohortHarness(std::uint64_t seed) : rng_(seed) {
    for (int i = 0; i < 64; ++i) spawn(std::floor(rng_.uniform(0.0, 8.0)));
  }
  CohortHarness(const CohortHarness&) = delete;
  CohortHarness& operator=(const CohortHarness&) = delete;

  Simulator sim;
  std::vector<std::pair<std::size_t, Time>> trace;
  std::size_t cancelled = 0;
  std::size_t spawned() const { return ids_.size(); }

 private:
  void spawn(Duration delay) {
    const std::size_t tag = ids_.size();
    const auto action = [this, tag] { fire(tag); };
    ids_.push_back(rng_.bernoulli(0.5)
                       ? sim.schedule_after(delay, action)
                       : sim.schedule_after_monotone(delay, action));
  }
  void fire(std::size_t tag) {
    trace.emplace_back(tag, sim.now());
    // Recent ids are mostly still pending, so most attempts cancel.
    const std::size_t recent = ids_.size() < 32 ? ids_.size() : 32;
    if (rng_.bernoulli(0.3) &&
        sim.cancel(ids_[ids_.size() - 1 - rng_.uniform_index(recent)])) {
      ++cancelled;
    }
    if (ids_.size() >= 4000) return;
    const std::uint64_t children = rng_.uniform_index(4);
    for (std::uint64_t c = 0; c < children; ++c) {
      spawn(std::floor(rng_.uniform(0.0, 3.0)));
    }
  }

  RandomStream rng_;
  std::vector<EventId> ids_;
};

TEST(Simulator, RunRunUntilAndStepExecuteIdenticalTraces) {
  CohortHarness whole(77);
  const std::size_t ran = whole.sim.run();
  EXPECT_EQ(ran, whole.trace.size());
  EXPECT_EQ(whole.sim.pending_events(), 0u);

  CohortHarness sliced(77);
  std::size_t sliced_ran = 0;
  for (Time deadline = 0.0; sliced.sim.pending_events() != 0;
       deadline += 0.75) {
    sliced_ran += sliced.sim.run_until(deadline);
  }

  CohortHarness stepped(77);
  std::size_t steps = 0;
  while (stepped.sim.step()) ++steps;

  EXPECT_EQ(sliced_ran, ran);
  EXPECT_EQ(steps, ran);
  EXPECT_EQ(sliced.trace, whole.trace);
  EXPECT_EQ(stepped.trace, whole.trace);
  EXPECT_EQ(sliced.spawned(), whole.spawned());
  EXPECT_EQ(stepped.spawned(), whole.spawned());

  // The schedule really is cohort- and cancel-heavy.
  std::size_t tied = 0;
  for (std::size_t i = 1; i < whole.trace.size(); ++i) {
    if (whole.trace[i].second == whole.trace[i - 1].second) ++tied;
  }
  EXPECT_GT(tied, whole.trace.size() / 2);
  EXPECT_GT(whole.cancelled, 100u);
  EXPECT_EQ(whole.trace.size() + whole.cancelled, whole.spawned());
}

}  // namespace
}  // namespace tempriv::sim
