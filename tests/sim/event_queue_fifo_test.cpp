// The monotone FIFO lane (schedule_monotone): ordering against heap-lane
// events, cancellation, the non-monotone fallback, equal-time cohorts that
// span both lanes, and in-place dispatch.

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"

namespace tempriv::sim {
namespace {

TEST(EventQueueFifo, MonotoneEventsPopInOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule_monotone(static_cast<double>(i), [&order, i] {
      order.push_back(i);
    });
  }
  while (auto event = q.pop()) event->action();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueFifo, InterleavesWithHeapLaneByTimeThenInsertion) {
  // Events at the same time must pop in insertion order regardless of which
  // lane each went through — the cross-lane merge compares aux words.
  EventQueue q;
  std::vector<int> order;
  q.schedule(2.0, [&] { order.push_back(0); });           // heap
  q.schedule_monotone(2.0, [&] { order.push_back(1); });  // fifo, same time
  q.schedule(1.0, [&] { order.push_back(2); });           // heap, earlier
  q.schedule_monotone(3.0, [&] { order.push_back(3); });  // fifo, later
  q.schedule(2.0, [&] { order.push_back(4); });           // heap, tie again
  while (auto event = q.pop()) event->action();
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1, 4, 3}));
}

TEST(EventQueueFifo, CancelWorksOnFifoLaneEvents) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_monotone(1.0, [&] { order.push_back(1); });
  const EventId doomed = q.schedule_monotone(2.0, [&] { order.push_back(2); });
  q.schedule_monotone(3.0, [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(doomed));
  EXPECT_FALSE(q.cancel(doomed));
  EXPECT_EQ(q.size(), 2u);
  while (auto event = q.pop()) event->action();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueFifo, NextTimeSkipsCancelledFifoHead) {
  EventQueue q;
  const EventId head = q.schedule_monotone(1.0, [] {});
  q.schedule_monotone(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_TRUE(q.cancel(head));
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueueFifo, NonMonotoneTimeFallsBackToHeap) {
  // A time below the ring's tail must still execute, and in correct order —
  // the lane diverts it through the heap rather than breaking sortedness.
  EventQueue q;
  std::vector<int> order;
  q.schedule_monotone(5.0, [&] { order.push_back(5); });
  q.schedule_monotone(9.0, [&] { order.push_back(9); });
  const EventId early = q.schedule_monotone(1.0, [&] { order.push_back(1); });
  q.schedule_monotone(9.5, [&] { order.push_back(95); });
  EXPECT_TRUE(early.valid());
  while (auto event = q.pop()) event->action();
  EXPECT_EQ(order, (std::vector<int>{1, 5, 9, 95}));
}

TEST(EventQueueFifo, FallbackEventIsCancellable) {
  EventQueue q;
  bool fired = false;
  q.schedule_monotone(5.0, [] {});
  const EventId early = q.schedule_monotone(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(early));
  auto event = q.pop();
  ASSERT_TRUE(event.has_value());
  EXPECT_DOUBLE_EQ(event->at, 5.0);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(fired);
}

TEST(EventQueueFifo, PopBatchMergesEqualTimeCohortAcrossLanes) {
  // An equal-time cohort spanning both lanes pops in insertion order.
  EventQueue q;
  std::vector<int> order;
  q.schedule(4.0, [&] { order.push_back(1); });
  q.schedule_monotone(4.0, [&] { order.push_back(2); });
  q.schedule(4.0, [&] { order.push_back(3); });
  q.schedule_monotone(4.0, [&] { order.push_back(4); });
  q.schedule_monotone(6.0, [&] { order.push_back(5); });  // stays behind
  for (int i = 0; i < 4; ++i) {
    auto event = q.pop();
    ASSERT_TRUE(event.has_value());
    EXPECT_DOUBLE_EQ(event->at, 4.0);
    event->action();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(q.next_time(), 6.0);
}

TEST(EventQueueFifo, PopBatchSkipsFifoTombstonesInsideCohort) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_monotone(4.0, [&] { order.push_back(1); });
  const EventId doomed = q.schedule_monotone(4.0, [&] { order.push_back(2); });
  q.schedule(4.0, [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(doomed));
  while (auto event = q.pop()) {
    EXPECT_DOUBLE_EQ(event->at, 4.0);
    event->action();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueFifo, DispatchIfSingleRunsCallbackInPlace) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule_monotone(1.5, [&] { ++fired; });
  bool dispatched = q.dispatch_next(
      [&](Time at, EventId seen, EventQueue::Callback& action) {
        EXPECT_DOUBLE_EQ(at, 1.5);
        EXPECT_EQ(seen, id);
        // The handle dies before the callback runs.
        EXPECT_FALSE(q.cancel(seen));
        action();
      });
  EXPECT_TRUE(dispatched);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.dispatch_next([](Time, EventId, EventQueue::Callback&) {
    ADD_FAILURE() << "dispatched from an empty queue";
  }));
}

TEST(EventQueueFifo, DispatchIfSingleAllowsSchedulingFromCallback) {
  // The dispatched callback may schedule and cancel freely — the slot it
  // runs from is released only after it returns. Equal-time events it
  // schedules run after the cohort already pending at that time, and a
  // cohort member it cancels never runs.
  EventQueue q;
  std::vector<int> order;
  EventId doomed_peer;
  q.schedule_monotone(1.0, [&] {
    order.push_back(1);
    q.schedule_monotone(2.0, [&] { order.push_back(4); });
    q.schedule(1.0, [&] { order.push_back(3); });
    const EventId doomed = q.schedule(1.5, [&] { order.push_back(-1); });
    q.cancel(doomed);
    q.cancel(doomed_peer);
  });
  q.schedule(1.0, [&] { order.push_back(2); });
  doomed_peer = q.schedule_monotone(1.0, [&] { order.push_back(-2); });
  const auto dispatch = [&](Time, EventId, EventQueue::Callback& action) {
    action();
  };
  while (q.dispatch_next(dispatch)) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueFifo, ClearResetsFifoLane) {
  EventQueue q;
  for (int i = 0; i < 100; ++i) {
    q.schedule_monotone(static_cast<double>(i), [] {});
  }
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeInfinity);
  // The lane's tail-key state must reset too: a fresh monotone stream
  // starting from zero belongs in the ring, and ordering must hold.
  std::vector<int> order;
  q.schedule_monotone(0.5, [&] { order.push_back(1); });
  q.schedule_monotone(0.75, [&] { order.push_back(2); });
  while (auto event = q.pop()) event->action();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueFifo, RingGrowthPreservesOrder) {
  // Push far past the initial ring capacity with live wrap-around: pop half,
  // push more, so fifo_grow() has to relocate a wrapped window.
  EventQueue q;
  std::vector<int> order;
  int next = 0;
  for (int i = 0; i < 96; ++i) {
    q.schedule_monotone(static_cast<double>(next),
                        [&order, next] { order.push_back(next); });
    ++next;
  }
  for (int i = 0; i < 48; ++i) {
    auto event = q.pop();
    ASSERT_TRUE(event.has_value());
    event->action();
  }
  for (int i = 0; i < 200; ++i) {
    q.schedule_monotone(static_cast<double>(next),
                        [&order, next] { order.push_back(next); });
    ++next;
  }
  while (auto event = q.pop()) event->action();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(next));
  for (int i = 0; i < next; ++i) EXPECT_EQ(order[i], i);
}

// Randomized cross-lane check against a reference model: mixed
// schedule/schedule_monotone/cancel/pop must match a sorted multimap on
// (time, insertion seq) exactly. The monotone stream uses its own
// non-decreasing clock; occasional below-tail times exercise the fallback.
TEST(EventQueueFifo, MixedLanesMatchReferenceModel) {
  for (const std::uint64_t seed : {11u, 29u, 4242u}) {
    RandomStream rng(seed);
    EventQueue q;
    std::map<std::pair<double, std::uint64_t>, EventId> model;
    std::vector<std::pair<std::pair<double, std::uint64_t>, EventId>> live;
    std::uint64_t seq = 0;
    double clock = 0.0;

    for (int op = 0; op < 4000; ++op) {
      const double dice = rng.uniform01();
      if (dice < 0.35) {
        // Monotone stream; every 16th draw dips below the current clock to
        // hit the heap fallback, every 8th repeats the clock to make ties.
        double at;
        if (op % 16 == 15) {
          at = clock * rng.uniform01();
        } else if (op % 8 == 7) {
          at = clock;
        } else {
          at = (clock += rng.uniform(0.0, 1.0));
        }
        const EventId id = q.schedule_monotone(at, [] {});
        model.emplace(std::make_pair(at, seq), id);
        live.push_back({{at, seq}, id});
        ++seq;
      } else if (dice < 0.55) {
        const double at = rng.uniform(0.0, clock + 10.0);
        const EventId id = q.schedule(at, [] {});
        model.emplace(std::make_pair(at, seq), id);
        live.push_back({{at, seq}, id});
        ++seq;
      } else if (dice < 0.7 && !live.empty()) {
        const std::size_t pick =
            static_cast<std::size_t>(rng.uniform_index(live.size()));
        const auto [key, id] = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        ASSERT_TRUE(q.cancel(id));
        ASSERT_EQ(model.erase(key), 1u);
      } else if (!model.empty()) {
        const auto expected = model.begin();
        ASSERT_DOUBLE_EQ(q.next_time(), expected->first.first);
        const auto event = q.pop();
        ASSERT_TRUE(event.has_value());
        ASSERT_EQ(event->id, expected->second);
        for (std::size_t i = 0; i < live.size(); ++i) {
          if (live[i].second == expected->second) {
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
        model.erase(expected);
      }
      ASSERT_EQ(q.size(), model.size());
    }

    while (!model.empty()) {
      const auto expected = model.begin();
      const auto event = q.pop();
      ASSERT_TRUE(event.has_value());
      ASSERT_EQ(event->id, expected->second);
      model.erase(expected);
    }
    ASSERT_FALSE(q.pop().has_value());
  }
}

}  // namespace
}  // namespace tempriv::sim
