#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace tempriv::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (auto event = q.pop()) event->action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (auto event = q.pop()) event->action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PopOnEmptyReturnsNullopt) {
  EventQueue q;
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_FALSE(q.cancel(EventId{9999}));
}

TEST(EventQueue, CancelAfterPopReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  ASSERT_TRUE(q.pop().has_value());
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  const EventId id = q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(3.0, [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(id));
  while (auto event = q.pop()) event->action();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, SizeCountsOnlyLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelledHead) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  q.cancel(a);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, NextTimeOnEmptyIsInfinity) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule(i, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop().has_value());
}

TEST(EventQueue, ManyInterleavedCancelsStayConsistent) {
  EventQueue q;
  std::vector<EventId> ids;
  ids.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.schedule(static_cast<double>(i % 37), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) EXPECT_TRUE(q.cancel(ids[i]));
  EXPECT_EQ(q.size(), 500u);
  std::size_t popped = 0;
  double last = -1.0;
  while (auto event = q.pop()) {
    EXPECT_GE(event->at, last);
    last = event->at;
    ++popped;
  }
  EXPECT_EQ(popped, 500u);
}

TEST(EventQueue, ClearResetsPoolForReuse) {
  // Regression: clear() must reset the slot pool and tombstone state so the
  // queue is immediately reusable — schedule -> clear -> reschedule.
  EventQueue q;
  std::vector<EventId> old_ids;
  for (int i = 0; i < 64; ++i) {
    old_ids.push_back(q.schedule(static_cast<double>(i), [] {}));
  }
  // Leave tombstones in the heap so clear() also has to discard those.
  for (std::size_t i = 0; i < old_ids.size(); i += 3) q.cancel(old_ids[i]);
  q.clear();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kTimeInfinity);

  int fired = 0;
  q.schedule(7.0, [&] { ++fired; });
  const EventId later = q.schedule(9.0, [&] { ++fired; });
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.next_time(), 7.0);
  // Handles from before clear() are dead and must not cancel the new
  // events now occupying their recycled slots.
  for (const EventId id : old_ids) EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.cancel(later));
  auto event = q.pop();
  ASSERT_TRUE(event.has_value());
  EXPECT_DOUBLE_EQ(event->at, 7.0);
  event->action();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(EventQueue, ReservePreallocatesSlots) {
  EventQueue q;
  q.reserve(2500);
  EXPECT_EQ(q.slot_count(), 0u);  // reserve allocates chunks, not occupants
  std::vector<EventId> ids;
  for (int i = 0; i < 2500; ++i) {
    ids.push_back(q.schedule(static_cast<double>(i), [] {}));
  }
  EXPECT_EQ(q.size(), 2500u);
  EXPECT_EQ(q.slot_count(), 2500u);
  double last = -1.0;
  while (auto event = q.pop()) {
    EXPECT_GT(event->at, last);
    last = event->at;
  }
}

TEST(EventQueue, StaleHandleNeverCancelsSlotReuser) {
  // Fire an event, then recycle its pool slot many times; the original
  // handle must stay dead (sequence numbers make handles globally unique).
  EventQueue q;
  const EventId original = q.schedule(1.0, [] {});
  ASSERT_TRUE(q.pop().has_value());
  EXPECT_FALSE(q.cancel(original));
  for (int round = 0; round < 100; ++round) {
    const EventId reuse = q.schedule(1.0, [] {});
    EXPECT_NE(reuse, original);
    EXPECT_FALSE(q.cancel(original));
    ASSERT_TRUE(q.pop().has_value());
  }
}

TEST(EventQueue, ReservedSeqSortsLikeSchedulingAtReservation) {
  // An event scheduled on a number reserved between two schedule() calls
  // runs between them on a time tie, wherever it is inserted.
  EventQueue q;
  std::vector<int> order;
  q.schedule(5.0, [&] { order.push_back(0); });
  const std::uint64_t seq = q.reserve_seq();
  q.schedule(5.0, [&] { order.push_back(2); });
  q.schedule(5.0, seq, [&] { order.push_back(1); });
  while (auto event = q.pop()) event->action();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, RekeyMovesEventInPlace) {
  EventQueue q;
  std::vector<int> order;
  const EventId a = q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(3.0, [&] { order.push_back(3); });
  const std::uint64_t slot_before = q.slot_count();
  // Later, then back earlier on a time tie: the reserved number is newer
  // than event 2's, so it sorts after it.
  const EventId later = q.rekey(a, 4.0, q.reserve_seq());
  ASSERT_TRUE(later.valid());
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  const EventId tie = q.rekey(later, 2.0, q.reserve_seq());
  ASSERT_TRUE(tie.valid());
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.slot_count(), slot_before);  // no slot traffic
  // Handles from before each re-key are dead; the current one works.
  EXPECT_FALSE(q.cancel(a));
  EXPECT_FALSE(q.cancel(later));
  while (auto event = q.pop()) event->action();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
  EXPECT_FALSE(q.cancel(tie));
}

TEST(EventQueue, RekeyRejectsFifoDeadAndInvalidHandles) {
  EventQueue q;
  const EventId fifo = q.schedule_monotone(1.0, [] {});
  const EventId fired = q.schedule(0.5, [] {});
  const EventId cancelled = q.schedule(2.0, [] {});
  ASSERT_TRUE(q.cancel(cancelled));
  ASSERT_EQ(q.pop()->id, fired);
  const std::uint64_t seq = q.reserve_seq();
  EXPECT_FALSE(q.rekey(fifo, 0.25, seq).valid());
  EXPECT_FALSE(q.rekey(fired, 0.25, seq).valid());
  EXPECT_FALSE(q.rekey(cancelled, 0.25, seq).valid());
  EXPECT_FALSE(q.rekey(EventId{}, 0.25, seq).valid());
  // Nothing moved: the fifo event is still the only one, at its time.
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_TRUE(q.cancel(fifo));
}

TEST(EventQueue, EventIdsAreUnique) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  const EventId b = q.schedule(1.0, [] {});
  EXPECT_NE(a, b);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(EventId{}.valid());
}

}  // namespace
}  // namespace tempriv::sim
