// Model-based randomized test: the EventQueue against a trivially-correct
// reference model (a sorted map), across thousands of interleaved
// schedule/reserve/rekey/cancel/pop operations.

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"

namespace tempriv::sim {
namespace {

class EventQueueFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueFuzzTest, MatchesReferenceModel) {
  RandomStream rng(GetParam());
  EventQueue queue;
  // Reference: (time, model seq) -> id; mirrors the tie-break contract. The
  // model seq counts every number the queue draws — schedule() and
  // reserve_seq() alike — so it orders events exactly as the queue must.
  using Key = std::pair<double, std::uint64_t>;
  std::map<Key, EventId> model;
  std::uint64_t seq = 0;
  std::vector<std::pair<Key, EventId>> live;
  // Numbers drawn by reserve_seq() and not yet used: {queue seq, model seq}.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> reserved;
  // Handles whose events fired, were cancelled, were re-keyed away, or were
  // dropped by clear(). Slots recycle aggressively under this churn, so
  // these exercise the stale-handle guarantee: a dead id must never alias a
  // newer event.
  std::vector<EventId> dead;
  double last_at = 0.0;
  // Every 8th time reuses the previous draw so exact time ties (broken by
  // sequence number) stay exercised.
  auto draw_time = [&](int op) {
    return op % 8 == 7 ? last_at : (last_at = rng.uniform(0.0, 100.0));
  };
  // A reserved number: an earlier one from the pool half the time.
  auto take_reserved = [&]() {
    if (!reserved.empty() && rng.uniform01() < 0.5) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_index(reserved.size()));
      const auto r = reserved[pick];
      reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(pick));
      return r;
    }
    return std::make_pair(queue.reserve_seq(), seq++);
  };

  for (int op = 0; op < 5000; ++op) {
    const double dice = rng.uniform01();
    if (dice < 0.40) {
      const double at = draw_time(op);
      const EventId id = queue.schedule(at, [] {});
      model.emplace(Key{at, seq}, id);
      live.push_back({{at, seq}, id});
      ++seq;
    } else if (dice < 0.46) {
      reserved.emplace_back(queue.reserve_seq(), seq++);
    } else if (dice < 0.52) {
      // Schedule on a reserved number: the event sorts where one scheduled
      // at the reserving instant would have.
      const auto [queue_seq, model_seq] = take_reserved();
      const double at = draw_time(op);
      const EventId id = queue.schedule(at, queue_seq, [] {});
      ASSERT_TRUE(model.emplace(Key{at, model_seq}, id).second);
      live.push_back({{at, model_seq}, id});
    } else if (dice < 0.62 && !live.empty()) {
      // Re-key a random live event in place to a new (time, reserved seq).
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_index(live.size()));
      const auto [old_key, old_id] = live[pick];
      const auto [queue_seq, model_seq] = take_reserved();
      const double at = draw_time(op);
      const EventId id = queue.rekey(old_id, at, queue_seq);
      ASSERT_TRUE(id.valid());
      ASSERT_NE(id, old_id);
      // The old handle died with the old key.
      ASSERT_FALSE(queue.cancel(old_id));
      ASSERT_FALSE(queue.rekey(old_id, at, queue_seq).valid());
      dead.push_back(old_id);
      ASSERT_EQ(model.erase(old_key), 1u);
      ASSERT_TRUE(model.emplace(Key{at, model_seq}, id).second);
      live[pick] = {{at, model_seq}, id};
    } else if (dice < 0.75 && !live.empty()) {
      // Cancel a random live event.
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_index(live.size()));
      const auto [key, id] = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      ASSERT_TRUE(queue.cancel(id));
      ASSERT_EQ(model.erase(key), 1u);
      // Double-cancel must fail.
      ASSERT_FALSE(queue.cancel(id));
      dead.push_back(id);
    } else if (dice < 0.99 && !model.empty()) {
      // Pop: must match the model's earliest (time, seq) entry.
      const auto expected = model.begin();
      ASSERT_DOUBLE_EQ(queue.next_time(), expected->first.first);
      const auto event = queue.pop();
      ASSERT_TRUE(event.has_value());
      ASSERT_EQ(event->id, expected->second);
      ASSERT_DOUBLE_EQ(event->at, expected->first.first);
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].second == expected->second) {
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      model.erase(expected);
      // Cancelling after the event fired must fail, now and forever.
      ASSERT_FALSE(queue.cancel(event->id));
      dead.push_back(event->id);
    } else if (dice >= 0.99) {
      // Rare full reset: everything pending dies, handles included.
      // Reserved numbers stay valid: no pending event carries them.
      queue.clear();
      for (const auto& entry : live) dead.push_back(entry.second);
      live.clear();
      model.clear();
    }
    if (!dead.empty()) {
      // A recycled slot must never resurrect an old handle, for cancel or
      // for rekey (which must then change nothing).
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_index(dead.size()));
      ASSERT_FALSE(queue.cancel(dead[pick]));
      ASSERT_FALSE(queue.rekey(dead[pick], 0.0, 1).valid());
    }
    ASSERT_EQ(queue.size(), model.size());
  }

  // Drain: remaining events come out in exact model order.
  while (!model.empty()) {
    const auto expected = model.begin();
    const auto event = queue.pop();
    ASSERT_TRUE(event.has_value());
    ASSERT_EQ(event->id, expected->second);
    model.erase(expected);
  }
  ASSERT_FALSE(queue.pop().has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 12345u));

}  // namespace
}  // namespace tempriv::sim
