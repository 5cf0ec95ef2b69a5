#include "core/delay_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "test_context.h"

namespace tempriv::core {
namespace {

using testing::TestContext;

TEST(DelayBuffer, RequiresDistribution) {
  EXPECT_THROW(DelayBuffer(nullptr), std::invalid_argument);
}

TEST(DelayBuffer, ReleasesAfterSampledDelay) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ConstantDelay>(4.0));
  buffer.admit(ctx.make_packet(1), ctx);
  EXPECT_EQ(buffer.size(), 1u);
  ctx.simulator().run();
  ASSERT_EQ(ctx.transmitted().size(), 1u);
  EXPECT_DOUBLE_EQ(ctx.transmitted()[0].first, 4.0);
  EXPECT_EQ(ctx.transmitted()[0].second.uid, 1u);
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(DelayBuffer, SnapshotRecordsReleaseTimes) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ConstantDelay>(10.0));
  buffer.admit(ctx.make_packet(7), ctx);
  const auto held = buffer.snapshot();
  ASSERT_EQ(held.size(), 1u);
  EXPECT_DOUBLE_EQ(held[0].enqueue_time, 0.0);
  EXPECT_DOUBLE_EQ(held[0].release_time, 10.0);
  EXPECT_EQ(held[0].packet.uid, 7u);
}

TEST(DelayBuffer, SnapshotPreservesAdmissionOrder) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ExponentialDelay>(5.0));
  for (std::uint64_t uid = 0; uid < 8; ++uid) {
    buffer.admit(ctx.make_packet(uid), ctx);
  }
  // Ejecting from the middle must keep the remaining relative order, exactly
  // like the pre-slot-pool vector erase did.
  buffer.eject(3, ctx);
  buffer.eject(0, ctx);
  const auto held = buffer.snapshot();
  ASSERT_EQ(held.size(), 6u);
  const std::uint64_t expected[] = {1, 2, 4, 5, 6, 7};
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i].packet.uid, expected[i]);
  }
}

TEST(DelayBuffer, EjectCancelsScheduledRelease) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ConstantDelay>(4.0));
  buffer.admit(ctx.make_packet(1), ctx);
  const net::Packet packet = buffer.eject(0, ctx);
  EXPECT_EQ(packet.uid, 1u);
  EXPECT_EQ(buffer.size(), 0u);
  ctx.simulator().run();
  // The release event was cancelled: nothing transmits.
  EXPECT_TRUE(ctx.transmitted().empty());
}

TEST(DelayBuffer, EjectValidatesIndex) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ConstantDelay>(1.0));
  EXPECT_THROW(buffer.eject(0, ctx), std::out_of_range);
}

TEST(DelayBuffer, SlotsAreRecycledAcrossAdmissions) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ConstantDelay>(1.0));
  buffer.reserve(4);
  // Churn far more packets than the working set; every one must come back
  // out exactly once even though slots (and their release events) recycle.
  for (std::uint64_t uid = 0; uid < 100; ++uid) {
    buffer.admit(ctx.make_packet(uid), ctx);
    if (buffer.size() > 3) buffer.preempt(ctx);
    ctx.simulator().run_until(ctx.simulator().now() + 0.25);
  }
  ctx.simulator().run();
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(DelayBuffer, MultiplePacketsReleaseIndependently) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ExponentialDelay>(5.0));
  for (std::uint64_t uid = 0; uid < 20; ++uid) {
    buffer.admit(ctx.make_packet(uid), ctx);
  }
  EXPECT_EQ(buffer.size(), 20u);
  ctx.simulator().run();
  EXPECT_EQ(ctx.transmitted().size(), 20u);
  EXPECT_EQ(buffer.size(), 0u);
  // Releases are in time order (EventQueue contract).
  for (std::size_t i = 1; i < ctx.transmitted().size(); ++i) {
    EXPECT_GE(ctx.transmitted()[i].first, ctx.transmitted()[i - 1].first);
  }
}

TEST(DelayBuffer, ExponentialDelaysCanReorderPackets) {
  // §3.2: independent exponential delays do not preserve creation order —
  // with enough packets at least one pair must swap.
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ExponentialDelay>(10.0));
  for (std::uint64_t uid = 0; uid < 50; ++uid) {
    buffer.admit(ctx.make_packet(uid), ctx);
  }
  ctx.simulator().run();
  bool reordered = false;
  for (std::size_t i = 1; i < ctx.transmitted().size(); ++i) {
    if (ctx.transmitted()[i].second.uid <
        ctx.transmitted()[i - 1].second.uid) {
      reordered = true;
      break;
    }
  }
  EXPECT_TRUE(reordered);
}

TEST(SelectVictim, ShortestRemainingPicksClosestToDeparture) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ExponentialDelay>(10.0));
  for (std::uint64_t uid = 0; uid < 5; ++uid) {
    buffer.admit(ctx.make_packet(uid), ctx);
  }
  const auto held = buffer.snapshot();
  const std::size_t victim =
      select_victim(held, VictimPolicy::kShortestRemaining, 0.0, ctx.rng());
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_LE(held[victim].release_time, held[i].release_time);
  }
}

TEST(SelectVictim, LongestRemainingIsOpposite) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ExponentialDelay>(10.0));
  for (std::uint64_t uid = 0; uid < 5; ++uid) {
    buffer.admit(ctx.make_packet(uid), ctx);
  }
  const auto held = buffer.snapshot();
  const std::size_t victim =
      select_victim(held, VictimPolicy::kLongestRemaining, 0.0, ctx.rng());
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_GE(held[victim].release_time, held[i].release_time);
  }
}

TEST(SelectVictim, OldestPicksEarliestEnqueue) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ConstantDelay>(100.0));
  buffer.admit(ctx.make_packet(0), ctx);
  ctx.simulator().schedule_after(1.0, [&] {
    buffer.admit(ctx.make_packet(1), ctx);
  });
  ctx.simulator().run_until(2.0);
  const auto held = buffer.snapshot();
  const std::size_t victim =
      select_victim(held, VictimPolicy::kOldest, 2.0, ctx.rng());
  EXPECT_EQ(held[victim].packet.uid, 0u);
}

TEST(SelectVictim, RandomIsInRangeAndCoversBuffer) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ExponentialDelay>(10.0));
  for (std::uint64_t uid = 0; uid < 4; ++uid) {
    buffer.admit(ctx.make_packet(uid), ctx);
  }
  const auto held = buffer.snapshot();
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) {
    const std::size_t victim =
        select_victim(held, VictimPolicy::kRandom, 0.0, ctx.rng());
    ASSERT_LT(victim, 4u);
    seen.insert(victim);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(SelectVictim, RejectsEmptyBuffer) {
  TestContext ctx;
  EXPECT_THROW(
      select_victim({}, VictimPolicy::kShortestRemaining, 0.0, ctx.rng()),
      std::invalid_argument);
}

// The indexed preempt() must pick exactly the packet the reference linear
// scan picks — for every policy, across interleaved admits/releases. This is
// the determinism contract that keeps the paper CSVs byte-identical.
class PreemptMatchesReference
    : public ::testing::TestWithParam<VictimPolicy> {};

TEST_P(PreemptMatchesReference, AcrossChurn) {
  const VictimPolicy policy = GetParam();
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ExponentialDelay>(10.0), policy);
  std::uint64_t uid = 0;
  for (int round = 0; round < 200; ++round) {
    buffer.admit(ctx.make_packet(uid++), ctx);
    if (buffer.size() >= 6) {
      // Reference choice on a snapshot, with a cloned RNG so preempt() sees
      // the same uniform draw the reference consumed.
      const auto held = buffer.snapshot();
      sim::RandomStream reference_rng = ctx.rng();
      const std::size_t expected_index = select_victim(
          held, policy, ctx.simulator().now(), reference_rng);
      const std::uint64_t expected_uid = held[expected_index].packet.uid;
      const net::Packet victim = buffer.preempt(ctx);
      EXPECT_EQ(victim.uid, expected_uid) << "round " << round;
    }
    // Let some natural releases fire so the structures churn.
    ctx.simulator().run_until(ctx.simulator().now() + 1.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, PreemptMatchesReference,
                         ::testing::Values(VictimPolicy::kShortestRemaining,
                                           VictimPolicy::kLongestRemaining,
                                           VictimPolicy::kRandom,
                                           VictimPolicy::kOldest),
                         [](const auto& info) {
                           switch (info.param) {
                             case VictimPolicy::kShortestRemaining:
                               return "ShortestRemaining";
                             case VictimPolicy::kLongestRemaining:
                               return "LongestRemaining";
                             case VictimPolicy::kRandom:
                               return "Random";
                             case VictimPolicy::kOldest:
                               return "Oldest";
                           }
                           return "Unknown";
                         });

// The one-timer contract, under every policy and random churn: the buffer
// keeps exactly one pending event while it holds packets, keyed on the
// earliest release, and packets leave in (release_time, admission) order
// at their release times. Preempt, eject and the fused preempt+admit step
// all move the root.
class DelayBufferTimer : public ::testing::TestWithParam<VictimPolicy> {};

TEST_P(DelayBufferTimer, OneTimerTracksEarliestReleaseAcrossChurn) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ExponentialDelay>(4.0), GetParam());
  sim::RandomStream dice(2024);
  // uid -> (release_time, admission index), recorded at admission.
  std::map<std::uint64_t, std::pair<double, std::uint64_t>> admitted;
  std::uint64_t uid = 0;
  auto record_admission = [&](std::uint64_t id) {
    for (const auto& held : buffer.snapshot()) {
      if (held.packet.uid == id) {
        admitted[id] = {held.release_time, id};
        return;
      }
    }
    FAIL() << "admitted packet " << id << " not held";
  };
  auto check_timer = [&] {
    const auto held = buffer.snapshot();
    ASSERT_EQ(held.size(), buffer.size());
    ASSERT_EQ(ctx.simulator().pending_events(), held.empty() ? 0u : 1u);
    if (held.empty()) return;
    double earliest = held.front().release_time;
    for (const auto& h : held) earliest = std::min(earliest, h.release_time);
    ASSERT_EQ(ctx.simulator().next_event_time(), earliest);
  };
  std::size_t released_before = 0;
  std::size_t natural_releases = 0;
  for (int op = 0; op < 3000; ++op) {
    const double d = dice.uniform01();
    if (d < 0.40 || buffer.size() == 0) {
      buffer.admit(ctx.make_packet(uid), ctx);
      record_admission(uid++);
    } else if (d < 0.55) {
      // The fused step transmits the reference victim, then admits.
      const auto held = buffer.snapshot();
      sim::RandomStream reference_rng = ctx.rng();
      const std::uint64_t expected_victim =
          held[select_victim(held, GetParam(), ctx.simulator().now(),
                             reference_rng)]
              .packet.uid;
      const std::size_t before = ctx.transmitted().size();
      released_before = before + 1;  // the victim is transmitted, not released
      buffer.preempt_and_admit(ctx.make_packet(uid), ctx);
      record_admission(uid++);
      ASSERT_EQ(ctx.transmitted().size(), before + 1);
      ASSERT_EQ(ctx.transmitted().back().second.uid, expected_victim);
      admitted.erase(expected_victim);
    } else if (d < 0.65) {
      admitted.erase(buffer.preempt(ctx).uid);
    } else if (d < 0.72) {
      const std::size_t index =
          static_cast<std::size_t>(dice.uniform_index(buffer.size()));
      admitted.erase(buffer.eject(index, ctx).uid);
    } else {
      ctx.simulator().run_until(ctx.simulator().now() + dice.uniform(0.0, 2.0));
    }
    ASSERT_NO_FATAL_FAILURE(check_timer()) << "op " << op;
    // This op's natural releases (a fused step's victim is skipped): each
    // leaves at its release time, before every packet still held.
    for (std::size_t i = released_before; i < ctx.transmitted().size(); ++i) {
      const auto& [at, packet] = ctx.transmitted()[i];
      const auto it = admitted.find(packet.uid);
      ASSERT_NE(it, admitted.end()) << "uid " << packet.uid;
      ASSERT_EQ(at, it->second.first);
      for (const auto& [other, key] : admitted) {
        if (other != packet.uid) {
          ASSERT_LT(it->second, key);
        }
      }
      admitted.erase(it);
      ++natural_releases;
    }
    released_before = ctx.transmitted().size();
  }
  EXPECT_GT(natural_releases, 300u);
  ctx.simulator().run();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(ctx.simulator().pending_events(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, DelayBufferTimer,
                         ::testing::Values(VictimPolicy::kShortestRemaining,
                                           VictimPolicy::kLongestRemaining,
                                           VictimPolicy::kRandom,
                                           VictimPolicy::kOldest),
                         [](const auto& info) {
                           switch (info.param) {
                             case VictimPolicy::kShortestRemaining:
                               return "ShortestRemaining";
                             case VictimPolicy::kLongestRemaining:
                               return "LongestRemaining";
                             case VictimPolicy::kRandom:
                               return "Random";
                             case VictimPolicy::kOldest:
                               return "Oldest";
                           }
                           return "Unknown";
                         });

TEST(DelayBufferTimer, EqualReleasesInterleaveAcrossBuffersInAdmissionOrder) {
  // Two buffers in one simulator admit alternately at the same instants, so
  // all their releases tie in time. Each buffer's single timer must carry
  // the sequence number of the packet it releases, so the releases
  // interleave in global admission order — and an event scheduled between
  // two admissions runs between their releases.
  TestContext ctx;
  DelayBuffer a(std::make_unique<ConstantDelay>(5.0));
  DelayBuffer b(std::make_unique<ConstantDelay>(5.0));
  // Releases already transmitted when each marker event ran.
  std::vector<std::size_t> marker_positions;
  auto admit_round = [&](std::uint64_t first) {
    a.admit(ctx.make_packet(first), ctx);
    b.admit(ctx.make_packet(first + 1), ctx);
    ctx.simulator().schedule_after(5.0, [&] {
      marker_positions.push_back(ctx.transmitted().size());
    });
    a.admit(ctx.make_packet(first + 2), ctx);
    b.admit(ctx.make_packet(first + 3), ctx);
  };
  admit_round(0);
  ctx.simulator().schedule_at(1.0, [&] { admit_round(10); });
  ctx.simulator().run();
  std::vector<std::uint64_t> releases;
  for (const auto& [at, packet] : ctx.transmitted()) {
    EXPECT_DOUBLE_EQ(at, packet.uid < 10 ? 5.0 : 6.0);
    releases.push_back(packet.uid);
  }
  EXPECT_EQ(releases,
            (std::vector<std::uint64_t>{0, 1, 2, 3, 10, 11, 12, 13}));
  EXPECT_EQ(marker_positions, (std::vector<std::size_t>{2, 6}));
}

TEST(DelayBufferPreempt, ThrowsOnEmptyBuffer) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ConstantDelay>(1.0));
  EXPECT_THROW(buffer.preempt(ctx), std::logic_error);
}

TEST(DelayBufferPreempt, CancelsTheVictimsRelease) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ConstantDelay>(5.0),
                     VictimPolicy::kShortestRemaining);
  buffer.admit(ctx.make_packet(0), ctx);
  buffer.admit(ctx.make_packet(1), ctx);
  const net::Packet victim = buffer.preempt(ctx);
  EXPECT_EQ(victim.uid, 0u);  // equal release times: first admitted wins
  ctx.simulator().run();
  // Only the survivor's release fires.
  ASSERT_EQ(ctx.transmitted().size(), 1u);
  EXPECT_EQ(ctx.transmitted()[0].second.uid, 1u);
}

TEST(DelayBufferPreempt, FusedStepLeavesBufferPreemptedWhenTransmitThrows) {
  // A transmit that throws mid-step must not leave the victim's heap hole
  // or a stale timer behind: the buffer ends as after preempt(), without
  // the new packet.
  class ThrowingContext final : public net::NodeContext {
   public:
    sim::Simulator& simulator() noexcept override { return sim_; }
    sim::RandomStream& rng() noexcept override { return rng_; }
    net::NodeId id() const noexcept override { return 0; }
    std::uint16_t hops_to_sink() const noexcept override { return 1; }
    void transmit(net::Packet&&) override {
      throw std::runtime_error("link down");
    }

   private:
    sim::Simulator sim_;
    sim::RandomStream rng_{7};
  };
  ThrowingContext ctx;
  DelayBuffer buffer(std::make_unique<ExponentialDelay>(10.0));
  for (std::uint64_t uid = 0; uid < 5; ++uid) {
    net::Packet packet;
    packet.uid = uid;
    buffer.admit(std::move(packet), ctx);
  }
  const auto before = buffer.snapshot();
  const std::size_t victim = select_victim(
      before, VictimPolicy::kShortestRemaining, 0.0, ctx.rng());
  net::Packet incoming;
  incoming.uid = 99;
  EXPECT_THROW(buffer.preempt_and_admit(std::move(incoming), ctx),
               std::runtime_error);
  const auto after = buffer.snapshot();
  ASSERT_EQ(after.size(), 4u);
  double earliest = after.front().release_time;
  for (const auto& held : after) {
    EXPECT_NE(held.packet.uid, before[victim].packet.uid);
    EXPECT_NE(held.packet.uid, 99u);
    earliest = std::min(earliest, held.release_time);
  }
  EXPECT_EQ(ctx.simulator().pending_events(), 1u);
  EXPECT_EQ(ctx.simulator().next_event_time(), earliest);
}

// Breaks the finite, >= 0 sample contract, which DelayDistribution (an
// open interface) only documents.
class FixedSample final : public DelayDistribution {
 public:
  explicit FixedSample(double value) : value_(value) {}
  double sample(sim::RandomStream&) const override { return value_; }
  double mean() const noexcept override { return value_; }
  double differential_entropy() const noexcept override { return 0.0; }
  std::string name() const override { return "fixed"; }
  std::unique_ptr<DelayDistribution> clone() const override {
    return std::make_unique<FixedSample>(*this);
  }

 private:
  double value_;
};

TEST(DelayBufferPreempt, FusedStepRejectsNegativeAndNanDelays) {
  // A bad draw is refused by admit() and by the fused step alike. The fused
  // step draws after the victim's transmit, so it must end as preempt()
  // followed by a refused admit(): victim sent, new packet not held, one
  // timer on the earliest remaining release.
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    TestContext ctx;
    DelayBuffer buffer(std::make_unique<ExponentialDelay>(10.0));
    for (std::uint64_t uid = 0; uid < 5; ++uid) {
      buffer.admit(ctx.make_packet(uid), ctx);
    }
    const FixedSample sample(bad);
    EXPECT_THROW(buffer.admit(ctx.make_packet(98), ctx, sample),
                 std::invalid_argument);
    ASSERT_EQ(buffer.size(), 5u);
    const auto before = buffer.snapshot();
    sim::RandomStream reference_rng = ctx.rng();
    const std::uint64_t victim =
        before[select_victim(before, VictimPolicy::kShortestRemaining, 0.0,
                             reference_rng)]
            .packet.uid;
    EXPECT_THROW(buffer.preempt_and_admit(ctx.make_packet(99), ctx, sample),
                 std::invalid_argument);
    ASSERT_EQ(ctx.transmitted().size(), 1u);
    EXPECT_EQ(ctx.transmitted()[0].second.uid, victim);
    const auto after = buffer.snapshot();
    ASSERT_EQ(after.size(), 4u);
    double earliest = after.front().release_time;
    for (const auto& held : after) {
      EXPECT_NE(held.packet.uid, victim);
      EXPECT_NE(held.packet.uid, 99u);
      earliest = std::min(earliest, held.release_time);
    }
    EXPECT_EQ(ctx.simulator().pending_events(), 1u);
    EXPECT_EQ(ctx.simulator().next_event_time(), earliest);
    ctx.simulator().run();
    EXPECT_EQ(ctx.transmitted().size(), 5u);
    EXPECT_EQ(buffer.size(), 0u);
  }
}

TEST(VictimPolicy, ToStringCoversAll) {
  EXPECT_STREQ(to_string(VictimPolicy::kShortestRemaining), "shortest-remaining");
  EXPECT_STREQ(to_string(VictimPolicy::kLongestRemaining), "longest-remaining");
  EXPECT_STREQ(to_string(VictimPolicy::kRandom), "random");
  EXPECT_STREQ(to_string(VictimPolicy::kOldest), "oldest");
}

}  // namespace
}  // namespace tempriv::core
