// Property sweep: RCAD invariants under randomized traffic, across a grid
// of (capacity, traffic intensity, delay mean) operating points, driven
// through the Network forwarding path (one relay in front of the sink).

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/discipline_spec.h"
#include "relay_network.h"

namespace tempriv::core {
namespace {

using testing::RelayNetwork;

class RcadPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<std::size_t /*capacity*/, double /*interarrival*/,
                     double /*mean_delay*/>> {};

TEST_P(RcadPropertyTest, InvariantsHoldUnderRandomTraffic) {
  const auto [capacity, interarrival, mean_delay] = GetParam();
  RelayNetwork relay(DisciplineSpec::rcad_exponential(mean_delay, capacity),
                     capacity * 1000 +
                         static_cast<std::uint64_t>(interarrival * 10));

  constexpr int kPackets = 2000;
  sim::RandomStream traffic(99);
  std::vector<double> injected_at;  // indexed by uid
  std::size_t max_buffered = 0;
  double at = 0.0;
  for (int i = 0; i < kPackets; ++i) {
    at += traffic.exponential_mean(interarrival);
    injected_at.push_back(at);
    relay.simulator().schedule_at(at, [&relay, &max_buffered] {
      relay.inject();
      max_buffered = std::max(max_buffered, relay.buffered());
    });
  }
  relay.simulator().run();

  // Invariant 1: the buffer never exceeds its capacity.
  EXPECT_LE(max_buffered, capacity);
  // Invariant 2: conservation — every packet transmitted exactly once.
  EXPECT_EQ(relay.departures().size(), static_cast<std::size_t>(kPackets));
  EXPECT_EQ(relay.buffered(), 0u);
  // Invariant 3: RCAD never drops.
  EXPECT_EQ(relay.drops(), 0u);
  // Invariant 4: each transmitted uid is unique.
  std::vector<bool> seen(kPackets, false);
  for (const auto& departure : relay.departures()) {
    ASSERT_LT(departure.uid, static_cast<std::uint64_t>(kPackets));
    EXPECT_FALSE(seen[departure.uid])
        << "duplicate transmission " << departure.uid;
    seen[departure.uid] = true;
  }
  // Invariant 5: causality — no packet leaves before it arrived, and the
  // departures are recorded in non-decreasing time order.
  for (std::size_t i = 0; i < relay.departures().size(); ++i) {
    const auto& departure = relay.departures()[i];
    EXPECT_GE(departure.time, injected_at[departure.uid]);
    if (i > 0) {
      EXPECT_GE(departure.time, relay.departures()[i - 1].time);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OperatingPoints, RcadPropertyTest,
    ::testing::Combine(
        ::testing::Values(std::size_t{1}, std::size_t{3}, std::size_t{10},
                          std::size_t{32}),
        ::testing::Values(0.5, 2.0, 10.0),   // inter-arrival
        ::testing::Values(5.0, 30.0)));      // mean privacy delay

class DropTailPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(DropTailPropertyTest, ConservationWithDrops) {
  const auto [capacity, interarrival] = GetParam();
  RelayNetwork relay(DisciplineSpec::droptail_exponential(20.0, capacity), 7);
  constexpr int kPackets = 2000;
  sim::RandomStream traffic(5);
  double at = 0.0;
  for (int i = 0; i < kPackets; ++i) {
    at += traffic.exponential_mean(interarrival);
    relay.inject_at(at);
  }
  relay.simulator().run();
  // transmitted + dropped = offered; buffer drains completely.
  EXPECT_EQ(relay.departures().size() + relay.drops(),
            static_cast<std::size_t>(kPackets));
  EXPECT_EQ(relay.buffered(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    OperatingPoints, DropTailPropertyTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{5},
                                         std::size_t{20}),
                       ::testing::Values(0.5, 4.0)));

}  // namespace
}  // namespace tempriv::core
