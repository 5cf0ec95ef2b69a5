// The built-in disciplines (core::DisciplineSpec), driven through the
// Network forwarding path every simulation runs.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>

#include "core/discipline_spec.h"
#include "core/factories.h"
#include "relay_network.h"

namespace tempriv::core {
namespace {

using testing::RelayNetwork;

/// A factory returning `spec` as is — unlike the DisciplineSpec helpers, it
/// can hand Network a spec that was never validated.
net::DisciplineFactory raw(DisciplineSpec spec) {
  return [spec = std::move(spec)](net::NodeId, std::uint16_t) { return spec; };
}

TEST(ImmediateForwarding, TransmitsInstantly) {
  RelayNetwork relay(DisciplineSpec::immediate());
  relay.inject();
  EXPECT_EQ(relay.buffered(), 0u);
  relay.simulator().run();
  ASSERT_EQ(relay.departures().size(), 1u);
  EXPECT_DOUBLE_EQ(relay.departures()[0].time, 0.0);
  EXPECT_EQ(relay.preemptions(), 0u);
  EXPECT_EQ(relay.drops(), 0u);
}

TEST(UnlimitedDelaying, HoldsEveryPacketUntilItsDelayExpires) {
  RelayNetwork relay(
      DisciplineSpec::unlimited(std::make_shared<ConstantDelay>(3.0)));
  for (int i = 0; i < 100; ++i) relay.inject();
  EXPECT_EQ(relay.buffered(), 100u);  // no capacity limit
  relay.simulator().run();
  EXPECT_EQ(relay.departures().size(), 100u);
  EXPECT_EQ(relay.buffered(), 0u);
  for (const auto& departure : relay.departures()) {
    EXPECT_DOUBLE_EQ(departure.time, 3.0);
  }
}

TEST(DropTailDelaying, DropsWhenFull) {
  RelayNetwork relay(
      DisciplineSpec::droptail(std::make_shared<ConstantDelay>(100.0), 10));
  for (int i = 0; i < 15; ++i) relay.inject();
  EXPECT_EQ(relay.buffered(), 10u);
  EXPECT_EQ(relay.drops(), 5u);
  EXPECT_EQ(relay.preemptions(), 0u);
  relay.simulator().run();
  // Only the 10 admitted packets are ever transmitted.
  EXPECT_EQ(relay.departures().size(), 10u);
}

TEST(DropTailDelaying, ValidatesCapacity) {
  const auto no_delay = std::make_shared<NoDelay>();
  EXPECT_THROW(DisciplineSpec::droptail(no_delay, 0), std::invalid_argument);
  EXPECT_THROW(
      RelayNetwork(raw({DisciplineKind::kDropTail, no_delay, 0,
                        VictimPolicy::kShortestRemaining})),
      std::invalid_argument);
}

TEST(RcadDiscipline, PreemptsInsteadOfDropping) {
  RelayNetwork relay(
      DisciplineSpec::rcad(std::make_shared<ConstantDelay>(100.0), 10));
  for (int i = 0; i < 15; ++i) relay.inject();
  EXPECT_EQ(relay.buffered(), 10u);  // never exceeds capacity
  EXPECT_EQ(relay.preemptions(), 5u);
  EXPECT_EQ(relay.drops(), 0u);
  // The 5 victims were transmitted immediately: on the link, not held.
  EXPECT_EQ(relay.network().packets_in_flight(), 5u);
  relay.simulator().run();
  // Every packet is eventually transmitted exactly once: 15 total, the
  // victims first (at t = 0).
  ASSERT_EQ(relay.departures().size(), 15u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(relay.departures()[i].time, 0.0);
  }
  EXPECT_DOUBLE_EQ(relay.departures()[5].time, 100.0);
}

TEST(RcadDiscipline, VictimIsShortestRemainingDelay) {
  // Exponential delays make the shortest-remaining packet depend on the
  // draws, so find it from a same-seed run without the fourth packet: the
  // first of packets 0-2 to leave on its own is the one RCAD must preempt.
  const DisciplineSpec spec = DisciplineSpec::rcad_exponential(50.0, 3);
  RelayNetwork undisturbed(spec, 7);
  for (int i = 0; i < 3; ++i) undisturbed.inject();
  undisturbed.simulator().run();
  ASSERT_EQ(undisturbed.departures().size(), 3u);
  const std::uint64_t shortest = undisturbed.departures()[0].uid;

  RelayNetwork relay(spec, 7);
  for (int i = 0; i < 4; ++i) relay.inject();
  EXPECT_EQ(relay.buffered(), 3u);
  EXPECT_EQ(relay.preemptions(), 1u);
  relay.simulator().run();
  ASSERT_EQ(relay.departures().size(), 4u);
  EXPECT_DOUBLE_EQ(relay.departures()[0].time, 0.0);
  EXPECT_EQ(relay.departures()[0].uid, shortest);
}

TEST(RcadDiscipline, NoPreemptionBelowCapacity) {
  RelayNetwork relay(DisciplineSpec::rcad_exponential(5.0, 10));
  for (int i = 0; i < 10; ++i) relay.inject();
  EXPECT_EQ(relay.preemptions(), 0u);
}

TEST(RcadDiscipline, EffectiveDelayShrinksUnderLoad) {
  // The adaptive-µ property: at overload the realized mean delay collapses
  // from 1/µ toward k/λ (here: 10 slots, deterministic 1-unit arrivals).
  RelayNetwork relay(DisciplineSpec::rcad_exponential(100.0, 10));
  constexpr int kPackets = 300;
  for (int i = 0; i < kPackets; ++i) relay.inject_at(static_cast<double>(i));
  relay.simulator().run();
  EXPECT_EQ(relay.departures().size(), static_cast<std::size_t>(kPackets));
  EXPECT_GT(relay.preemptions(), 200u);  // heavy preemption
  // Mean realized holding time ~ k/λ = 10, far below the configured 100.
  // Packet uid i was injected at t = i.
  double total_delay = 0.0;
  for (const auto& departure : relay.departures()) {
    total_delay += departure.time - static_cast<double>(departure.uid);
  }
  const double mean_delay = total_delay / kPackets;
  EXPECT_LT(mean_delay, 25.0);
  EXPECT_GT(mean_delay, 2.0);
}

TEST(RcadDiscipline, ValidatesCapacity) {
  const auto no_delay = std::make_shared<NoDelay>();
  EXPECT_THROW(DisciplineSpec::rcad(no_delay, 0), std::invalid_argument);
  EXPECT_THROW(RelayNetwork(raw({DisciplineKind::kRcad, no_delay, 0,
                                 VictimPolicy::kShortestRemaining})),
               std::invalid_argument);
}

TEST(Factories, ProduceExpectedDisciplineTypes) {
  const auto spec_of = [](const net::DisciplineFactory& factory) {
    return std::get<DisciplineSpec>(factory(0, 1));
  };
  EXPECT_EQ(spec_of(immediate_factory()).kind, DisciplineKind::kImmediate);

  const DisciplineSpec unlimited = spec_of(unlimited_exponential_factory(30.0));
  EXPECT_EQ(unlimited.kind, DisciplineKind::kUnlimitedDelay);
  EXPECT_DOUBLE_EQ(unlimited.delay->mean(), 30.0);

  const DisciplineSpec droptail =
      spec_of(droptail_exponential_factory(30.0, 10));
  EXPECT_EQ(droptail.kind, DisciplineKind::kDropTail);
  EXPECT_EQ(droptail.capacity, 10u);

  const DisciplineSpec rcad =
      spec_of(rcad_exponential_factory(30.0, 10, VictimPolicy::kRandom));
  EXPECT_EQ(rcad.kind, DisciplineKind::kRcad);
  EXPECT_EQ(rcad.capacity, 10u);
  EXPECT_EQ(rcad.victim, VictimPolicy::kRandom);
}

TEST(Factories, FactoriesAreReusableAcrossNodes) {
  const auto factory = rcad_exponential_factory(30.0, 10);
  const auto a = std::get<DisciplineSpec>(factory(0, 1));
  const auto b = std::get<DisciplineSpec>(factory(1, 2));
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.capacity, b.capacity);
  EXPECT_EQ(a.delay, b.delay);  // one distribution shared network-wide

  // Two forwarding nodes built from the same factory buffer independently.
  sim::Simulator simulator;
  net::Network network(simulator, net::Topology::line(3), factory, {},
                       sim::RandomStream(1));
  network.originate(1, crypto::SealedPayload{});
  EXPECT_EQ(network.node_buffered(0), 0u);
  EXPECT_EQ(network.node_buffered(1), 1u);
}

TEST(Factories, ProfileFactoryScalesMeanWithHops) {
  // Profile: mean = 10 * hops. The relay is told it sits 5 hops out, so it
  // must delay by Exp(50).
  const auto profile = unlimited_exponential_profile_factory(
      [](std::uint16_t hops) { return 10.0 * hops; });
  RelayNetwork relay([&profile](net::NodeId id, std::uint16_t) {
    return profile(id, 5);
  });
  constexpr int kPackets = 2000;
  for (int i = 0; i < kPackets; ++i) relay.inject();
  relay.simulator().run();
  ASSERT_EQ(relay.departures().size(), static_cast<std::size_t>(kPackets));
  double total = 0.0;
  for (const auto& departure : relay.departures()) total += departure.time;
  EXPECT_NEAR(total / kPackets, 50.0, 3.0);
}

}  // namespace
}  // namespace tempriv::core
