#include "core/erlang_tuned.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <variant>

#include "core/discipline_spec.h"
#include "metrics/stats.h"
#include "queueing/erlang.h"
#include "relay_network.h"
#include "test_context.h"

namespace tempriv::core {
namespace {

using testing::RelayNetwork;
using testing::TestContext;

ErlangTunedRcad::Config default_config() {
  ErlangTunedRcad::Config config;
  config.capacity = 10;
  config.target_loss = 0.1;
  config.max_mean_delay = 120.0;
  config.ewma_weight = 0.1;
  return config;
}

void drive_poisson(ErlangTunedRcad& node, TestContext& ctx, double rate,
                   int packets, std::uint64_t seed) {
  sim::RandomStream traffic(seed);
  double at = 0.0;
  for (int i = 0; i < packets; ++i) {
    at += traffic.exponential_rate(rate);
    ctx.simulator().schedule_at(at, [&node, &ctx, i] {
      node.on_packet(ctx.make_packet(static_cast<std::uint64_t>(i)), ctx);
    });
  }
  ctx.simulator().run();
}

TEST(ErlangTunedRcad, StartsAtMaxDelayAndConvergesToDimensionedMean) {
  TestContext ctx(1);
  ErlangTunedRcad node(default_config());
  EXPECT_DOUBLE_EQ(node.current_mean_delay(), 120.0);
  // λ = 0.5, k = 10, α = 0.1: ρ* = E⁻¹(0.1, 10) ≈ 7.51 -> mean ≈ 15.
  drive_poisson(node, ctx, 0.5, 4000, 2);
  const double rho_star = queueing::max_rho_for_loss(0.1, 10);
  // The EWMA snapshot jitters (CV ≈ sqrt(weight/2) ≈ 22%); assert the
  // operating point, not the instantaneous estimate.
  EXPECT_NEAR(node.rate_estimate(), 0.5, 0.2);
  EXPECT_NEAR(node.current_mean_delay(), rho_star / 0.5,
              rho_star / 0.5 * 0.45);
}

TEST(ErlangTunedRcad, IdleNodeUsesTheDelayCap) {
  TestContext ctx(3);
  ErlangTunedRcad node(default_config());
  // λ = 0.01: the dimensioned mean ρ*/λ ≈ 751 exceeds the 120 cap.
  drive_poisson(node, ctx, 0.01, 300, 4);
  EXPECT_DOUBLE_EQ(node.current_mean_delay(), 120.0);
}

TEST(ErlangTunedRcad, PreemptionRateIsFlatAcrossLoads) {
  // The whole point: the realized preemption rate stays in a narrow band
  // (~2×E(ρ*,k), the RCAD refresh effect — see the header note) across a
  // 25× load range, where static RCAD would collapse into near-certain
  // preemption at the high end.
  double min_rate = 1.0;
  double max_rate = 0.0;
  for (const double rate : {0.2, 0.5, 2.0, 5.0}) {
    TestContext ctx(static_cast<std::uint64_t>(rate * 100));
    ErlangTunedRcad node(default_config());
    drive_poisson(node, ctx, rate, 6000, 5);
    const double preemption_rate =
        static_cast<double>(node.preemptions()) / 6000.0;
    EXPECT_LT(preemption_rate, 0.3) << "rate " << rate;
    EXPECT_EQ(ctx.transmitted().size(), 6000u) << "rate " << rate;
    min_rate = std::min(min_rate, preemption_rate);
    max_rate = std::max(max_rate, preemption_rate);
  }
  EXPECT_LT(max_rate / min_rate, 1.5);

  // Contrast: static RCAD dimensioned for λ = 0.25 (mean 30), offered
  // λ = 5 — nearly every arrival preempts.
  RelayNetwork static_node(DisciplineSpec::rcad_exponential(30.0, 10), 77);
  sim::RandomStream traffic(5);
  double at = 0.0;
  for (int i = 0; i < 6000; ++i) {
    at += traffic.exponential_rate(5.0);
    static_node.inject_at(at);
  }
  static_node.simulator().run();
  EXPECT_EQ(static_node.departures().size(), 6000u);
  EXPECT_GT(static_cast<double>(static_node.preemptions()) / 6000.0, 0.6);
}

TEST(ErlangTunedRcad, DeliversMoreDelayThanStaticRcadAtLowLoad) {
  // At λ = 0.1 a static 1/µ = 30 node delays by 30 on average; the tuned
  // node stretches toward the 120 cap.
  TestContext ctx(6);
  ErlangTunedRcad node(default_config());
  drive_poisson(node, ctx, 0.1, 3000, 7);
  metrics::StreamingStats holding;
  // Transmission time − scheduled arrival index is awkward here; instead
  // verify the steady-state mean delay parameter directly.
  EXPECT_GT(node.current_mean_delay(), 70.0);
  (void)holding;
}

TEST(ErlangTunedRcad, BufferNeverExceedsCapacity) {
  TestContext ctx(8);
  ErlangTunedRcad node(default_config());
  sim::RandomStream traffic(9);
  double at = 0.0;
  std::size_t max_buffered = 0;
  for (int i = 0; i < 3000; ++i) {
    at += traffic.exponential_rate(4.0);  // heavy overload
    ctx.simulator().schedule_at(at, [&node, &ctx, &max_buffered, i] {
      node.on_packet(ctx.make_packet(static_cast<std::uint64_t>(i)), ctx);
      max_buffered = std::max(max_buffered, node.buffered());
    });
  }
  ctx.simulator().run();
  EXPECT_LE(max_buffered, default_config().capacity);
  EXPECT_EQ(ctx.transmitted().size(), 3000u);
}

TEST(ErlangTunedRcad, ValidatesConfig) {
  ErlangTunedRcad::Config bad = default_config();
  bad.capacity = 0;
  EXPECT_THROW(ErlangTunedRcad{bad}, std::invalid_argument);
  bad = default_config();
  bad.target_loss = 1.0;
  EXPECT_THROW(ErlangTunedRcad{bad}, std::invalid_argument);
  bad = default_config();
  bad.max_mean_delay = 0.0;
  EXPECT_THROW(ErlangTunedRcad{bad}, std::invalid_argument);
  bad = default_config();
  bad.ewma_weight = 0.0;
  EXPECT_THROW(ErlangTunedRcad{bad}, std::invalid_argument);
}

TEST(ErlangTunedRcad, FactoryProducesIndependentNodes) {
  const auto factory = erlang_tuned_rcad_factory(default_config());
  using Object = std::unique_ptr<net::ForwardingDiscipline>;
  auto a = std::get<Object>(factory(0, 5));
  auto b = std::get<Object>(factory(1, 3));
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->buffered(), 0u);
}

}  // namespace
}  // namespace tempriv::core
