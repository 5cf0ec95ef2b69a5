// §4 / Eq. (5) — Erlang-loss dimensioning of the privacy delays.
//
// Table 1: the Erlang loss E(ρ, k) itself over (ρ, k), cross-checked
// against simulated M/M/k/k drop rates.
//
// Table 2: the paper's adaptive design rule on the Figure-1 routing tree:
// given per-source rate λ and per-node buffers of k slots, pick each node's
// µ so every node's drop probability is the target α = 0.1. Nodes closer
// to the sink carry more aggregated traffic and must therefore use shorter
// mean privacy delays 1/µ — the §3.3/§4 observation made concrete.

#include "bench_util.h"
#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "metrics/table.h"
#include "net/network.h"
#include "net/routing.h"
#include "net/topology.h"
#include "queueing/dimensioning.h"
#include "queueing/erlang.h"
#include "sim/simulator.h"
#include "workload/source.h"

namespace {

using namespace tempriv;

double simulate_drop_rate(double rho, std::size_t slots, std::uint64_t seed) {
  const double lambda = 0.5;
  const double mean_delay = rho / lambda;
  sim::Simulator sim;
  net::Network network(
      sim, net::Topology::line(3),
      [&](net::NodeId id, std::uint16_t) {
        if (id == 1) {
          return core::DisciplineSpec::droptail_exponential(mean_delay, slots);
        }
        return core::DisciplineSpec::immediate();
      },
      {}, sim::RandomStream(seed));
  crypto::Speck64_128::Key key{};
  key.fill(0x3C);
  crypto::PayloadCodec codec(key);
  workload::PoissonSource source(network, codec, 0, sim::RandomStream(seed + 1),
                                 lambda, 40000);
  source.start(0.0);
  sim.run();
  return static_cast<double>(network.total_drops()) /
         static_cast<double>(network.packets_originated());
}

}  // namespace

int main() {
  metrics::Table loss({"rho", "k", "Erlang E(rho,k)", "simulated drop rate"});
  std::uint64_t seed = 500;
  for (const double rho : {1.0, 5.0, 10.0, 20.0}) {
    for (const std::size_t k : {std::size_t{5}, std::size_t{10}, std::size_t{20}}) {
      loss.add_numeric_row({rho, static_cast<double>(k),
                            queueing::erlang_loss(rho, k),
                            simulate_drop_rate(rho, k, seed++)},
                           4);
    }
  }
  bench::emit("erlang_loss_vs_simulation", loss);

  // Dimensioning on the Figure-1 tree: per-source rate λ = 0.5, k = 10,
  // target drop rate α = 0.1.
  const auto built = net::Topology::paper_figure1();
  const net::RoutingTable routing(built.topology);
  queueing::RoutingTree tree;
  tree.parent.resize(built.topology.node_count());
  std::vector<double> source_rates(built.topology.node_count(), 0.0);
  for (net::NodeId id = 0; id < built.topology.node_count(); ++id) {
    const net::NodeId next = routing.next_hop(id);
    tree.parent[id] = next == net::kInvalidNode
                          ? queueing::kNoParent
                          : static_cast<std::size_t>(next);
  }
  for (const net::NodeId source : built.sources) source_rates[source] = 0.5;

  const auto node_rates = queueing::aggregate_rates(tree, source_rates);
  const auto node_mus = queueing::dimension_mu_for_loss(node_rates, 10, 0.1);

  metrics::Table dim({"hops to sink", "node traffic lambda_i",
                      "dimensioned mu_i", "mean privacy delay 1/mu_i",
                      "check E(rho,k)"});
  // Walk flow S1's path from source to sink.
  for (const net::NodeId node : routing.path_to_sink(built.sources[0])) {
    if (node == built.topology.sink()) continue;
    dim.add_numeric_row(
        {static_cast<double>(routing.hops_to_sink(node)), node_rates[node],
         node_mus[node], 1.0 / node_mus[node],
         queueing::erlang_loss(node_rates[node] / node_mus[node], 10)},
        3);
  }
  tempriv::bench::emit("erlang_dimensioning_fig1_tree", dim);

  // Total expected buffering if nodes instead ran M/M/∞ at those µ values.
  metrics::Table buffering({"policy", "expected packets buffered network-wide"});
  buffering.add_row({"uniform 1/mu = 30 everywhere",
                     metrics::format_number(
                         [&] {
                           double total = 0.0;
                           for (const double rate : node_rates) {
                             total += rate * 30.0;
                           }
                           return total;
                         }(),
                         1)});
  buffering.add_row({"Erlang-dimensioned (alpha = 0.1)",
                     metrics::format_number(
                         queueing::expected_network_buffering(node_rates, node_mus), 1)});
  tempriv::bench::emit("erlang_dimensioning_buffering", buffering);
  return 0;
}
