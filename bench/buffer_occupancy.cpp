// §4 — buffer occupancy under privacy delaying, simulator vs theory.
//
// Table 1: a single delaying node fed Poisson(λ) traffic with Exp(1/µ)
// delays is an M/M/∞ queue; its stationary occupancy must be Poisson with
// mean ρ = λ/µ (time-weighted measurement from the event-driven simulator
// against the closed-form PMF).
//
// Table 2: expected occupancy E[N] = ρ across a ρ sweep — the paper's
// "temporal privacy and buffer utilization are conflicting objectives"
// trade-off made quantitative: doubling the mean privacy delay doubles the
// buffer demand.

#include "bench_util.h"
#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "metrics/histogram.h"
#include "metrics/table.h"
#include "net/network.h"
#include "queueing/erlang.h"
#include "sim/simulator.h"
#include "workload/source.h"

namespace {

using namespace tempriv;

struct OccupancyRun {
  metrics::TimeWeightedOccupancy occupancy;
  double rho = 0.0;
};

OccupancyRun run_single_node(double lambda, double mean_delay,
                             std::uint32_t packets, std::uint64_t seed) {
  sim::Simulator sim;
  net::Network network(
      sim, net::Topology::line(3),
      [&](net::NodeId id, std::uint16_t) {
        if (id == 1) return core::DisciplineSpec::unlimited_exponential(mean_delay);
        return core::DisciplineSpec::immediate();
      },
      {}, sim::RandomStream(seed));

  OccupancyRun run;
  run.rho = lambda * mean_delay;
  network.set_occupancy_probe(
      [&](net::NodeId node, sim::Time now, std::size_t occ) {
        if (node == 1) run.occupancy.record(now, occ);
      });

  crypto::Speck64_128::Key key{};
  key.fill(0x5A);
  crypto::PayloadCodec codec(key);
  workload::PoissonSource source(network, codec, 0, sim::RandomStream(seed + 1),
                                 lambda, packets);
  source.start(0.0);
  sim.run();
  run.occupancy.finish(sim.now());
  return run;
}

}  // namespace

int main() {
  // Table 1: occupancy PMF at the paper-like operating point λ = 0.25,
  // 1/µ = 30 (ρ = 7.5).
  const OccupancyRun run = run_single_node(0.25, 30.0, 60000, 71);
  metrics::Table pmf({"N (packets buffered)", "simulated P{N}",
                      "Poisson(rho) P{N}"});
  for (std::uint64_t n = 0; n <= 16; ++n) {
    pmf.add_numeric_row({static_cast<double>(n), run.occupancy.fraction_at(n),
                         queueing::poisson_pmf(run.rho, n)},
                        4);
  }
  bench::emit("buffer_occupancy_pmf", pmf);

  // Table 2: E[N] = ρ sweep over the privacy delay.
  metrics::Table mean_table({"lambda", "mean delay 1/mu", "rho = lambda/mu",
                             "simulated E[N]"});
  for (const double lambda : {0.1, 0.25, 0.5}) {
    for (const double mean_delay : {10.0, 30.0, 60.0}) {
      const OccupancyRun sweep = run_single_node(
          lambda, mean_delay, 40000,
          71 + static_cast<std::uint64_t>(lambda * 1000 + mean_delay));
      mean_table.add_numeric_row(
          {lambda, mean_delay, sweep.rho, sweep.occupancy.mean_level()}, 3);
    }
  }
  tempriv::bench::emit("buffer_occupancy_mean", mean_table);
  return 0;
}
