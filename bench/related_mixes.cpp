// §6 related work — the mix designs the paper positions itself against,
// rebuilt as forwarding disciplines and compared on one 9-hop path:
//
//   * SG-Mix (Kesdogan; Danezis proved it optimal for a single node):
//     independent Exp(µ) delay per packet = our unlimited delaying.
//   * Order-preserving FIFO (the §3.2 strawman): M/M/1 service — packets
//     never reorder, so the adversary keeps creation order for free.
//   * Timed pool mix (Chaum lineage): batch flushes with a retained pool.
//   * RCAD with the same delay distribution and k = 10 buffers.
//
// Privacy proxy: the *variance* of end-to-end latency, which is exactly
// the MSE of the best constant-shift estimator (an adversary that knows
// the true mean latency — stronger than the paper's baseline adversary).
// Also reported: the reorder fraction (consecutive deliveries out of
// creation order; 0 for FIFO by construction) and undelivered packets
// (pool mixes retain packets indefinitely — one reason they fit sensor
// networks poorly).

#include <memory>
#include <vector>

#include "bench_util.h"
#include "adversary/ground_truth.h"
#include "core/comparators.h"
#include "core/factories.h"
#include "crypto/payload.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "workload/source.h"

namespace {

using namespace tempriv;

struct Outcome {
  double mean_latency = 0.0;
  double latency_variance = 0.0;  // = MSE of the mean-aware adversary
  double reorder_fraction = 0.0;
  std::uint64_t undelivered = 0;
};

Outcome run_discipline(const net::DisciplineFactory& factory, double rate,
                       std::uint64_t seed) {
  sim::Simulator sim;
  net::Network network(sim, net::Topology::line(10), factory, {},
                       sim::RandomStream(seed));
  crypto::Speck64_128::Key key{};
  key.fill(0x60);
  crypto::PayloadCodec codec(key);
  adversary::GroundTruthRecorder truth(codec);

  // Track delivery order vs creation order.
  struct OrderWatch final : net::SinkObserver {
    const crypto::PayloadCodec& codec;
    double last_creation = -1.0;
    std::uint64_t inversions = 0;
    std::uint64_t pairs = 0;
    explicit OrderWatch(const crypto::PayloadCodec& c) : codec(c) {}
    void on_delivery(const net::Packet& packet, sim::Time) override {
      const double creation = codec.open(packet.payload)->creation_time;
      if (last_creation >= 0.0) {
        ++pairs;
        if (creation < last_creation) ++inversions;
      }
      last_creation = creation;
    }
  } order(codec);

  network.add_sink_observer(&truth);
  network.add_sink_observer(&order);

  workload::PoissonSource source(network, codec, 0, sim::RandomStream(seed + 1),
                                 rate, 20000);
  source.start(0.0);
  sim.run();

  Outcome outcome;
  outcome.mean_latency = truth.latency(0).mean();
  outcome.latency_variance = truth.latency(0).variance();
  outcome.reorder_fraction =
      order.pairs == 0
          ? 0.0
          : static_cast<double>(order.inversions) / static_cast<double>(order.pairs);
  outcome.undelivered =
      network.packets_originated() - network.packets_delivered();
  return outcome;
}

}  // namespace

int main() {
  constexpr double kMeanDelay = 5.0;  // per hop; FIFO stable for rate < 0.2

  metrics::Table table({"discipline", "rate lambda", "mean latency",
                        "latency variance (mean-aware adv MSE)",
                        "reorder fraction", "undelivered"});

  struct Case {
    const char* name;
    net::DisciplineFactory factory;
  };
  const Case cases[] = {
      {"SG-Mix / independent Exp(5)",
       core::unlimited_exponential_factory(kMeanDelay)},
      {"FIFO M/M/1 Exp(5) service", core::fifo_exponential_factory(kMeanDelay)},
      {"timed pool mix (T=10, keep 3)", core::timed_pool_mix_factory(10.0, 3)},
      {"RCAD Exp(5), k=10", core::rcad_exponential_factory(kMeanDelay, 10)},
  };

  std::uint64_t seed = 7000;
  for (const double rate : {0.05, 0.15}) {
    for (const Case& c : cases) {
      const Outcome outcome = run_discipline(c.factory, rate, seed += 10);
      table.add_row({c.name, metrics::format_number(rate, 2),
                     metrics::format_number(outcome.mean_latency, 1),
                     metrics::format_number(outcome.latency_variance, 1),
                     metrics::format_number(outcome.reorder_fraction, 3),
                     std::to_string(outcome.undelivered)});
    }
  }

  tempriv::bench::emit("related_mixes", table);
  return 0;
}
