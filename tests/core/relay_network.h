#pragma once

#include <cstdint>
#include <vector>

#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace tempriv::core::testing {

/// Drives a discipline through the real Network forwarding path with the
/// smallest topology that has one: Topology::line(2), where node 0 runs the
/// discipline under test and node 1 is the sink. Packets are originated at
/// node 0; one that leaves node 0 at time t reaches the sink at t + τ, so
/// departures are recovered as sink arrival time minus τ. The network
/// numbers packets 0, 1, 2, ... in origination order.
class RelayNetwork {
 public:
  static constexpr net::NodeId kRelay = 0;
  static constexpr double kTau = 1.0;

  struct Departure {
    double time;  // when the packet left the relay
    std::uint64_t uid;
  };

  explicit RelayNetwork(const net::DisciplineFactory& factory,
                        std::uint64_t seed = 42)
      : network_(simulator_, net::Topology::line(2), factory,
                 {.hop_tx_delay = kTau}, sim::RandomStream(seed)) {
    network_.add_sink_observer(&sink_);
  }
  explicit RelayNetwork(const DisciplineSpec& spec, std::uint64_t seed = 42)
      : RelayNetwork(
            [&spec](net::NodeId, std::uint16_t) { return spec; }, seed) {}

  /// Originates one packet at the relay now and returns its uid.
  std::uint64_t inject() {
    return network_.originate(kRelay, crypto::SealedPayload{});
  }
  /// Schedules inject() at simulation time `at`.
  void inject_at(double at) {
    simulator_.schedule_at(at, [this] { inject(); });
  }

  sim::Simulator& simulator() noexcept { return simulator_; }
  const net::Network& network() const noexcept { return network_; }
  /// Packets that reached the sink, in arrival order.
  const std::vector<Departure>& departures() const noexcept {
    return sink_.departures;
  }

  std::size_t buffered() const { return network_.node_buffered(kRelay); }
  std::uint64_t preemptions() const {
    return network_.node_preemptions(kRelay);
  }
  std::uint64_t drops() const { return network_.node_drops(kRelay); }

 private:
  struct Sink final : net::SinkObserver {
    std::vector<Departure> departures;
    void on_delivery(const net::Packet& packet, sim::Time arrival) override {
      departures.push_back({arrival - kTau, packet.uid});
    }
  };

  sim::Simulator simulator_;
  net::Network network_;
  Sink sink_;
};

}  // namespace tempriv::core::testing
