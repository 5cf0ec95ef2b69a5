#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <variant>

#include "core/delay_buffer.h"
#include "core/delay_distribution.h"
#include "net/forwarding.h"

namespace tempriv::core {

/// The built-in forwarding policies Network implements itself, in flat
/// per-node arrays with a switch on the forwarding hot path.
enum class DisciplineKind : std::uint8_t {
  /// Case 1 of the paper's evaluation: forward every packet the instant it
  /// arrives. Latency = hop count × τ exactly.
  kImmediate,
  /// Case 2: delay every packet by an independent draw, unbounded buffer
  /// (the idealized M/M/∞ model of §4 when the delays are exponential).
  kUnlimitedDelay,
  /// The M/M/k/k model of §4 with plain dropping: an arrival that finds all
  /// `capacity` slots full is discarded (counted in node_drops()).
  kDropTail,
  /// RCAD — Rate-Controlled Adaptive Delaying (paper §5). Like kDropTail,
  /// except that a full buffer *preempts* a held packet instead of dropping
  /// the arrival: the victim (by default the shortest remaining delay) has
  /// its release cancelled and is transmitted now, then the arrival is
  /// admitted with a fresh delay. Preemption adapts the effective service
  /// rate µ to the offered load with no signalling.
  kRcad,
};

/// Value-type description of a built-in forwarding policy — what a
/// DisciplineFactory returns for a node that runs one of the built-ins.
/// Network lays the node's state out in its flat per-node arrays from this
/// description; no per-node discipline object is ever built. Nodes may share
/// one delay-distribution object (sample() is const).
struct DisciplineSpec {
  DisciplineKind kind = DisciplineKind::kImmediate;
  /// Required unless kind == kImmediate.
  std::shared_ptr<const DelayDistribution> delay;
  /// Buffer slots per node (kDropTail / kRcad; ignored otherwise).
  std::size_t capacity = 0;
  /// RCAD victim-selection rule (kRcad only).
  VictimPolicy victim = VictimPolicy::kShortestRemaining;

  /// The one place the spec invariants live: throws std::invalid_argument
  /// if a buffering kind has no delay distribution, or a drop-tail/RCAD
  /// spec has capacity 0. The helpers below and Network (on every spec it
  /// adopts, since a factory may aggregate-initialise one) both call it.
  void validate() const;

  static DisciplineSpec immediate();
  static DisciplineSpec unlimited(
      std::shared_ptr<const DelayDistribution> delay);
  static DisciplineSpec unlimited_exponential(double mean_delay);
  static DisciplineSpec droptail(
      std::shared_ptr<const DelayDistribution> delay, std::size_t capacity);
  static DisciplineSpec droptail_exponential(double mean_delay,
                                             std::size_t capacity);
  static DisciplineSpec rcad(
      std::shared_ptr<const DelayDistribution> delay, std::size_t capacity,
      VictimPolicy victim = VictimPolicy::kShortestRemaining);
  static DisciplineSpec rcad_exponential(
      double mean_delay, std::size_t capacity,
      VictimPolicy victim = VictimPolicy::kShortestRemaining);
};

}  // namespace tempriv::core

namespace tempriv::net {

/// A node's discipline: a built-in policy as a value, or a custom
/// ForwardingDiscipline object (which must not be null).
using DisciplineChoice =
    std::variant<core::DisciplineSpec, std::unique_ptr<ForwardingDiscipline>>;

/// Builds the discipline for node `id` (which is `hops_to_sink` hops from
/// the sink) — lets a scenario give every node its own policy or delay
/// parameters, e.g. the §3.3 sink-weighted decomposition.
using DisciplineFactory =
    std::function<DisciplineChoice(NodeId id, std::uint16_t hops_to_sink)>;

}  // namespace tempriv::net
