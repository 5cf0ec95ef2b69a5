#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "core/delay_distribution.h"
#include "core/discipline_spec.h"
#include "net/forwarding.h"

namespace tempriv::core {

/// Order-preserving delaying — the strategy §3.2 considers and rejects:
/// "have packets released in the same order as their creation, which would
/// correspond to choosing Yj to be at least the wait time needed to flush
/// out all previous packets". Concretely an M/M/1-style FIFO: one packet
/// in service at a time, service time drawn from the delay distribution;
/// later packets queue behind it. Compared with independent per-packet
/// delays (DisciplineKind::kUnlimitedDelay, the M/M/∞ model) it never
/// reorders — which is exactly why it protects less: the adversary keeps the
/// creation order for free, and queueing couples consecutive delays.
///
/// Stability caveat (classic M/M/1): if the arrival rate exceeds 1/mean,
/// the queue grows without bound; the caller picks parameters.
class FifoDelaying final : public net::ForwardingDiscipline {
 public:
  explicit FifoDelaying(std::unique_ptr<DelayDistribution> service);

  void on_packet(net::Packet&& packet, net::NodeContext& ctx) override;
  std::size_t buffered() const noexcept override { return queue_.size(); }

 private:
  void begin_service(net::NodeContext& ctx);
  void complete_service(net::NodeContext& ctx);

  std::unique_ptr<DelayDistribution> service_;
  std::deque<net::Packet> queue_;  // front = in service
  bool serving_ = false;
};

/// Timed pool mix (Chaum-style, per the taxonomy the paper cites in §6):
/// arrivals accumulate in the pool; every `interval` time units (while the
/// pool is non-empty) the node flushes the pool *except* for up to
/// `pool_keep` packets chosen uniformly at random, transmitting the rest
/// in random order. The retained pool decouples flush membership from
/// arrival time.
///
/// Inherent cost, faithfully modeled: up to `pool_keep` packets per node
/// can remain in the pool indefinitely (undelivered when traffic stops) —
/// one reason mix designs are awkward for sensor networks, and part of the
/// paper's motivation for per-packet delays instead.
class TimedPoolMix final : public net::ForwardingDiscipline {
 public:
  /// Requires interval > 0.
  TimedPoolMix(double interval, std::size_t pool_keep);

  void on_packet(net::Packet&& packet, net::NodeContext& ctx) override;
  std::size_t buffered() const noexcept override { return pool_.size(); }

  std::uint64_t flushes() const noexcept { return flushes_; }

 private:
  void flush(net::NodeContext& ctx);

  double interval_;
  std::size_t pool_keep_;
  std::deque<net::Packet> pool_;
  bool timer_armed_ = false;
  std::uint64_t flushes_ = 0;
};

/// Factory helpers mirroring core/factories.h.
net::DisciplineFactory fifo_exponential_factory(double mean_service);
net::DisciplineFactory timed_pool_mix_factory(double interval,
                                              std::size_t pool_keep);

}  // namespace tempriv::core
