#pragma once

#include <cstdint>
#include <memory>

#include "core/delay_buffer.h"
#include "core/discipline_spec.h"
#include "net/forwarding.h"

namespace tempriv::core {

/// Online Erlang-tuned RCAD — §4's dimensioning rule made self-adjusting
/// (extension beyond the paper, which applies the rule statically at
/// deployment time).
///
/// The paper observes that for a target drop/preemption budget α, a node
/// with k buffer slots can afford offered load up to ρ* = E⁻¹(α, k), i.e.
/// mean delay 1/µ = ρ*/λ — "as we approach the sink and the traffic rate λ
/// increases, we must decrease the average delay time 1/µ". This
/// discipline measures λ online (EWMA over packet inter-arrival gaps) and
/// retunes its exponential delay mean to ρ*/λ̂ on every arrival, clamped to
/// `max_mean_delay` so an almost-idle node does not hold packets forever.
///
/// The payoff over static RCAD: at low traffic it stretches delays far
/// beyond a fixed 1/µ (more privacy for the same buffers), and at high
/// traffic it backs off *before* the buffer saturates, so the realized
/// delay distribution stays close to exponential instead of being
/// truncated by preemption — which also denies the §5.4 adaptive adversary
/// its sharp preemption-regime signal. Preemption remains as the safety
/// net for bursts the EWMA has not caught up with.
///
/// Calibration note: the realized preemption rate sits a near-constant
/// ~2× above E(ρ*, k) across all loads, because RCAD's preempt-and-admit
/// refreshes residual delays and keeps the buffer fuller than the pure
/// M/M/k/k loss model predicts (see
/// QueueingValidation.RcadPreemptionRateExceedsErlangLoss). Target α/2 if
/// the budget must hold in absolute terms.
class ErlangTunedRcad final : public net::ForwardingDiscipline {
 public:
  struct Config {
    std::size_t capacity = 10;      ///< k buffer slots
    double target_loss = 0.1;       ///< α, the preemption budget
    double max_mean_delay = 120.0;  ///< delay cap when traffic is light
    double ewma_weight = 0.1;       ///< weight of the newest gap in λ̂
    VictimPolicy victim = VictimPolicy::kShortestRemaining;
  };

  explicit ErlangTunedRcad(const Config& config);

  void on_packet(net::Packet&& packet, net::NodeContext& ctx) override;
  std::size_t buffered() const noexcept override { return buffer_.size(); }
  std::uint64_t preemptions() const noexcept override { return preemptions_; }

  /// The mean delay currently in force (max_mean_delay until the rate
  /// estimate warms up).
  double current_mean_delay() const noexcept { return current_mean_; }

  /// The node's current arrival-rate estimate (0 before two arrivals).
  double rate_estimate() const noexcept { return rate_estimate_; }

 private:
  void retune(double now);

  Config config_;
  double admissible_rho_;  ///< ρ* = E⁻¹(α, k), precomputed
  DelayBuffer buffer_;
  double current_mean_;
  double ewma_gap_ = 0.0;
  double rate_estimate_ = 0.0;
  double last_arrival_ = 0.0;
  bool has_arrival_ = false;
  std::uint64_t preemptions_ = 0;
};

/// Factory mirroring core/factories.h.
net::DisciplineFactory erlang_tuned_rcad_factory(
    const ErlangTunedRcad::Config& config);

}  // namespace tempriv::core
