#include "core/discipline_spec.h"

#include <stdexcept>
#include <utility>

namespace tempriv::core {

void DisciplineSpec::validate() const {
  if (kind == DisciplineKind::kImmediate) return;
  if (!delay) throw std::invalid_argument("DisciplineSpec: null distribution");
  if ((kind == DisciplineKind::kDropTail || kind == DisciplineKind::kRcad) &&
      capacity == 0) {
    throw std::invalid_argument("DisciplineSpec: capacity must be >= 1");
  }
}

DisciplineSpec DisciplineSpec::immediate() { return {}; }

DisciplineSpec DisciplineSpec::unlimited(
    std::shared_ptr<const DelayDistribution> delay) {
  DisciplineSpec spec{DisciplineKind::kUnlimitedDelay, std::move(delay), 0,
                      VictimPolicy::kShortestRemaining};
  spec.validate();
  return spec;
}

DisciplineSpec DisciplineSpec::unlimited_exponential(double mean_delay) {
  return unlimited(std::make_shared<const ExponentialDelay>(mean_delay));
}

DisciplineSpec DisciplineSpec::droptail(
    std::shared_ptr<const DelayDistribution> delay, std::size_t capacity) {
  DisciplineSpec spec{DisciplineKind::kDropTail, std::move(delay), capacity,
                      VictimPolicy::kShortestRemaining};
  spec.validate();
  return spec;
}

DisciplineSpec DisciplineSpec::droptail_exponential(double mean_delay,
                                                    std::size_t capacity) {
  return droptail(std::make_shared<const ExponentialDelay>(mean_delay),
                  capacity);
}

DisciplineSpec DisciplineSpec::rcad(
    std::shared_ptr<const DelayDistribution> delay, std::size_t capacity,
    VictimPolicy victim) {
  DisciplineSpec spec{DisciplineKind::kRcad, std::move(delay), capacity,
                      victim};
  spec.validate();
  return spec;
}

DisciplineSpec DisciplineSpec::rcad_exponential(double mean_delay,
                                                std::size_t capacity,
                                                VictimPolicy victim) {
  return rcad(std::make_shared<const ExponentialDelay>(mean_delay), capacity,
              victim);
}

}  // namespace tempriv::core
