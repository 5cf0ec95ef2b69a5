#include "core/factories.h"

#include <memory>
#include <utility>

namespace tempriv::core {

namespace {

/// Every node gets a copy of `spec`, so the whole network shares its one
/// delay distribution — immutable, and sample() is const.
net::DisciplineFactory uniform(DisciplineSpec spec) {
  return [spec = std::move(spec)](net::NodeId, std::uint16_t) { return spec; };
}

}  // namespace

net::DisciplineFactory immediate_factory() {
  return uniform(DisciplineSpec::immediate());
}

net::DisciplineFactory unlimited_factory(const DelayDistribution& prototype) {
  return uniform(DisciplineSpec::unlimited(prototype.clone()));
}

net::DisciplineFactory unlimited_exponential_factory(double mean_delay) {
  return uniform(DisciplineSpec::unlimited_exponential(mean_delay));
}

net::DisciplineFactory droptail_factory(const DelayDistribution& prototype,
                                        std::size_t capacity) {
  return uniform(DisciplineSpec::droptail(prototype.clone(), capacity));
}

net::DisciplineFactory droptail_exponential_factory(double mean_delay,
                                                    std::size_t capacity) {
  return uniform(DisciplineSpec::droptail_exponential(mean_delay, capacity));
}

net::DisciplineFactory rcad_factory(const DelayDistribution& prototype,
                                    std::size_t capacity,
                                    VictimPolicy victim_policy) {
  return uniform(
      DisciplineSpec::rcad(prototype.clone(), capacity, victim_policy));
}

net::DisciplineFactory rcad_exponential_factory(double mean_delay,
                                                std::size_t capacity,
                                                VictimPolicy victim_policy) {
  return uniform(
      DisciplineSpec::rcad_exponential(mean_delay, capacity, victim_policy));
}

net::DisciplineFactory unlimited_exponential_profile_factory(DelayProfile profile) {
  return [profile = std::move(profile)](net::NodeId, std::uint16_t hops) {
    return DisciplineSpec::unlimited_exponential(profile(hops));
  };
}

net::DisciplineFactory rcad_exponential_profile_factory(
    DelayProfile profile, std::size_t capacity, VictimPolicy victim_policy) {
  return [profile = std::move(profile), capacity, victim_policy](
             net::NodeId, std::uint16_t hops) {
    return DisciplineSpec::rcad_exponential(profile(hops), capacity,
                                            victim_policy);
  };
}

}  // namespace tempriv::core
