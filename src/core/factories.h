#pragma once

#include <cstdint>
#include <functional>

#include "core/delay_buffer.h"
#include "core/delay_distribution.h"
#include "core/discipline_spec.h"

namespace tempriv::core {

/// Maps a node's hop distance from the sink to its mean privacy delay —
/// the §3.3 knob for decomposing the end-to-end delay process across the
/// path (e.g. more delay far from the sink, where buffers are idler).
using DelayProfile = std::function<double(std::uint16_t hops_to_sink)>;

// Each factory below describes a built-in policy: it returns a
// DisciplineSpec for every node, so a network built from it holds no
// per-node discipline objects.

/// Every node forwards immediately (evaluation case 1).
net::DisciplineFactory immediate_factory();

/// Every node delays from a clone of `prototype` with unlimited buffers
/// (evaluation case 2).
net::DisciplineFactory unlimited_factory(const DelayDistribution& prototype);

/// Convenience: unlimited buffers, Exp(mean_delay) at every node.
net::DisciplineFactory unlimited_exponential_factory(double mean_delay);

/// Every node delays from a clone of `prototype` with a k-slot drop-tail
/// buffer (the §4 M/M/k/k model with plain dropping).
net::DisciplineFactory droptail_factory(const DelayDistribution& prototype,
                                        std::size_t capacity);

/// Convenience: drop-tail, Exp(mean_delay).
net::DisciplineFactory droptail_exponential_factory(double mean_delay,
                                                    std::size_t capacity);

/// Every node runs RCAD over a clone of `prototype` (evaluation case 3).
net::DisciplineFactory rcad_factory(
    const DelayDistribution& prototype, std::size_t capacity,
    VictimPolicy victim_policy = VictimPolicy::kShortestRemaining);

/// Convenience: RCAD, Exp(mean_delay).
net::DisciplineFactory rcad_exponential_factory(
    double mean_delay, std::size_t capacity,
    VictimPolicy victim_policy = VictimPolicy::kShortestRemaining);

/// Per-node exponential means from a DelayProfile, unlimited buffers.
net::DisciplineFactory unlimited_exponential_profile_factory(DelayProfile profile);

/// Per-node exponential means from a DelayProfile, RCAD buffers.
net::DisciplineFactory rcad_exponential_profile_factory(
    DelayProfile profile, std::size_t capacity,
    VictimPolicy victim_policy = VictimPolicy::kShortestRemaining);

}  // namespace tempriv::core
