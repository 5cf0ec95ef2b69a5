#pragma once

// Seeded (x, z) corpora aimed at the radix order behind the KSG and ranked
// estimators and at the galloping marginal counts of KSG. Each kind targets
// one way the order could disagree with a (value, original index)
// comparison sort — signed zeros, negatives, subnormals, exact duplicates,
// values across the whole exponent range — or one input shape with its own
// code path: presorted (the O(n) fast path), reverse-sorted, and the
// arrival-ordered pairs a sink-side adversary scores (x nearly sorted, z
// sorted). Duplicate-heavy kinds make the marginal counts run to the array
// bounds, where a galloping search is easiest to get wrong.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "sim/random.h"

namespace tempriv::infotheory::testing {

struct OrderCorpus {
  const char* kind;
  std::vector<double> xs;
  std::vector<double> zs;
};

/// The order the estimators used before the radix sort: std::sort of the
/// indices with the (value, original index) comparator.
inline std::vector<std::uint32_t> comparator_order(
    std::span<const double> values) {
  std::vector<std::uint32_t> order(values.size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (values[a] != values[b]) return values[a] < values[b];
    return a < b;
  });
  return order;
}

/// The normalized ranks mutual_information_ranked bins: r / n at the
/// original index of the r-th point of the comparator order.
inline std::vector<double> comparator_ranks(std::span<const double> values) {
  const std::vector<std::uint32_t> order = comparator_order(values);
  std::vector<double> ranks(values.size());
  for (std::size_t r = 0; r < order.size(); ++r) {
    ranks[order[r]] =
        static_cast<double>(r) / static_cast<double>(values.size());
  }
  return ranks;
}

/// One corpus of each kind, `n` points each, every sample finite.
inline std::vector<OrderCorpus> order_corpora(std::uint64_t seed,
                                              std::size_t n) {
  sim::RandomStream rng(seed);
  const auto pick = [&rng](std::span<const double> pool) {
    return pool[rng.uniform_index(pool.size())];
  };
  std::vector<OrderCorpus> out;
  const auto add = [&out, n](const char* kind, auto&& make) {
    OrderCorpus c{kind, std::vector<double>(n), std::vector<double>(n)};
    for (std::size_t i = 0; i < n; ++i) make(i, c.xs[i], c.zs[i]);
    out.push_back(std::move(c));
  };

  const double zeros[] = {-0.0, 0.0, -0.0, 0.0, 1.0, -1.0, 0.25, -0.25};
  add("signed-zeros", [&](std::size_t, double& x, double& z) {
    x = pick(zeros);
    z = pick(zeros);
  });
  add("negatives", [&](std::size_t, double& x, double& z) {
    x = rng.uniform(-100.0, 100.0);
    z = -x + rng.uniform(-30.0, 30.0);
  });
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double least_normal = std::numeric_limits<double>::min();
  const double subnormals[] = {tiny,          -tiny,         3 * tiny,
                               -3 * tiny,     least_normal,  -least_normal,
                               least_normal / 2, -0.0,        0.0};
  add("subnormals", [&](std::size_t, double& x, double& z) {
    x = pick(subnormals);
    z = pick(subnormals) + (rng.uniform_index(4) == 0 ? least_normal : 0.0);
  });
  add("duplicates", [&](std::size_t, double& x, double& z) {
    x = std::floor(rng.uniform(0.0, 6.0));
    z = x + std::floor(rng.uniform(0.0, 3.0));
  });
  add("wide-range", [&](std::size_t, double& x, double& z) {
    const double sign = rng.uniform_index(2) == 0 ? -1.0 : 1.0;
    x = sign * std::exp(rng.uniform(-690.0, 690.0));
    z = x * rng.uniform(0.5, 2.0);
  });
  double t = 0.0;
  add("presorted", [&](std::size_t, double& x, double& z) {
    t += std::floor(rng.uniform(0.0, 3.0));  // ties included
    x = t;
    z = 0.5 * t;
  });
  add("reverse-sorted", [&](std::size_t i, double& x, double& z) {
    x = -static_cast<double>(i / 2);  // pairs of ties, descending
    z = static_cast<double>(n - i) + rng.uniform(0.0, 0.5);
  });

  // A periodic source's packets in sink arrival order: z sorted, x nearly.
  std::vector<double> creation(n);
  std::vector<double> arrival(n);
  for (std::size_t i = 0; i < n; ++i) {
    creation[i] = 2.0 * static_cast<double>(i);
    arrival[i] = creation[i] + rng.exponential_mean(30.0);
  }
  const std::vector<std::uint32_t> by_arrival = comparator_order(arrival);
  add("arrival-ordered", [&](std::size_t i, double& x, double& z) {
    x = creation[by_arrival[i]];
    z = arrival[by_arrival[i]];
  });
  return out;
}

}  // namespace tempriv::infotheory::testing
