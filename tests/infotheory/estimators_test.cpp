#include "infotheory/estimators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "infotheory/entropy.h"
#include "sim/random.h"

namespace tempriv::infotheory {
namespace {

std::vector<double> exponential_samples(double mean, std::size_t n,
                                        std::uint64_t seed) {
  sim::RandomStream rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.exponential_mean(mean);
  return xs;
}

std::vector<double> uniform_samples(double lo, double hi, std::size_t n,
                                    std::uint64_t seed) {
  sim::RandomStream rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.uniform(lo, hi);
  return xs;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// `call` must throw std::invalid_argument whose message names `who`.
template <typename Call>
void expect_rejected_by(const std::string& who, Call&& call) {
  try {
    call();
    ADD_FAILURE() << who << " accepted a non-finite sample";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(who), std::string::npos) << e.what();
  }
}

/// 40 well-spread samples with `poison` written at position `at`.
std::vector<double> poisoned(double poison, std::size_t at) {
  std::vector<double> xs = uniform_samples(0.0, 10.0, 40, 99);
  xs[at] = poison;
  return xs;
}

TEST(EntropyHistogram, RecoversUniformEntropy) {
  const auto xs = uniform_samples(0.0, 8.0, 50000, 1);
  EXPECT_NEAR(entropy_histogram(xs, 64), std::log(8.0), 0.05);
}

TEST(EntropyHistogram, RecoversExponentialEntropy) {
  const double mean = 30.0;
  const auto xs = exponential_samples(mean, 100000, 2);
  EXPECT_NEAR(entropy_histogram(xs, 128), exponential_entropy(mean), 0.1);
}

TEST(EntropyHistogram, ValidatesInput) {
  EXPECT_THROW(entropy_histogram(std::vector<double>{}, 10),
               std::invalid_argument);
  EXPECT_THROW(entropy_histogram(std::vector<double>{1.0}, 10),
               std::invalid_argument);
  EXPECT_THROW(entropy_histogram(std::vector<double>{1.0, 1.0}, 10),
               std::invalid_argument);  // zero spread
  EXPECT_THROW(entropy_histogram(std::vector<double>{1.0, 2.0}, 0),
               std::invalid_argument);
}

TEST(EntropyHistogram, RejectsNonFiniteSamples) {
  expect_rejected_by("entropy_histogram",
                     [] { entropy_histogram(poisoned(kNaN, 3), 8); });
  expect_rejected_by("entropy_histogram",
                     [] { entropy_histogram(poisoned(kInf, 39), 8); });
}

TEST(EntropyKnn, RecoversUniformEntropy) {
  const auto xs = uniform_samples(0.0, 8.0, 20000, 3);
  EXPECT_NEAR(entropy_knn(xs, 3), std::log(8.0), 0.05);
}

TEST(EntropyKnn, RecoversExponentialEntropy) {
  const double mean = 5.0;
  const auto xs = exponential_samples(mean, 20000, 4);
  EXPECT_NEAR(entropy_knn(xs, 3), exponential_entropy(mean), 0.05);
}

TEST(EntropyKnn, HandlesDuplicatesWithoutBlowingUp) {
  std::vector<double> xs = uniform_samples(0.0, 1.0, 100, 5);
  xs.push_back(xs.front());  // exact duplicate -> zero NN distance
  const double h = entropy_knn(xs, 1);
  EXPECT_TRUE(std::isfinite(h));
}

TEST(EntropyKnn, ValidatesInput) {
  EXPECT_THROW(entropy_knn(std::vector<double>{1.0, 2.0}, 0),
               std::invalid_argument);
  EXPECT_THROW(entropy_knn(std::vector<double>{1.0, 2.0}, 2),
               std::invalid_argument);
}

TEST(EntropyKnn, RejectsNonFiniteSamples) {
  expect_rejected_by("entropy_knn", [] { entropy_knn(poisoned(kNaN, 0), 3); });
  expect_rejected_by("entropy_knn", [] { entropy_knn(poisoned(-kInf, 7), 3); });
}

TEST(MutualInformationHistogram, NearZeroForIndependentVariables) {
  const auto xs = uniform_samples(0.0, 1.0, 50000, 6);
  const auto zs = uniform_samples(0.0, 1.0, 50000, 7);
  // Plug-in MI has a small positive bias; it must still be near zero.
  EXPECT_LT(mutual_information_histogram(xs, zs, 16), 0.02);
}

TEST(MutualInformationHistogram, LargeForDeterministicRelation) {
  const auto xs = uniform_samples(0.0, 1.0, 50000, 8);
  std::vector<double> zs(xs.begin(), xs.end());
  for (double& z : zs) z = 3.0 * z + 1.0;
  // I(X; aX+b) is infinite in theory; the binned estimate ~ ln(bins).
  EXPECT_GT(mutual_information_histogram(xs, zs, 16), 2.0);
}

TEST(MutualInformationHistogram, ValidatesInput) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> short_z{1.0};
  EXPECT_THROW(mutual_information_histogram(xs, short_z, 8),
               std::invalid_argument);
  EXPECT_THROW(mutual_information_histogram(xs, xs, 0), std::invalid_argument);
}

TEST(MutualInformationHistogram, RejectsNonFiniteSamples) {
  const std::vector<double> clean = uniform_samples(0.0, 1.0, 40, 98);
  expect_rejected_by("mutual_information_histogram", [&] {
    mutual_information_histogram(poisoned(kNaN, 5), clean, 8);
  });
  expect_rejected_by("mutual_information_histogram", [&] {
    mutual_information_histogram(clean, poisoned(kInf, 5), 8);
  });
}

TEST(MutualInformationRanked, AgreesWithDirectEstimateOnLightTails) {
  // For well-behaved marginals the rank transform changes nothing material.
  const std::size_t n = 40000;
  const auto xs = uniform_samples(0.0, 10.0, n, 20);
  const auto delays = exponential_samples(5.0, n, 21);
  std::vector<double> zs(n);
  for (std::size_t i = 0; i < n; ++i) zs[i] = xs[i] + delays[i];
  const double direct = mutual_information_histogram(xs, zs, 24);
  const double ranked = mutual_information_ranked(xs, zs, 24);
  EXPECT_NEAR(ranked, direct, 0.15);
}

TEST(MutualInformationRanked, SurvivesHeavyTails) {
  // Pareto(α = 1.1) delays have near-infinite variance; equal-width bins
  // collapse (one extreme sample swallows the range) while ranks do not.
  sim::RandomStream rng(22);
  const std::size_t n = 40000;
  std::vector<double> xs(n);
  std::vector<double> zs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.uniform(0.0, 10.0);
    zs[i] = xs[i] + rng.pareto(1.0, 1.1);
  }
  const double direct = mutual_information_histogram(xs, zs, 24);
  const double ranked = mutual_information_ranked(xs, zs, 24);
  // Small delays (median ~1.9 vs creation spread 10) leak a lot; the
  // direct estimator misses it, the ranked one must not.
  EXPECT_LT(direct, 0.3);
  EXPECT_GT(ranked, 0.8);
}

TEST(MutualInformationRanked, NearZeroForIndependentVariables) {
  const auto xs = uniform_samples(0.0, 1.0, 50000, 23);
  const auto zs = uniform_samples(0.0, 1.0, 50000, 24);
  EXPECT_LT(mutual_information_ranked(xs, zs, 16), 0.02);
}

TEST(MutualInformationRanked, HandlesTiesDeterministically) {
  // Constant delays: Z = X + c is a strictly monotone transform of X, so
  // ranked MI saturates near ln(bins) — and repeated calls agree exactly.
  const auto xs = uniform_samples(0.0, 1.0, 10000, 25);
  std::vector<double> zs(xs.begin(), xs.end());
  for (double& z : zs) z += 30.0;
  const double a = mutual_information_ranked(xs, zs, 16);
  const double b = mutual_information_ranked(xs, zs, 16);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GT(a, 2.0);
}

TEST(MutualInformationRanked, RejectsNonFiniteSamples) {
  const std::vector<double> clean = uniform_samples(0.0, 1.0, 40, 97);
  expect_rejected_by("mutual_information_ranked", [&] {
    mutual_information_ranked(clean, poisoned(kNaN, 11), 8);
  });
  expect_rejected_by("mutual_information_ranked", [&] {
    mutual_information_ranked(poisoned(kInf, 11), clean, 8);
  });
}

TEST(LeakageFromDelays, BiggerDelaysLeakLess) {
  // The core qualitative claim of §3: increasing the mean privacy delay
  // relative to the creation spread reduces I(X; Z).
  const std::size_t n = 40000;
  const auto creations = uniform_samples(0.0, 10.0, n, 9);
  const auto small_delay = exponential_samples(1.0, n, 10);
  const auto large_delay = exponential_samples(100.0, n, 11);
  const double leak_small = leakage_from_delays(creations, small_delay, 24);
  const double leak_large = leakage_from_delays(creations, large_delay, 24);
  EXPECT_GT(leak_small, leak_large);
  EXPECT_GT(leak_small, 0.5);  // nearly-deterministic arrival -> big leak
  EXPECT_LT(leak_large, 0.5);
}

TEST(LeakageFromDelays, RespectsAnantharamVerduBoundOnAverage) {
  // Poisson(λ=1) creations (Erlang j-th arrivals) delayed Exp(1/µ = 30):
  // the per-packet leakage I(Xj; Zj) must stay below ln(1 + jµ/λ).
  sim::RandomStream rng(12);
  const std::size_t trials = 30000;
  const std::uint64_t j = 3;  // test the 3rd packet of the stream
  std::vector<double> xs(trials);
  std::vector<double> zs(trials);
  const double lambda = 1.0;
  const double mean_delay = 30.0;
  for (std::size_t t = 0; t < trials; ++t) {
    xs[t] = rng.erlang(static_cast<unsigned>(j), lambda);
    zs[t] = xs[t] + rng.exponential_mean(mean_delay);
  }
  const double mi = mutual_information_histogram(xs, zs, 24);
  const double bound = av_leakage_bound(j, 1.0 / mean_delay, lambda);
  EXPECT_LE(mi, bound + 0.05);
}

TEST(MutualInformationKsg, NearExactForCorrelatedGaussians) {
  // Closed form: I(X;Z) = -0.5 ln(1 - r^2) for a bivariate Gaussian with
  // correlation r. KSG should land within a few hundredths of a nat at
  // moderate sample sizes, where histogram estimators are badly biased.
  sim::RandomStream rng(30);
  const std::size_t n = 4000;
  const double r = 0.6;
  std::vector<double> xs(n);
  std::vector<double> zs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.normal(0.0, 1.0);
    const double b = rng.normal(0.0, 1.0);
    xs[i] = a;
    zs[i] = r * a + std::sqrt(1.0 - r * r) * b;
  }
  const double exact = -0.5 * std::log(1.0 - r * r);
  EXPECT_NEAR(mutual_information_ksg(xs, zs, 3), exact, 0.05);
}

TEST(MutualInformationKsg, NearZeroForIndependentSamples) {
  sim::RandomStream rng(31);
  const std::size_t n = 3000;
  std::vector<double> xs(n);
  std::vector<double> zs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.uniform01();
    zs[i] = rng.exponential_mean(4.0);
  }
  EXPECT_LT(mutual_information_ksg(xs, zs, 4), 0.03);
}

TEST(MutualInformationKsg, TracksLeakageOrderingWithHistogram) {
  // Small vs large delays: KSG must agree with the histogram estimator on
  // which configuration leaks more.
  const std::size_t n = 3000;
  const auto creations = uniform_samples(0.0, 10.0, n, 32);
  const auto small_delay = exponential_samples(1.0, n, 33);
  const auto large_delay = exponential_samples(100.0, n, 34);
  std::vector<double> z_small(n);
  std::vector<double> z_large(n);
  for (std::size_t i = 0; i < n; ++i) {
    z_small[i] = creations[i] + small_delay[i];
    z_large[i] = creations[i] + large_delay[i];
  }
  EXPECT_GT(mutual_information_ksg(creations, z_small, 3),
            mutual_information_ksg(creations, z_large, 3));
}

TEST(MutualInformationKsg, ValidatesInput) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> bad{1.0};
  EXPECT_THROW(mutual_information_ksg(xs, bad, 1), std::invalid_argument);
  EXPECT_THROW(mutual_information_ksg(xs, xs, 0), std::invalid_argument);
  EXPECT_THROW(mutual_information_ksg(xs, xs, 3), std::invalid_argument);
}

TEST(MutualInformationKsg, RejectsNonFiniteSamples) {
  const std::vector<double> clean = uniform_samples(0.0, 1.0, 40, 96);
  expect_rejected_by("mutual_information_ksg", [&] {
    mutual_information_ksg(poisoned(kNaN, 20), clean, 3);
  });
  expect_rejected_by("mutual_information_ksg", [&] {
    mutual_information_ksg(clean, poisoned(kInf, 20), 3);
  });
}

TEST(LeakageFromDelays, RejectsNonFiniteSamples) {
  const std::vector<double> clean = uniform_samples(0.0, 1.0, 40, 95);
  expect_rejected_by("leakage_from_delays", [&] {
    leakage_from_delays(poisoned(kNaN, 1), clean, 8);
  });
  expect_rejected_by("leakage_from_delays", [&] {
    leakage_from_delays(clean, poisoned(kInf, 1), 8);
  });
}

TEST(LeakageFromDelays, ValidatesSizes) {
  EXPECT_THROW(
      leakage_from_delays(std::vector<double>{1.0}, std::vector<double>{}, 8),
      std::invalid_argument);
}

}  // namespace
}  // namespace tempriv::infotheory
