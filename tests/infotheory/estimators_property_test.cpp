// Property tests pinning the sort-based analysis kernels to the retained
// brute-force references (infotheory/reference.h). The acceptance bar is
// exact equality — not a tolerance — on randomized corpora that include the
// two known correctness traps of sort-based KSG: exact-duplicate samples
// (zero k-NN distances, so the strict marginal counts must come out empty)
// and tied max-norm distances (the k-th neighbor value must not depend on
// which of the tied candidates the sweep happens to examine).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "infotheory/entropy.h"
#include "infotheory/estimators.h"
#include "infotheory/reference.h"
#include "order_corpora.h"
#include "sim/random.h"

namespace tempriv::infotheory {
namespace {

struct Corpus {
  std::vector<double> xs;
  std::vector<double> zs;
  unsigned k = 3;
  const char* kind = "";
};

/// One randomized corpus per trial, cycling through sample classes:
/// continuous correlated pairs, coarse-floored values (many exact
/// duplicates in both marginals), lattice points (tied max-norm distances
/// in every direction), and a degenerate constant-z marginal.
Corpus make_corpus(int trial, sim::RandomStream& rng) {
  Corpus c;
  c.k = 1 + static_cast<unsigned>(rng.uniform_index(6));
  const std::size_t n = c.k + 1 + rng.uniform_index(250);
  c.xs.resize(n);
  c.zs.resize(n);
  switch (trial % 4) {
    case 0:
      c.kind = "continuous";
      for (std::size_t i = 0; i < n; ++i) {
        c.xs[i] = rng.uniform(0.0, 100.0);
        c.zs[i] = c.xs[i] + rng.exponential_mean(30.0);
      }
      break;
    case 1:
      c.kind = "duplicates";
      for (std::size_t i = 0; i < n; ++i) {
        c.xs[i] = std::floor(rng.uniform(0.0, 8.0));
        c.zs[i] = std::floor(rng.uniform(0.0, 8.0));
      }
      break;
    case 2:
      c.kind = "lattice";
      for (std::size_t i = 0; i < n; ++i) {
        c.xs[i] = 0.5 * static_cast<double>(rng.uniform_index(6));
        c.zs[i] = 0.5 * static_cast<double>(rng.uniform_index(6));
      }
      break;
    default:
      c.kind = "constant-z";
      for (std::size_t i = 0; i < n; ++i) {
        c.xs[i] = rng.uniform(0.0, 1.0);
        c.zs[i] = 3.25;
      }
      break;
  }
  return c;
}

TEST(KsgProperty, BitIdenticalToBruteForceReference) {
  sim::RandomStream rng(4001);
  for (int trial = 0; trial < 120; ++trial) {
    const Corpus c = make_corpus(trial, rng);
    const double fast = mutual_information_ksg(c.xs, c.zs, c.k);
    const double brute = reference::mutual_information_ksg_brute(c.xs, c.zs, c.k);
    ASSERT_EQ(fast, brute) << "trial " << trial << " (" << c.kind
                           << "), n=" << c.xs.size() << ", k=" << c.k;
  }
}

TEST(KsgProperty, ScratchReuseAcrossDifferentSizedInputsIsExact) {
  // One arena through a sweep of corpora of varying size must return the
  // same bits as fresh-allocated calls.
  sim::RandomStream rng(4002);
  AnalysisScratch scratch;
  for (int trial = 0; trial < 40; ++trial) {
    const Corpus c = make_corpus(trial, rng);
    ASSERT_EQ(mutual_information_ksg(c.xs, c.zs, c.k, scratch),
              mutual_information_ksg(c.xs, c.zs, c.k))
        << "trial " << trial << " (" << c.kind << ")";
  }
}

TEST(EntropyKnnProperty, BitIdenticalToBruteForceReference) {
  sim::RandomStream rng(4003);
  for (int trial = 0; trial < 120; ++trial) {
    const Corpus c = make_corpus(trial, rng);
    const double fast = entropy_knn(c.xs, c.k);
    const double brute = reference::entropy_knn_brute(c.xs, c.k);
    ASSERT_EQ(fast, brute) << "trial " << trial << " (" << c.kind
                           << "), n=" << c.xs.size() << ", k=" << c.k;
  }
}

TEST(EntropyKnnProperty, ScratchOverloadIsExact) {
  sim::RandomStream rng(4004);
  AnalysisScratch scratch;
  for (int trial = 0; trial < 40; ++trial) {
    const Corpus c = make_corpus(trial, rng);
    ASSERT_EQ(entropy_knn(c.xs, c.k, scratch), entropy_knn(c.xs, c.k));
  }
}

TEST(DigammaMemo, ExactlyEqualsDirectEvaluation) {
  // The memo table must be invisible: digamma_int(m) is required to return
  // the very double digamma(double(m)) produces, for every argument class —
  // below the initial table block, across growth boundaries, and past the
  // memo cap where it falls through to the direct evaluation.
  for (std::uint64_t m = 1; m <= 3000; ++m) {
    ASSERT_EQ(digamma_int(m), digamma(static_cast<double>(m))) << "m=" << m;
  }
  for (const std::uint64_t m :
       {std::uint64_t{100000}, std::uint64_t{1} << 22, (std::uint64_t{1} << 22) + 7,
        std::uint64_t{1} << 30}) {
    ASSERT_EQ(digamma_int(m), digamma(static_cast<double>(m))) << "m=" << m;
  }
  EXPECT_THROW(digamma_int(0), std::invalid_argument);
}

TEST(HistogramScratch, ReuseMatchesFreshAllocation) {
  sim::RandomStream rng(4005);
  AnalysisScratch scratch;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 100 + rng.uniform_index(2000);
    const std::size_t bins = 4 + rng.uniform_index(60);
    std::vector<double> xs(n);
    std::vector<double> zs(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = rng.uniform(0.0, 50.0);
      zs[i] = xs[i] + rng.exponential_mean(10.0);
    }
    ASSERT_EQ(entropy_histogram(xs, bins, scratch), entropy_histogram(xs, bins));
    ASSERT_EQ(mutual_information_histogram(xs, zs, bins, scratch),
              mutual_information_histogram(xs, zs, bins));
    ASSERT_EQ(mutual_information_ranked(xs, zs, bins, scratch),
              mutual_information_ranked(xs, zs, bins));
    ASSERT_EQ(leakage_from_delays(xs, zs, bins, scratch),
              leakage_from_delays(xs, zs, bins));
  }
}

TEST(KsgWorkspaceProperty, PartitionedPsiTermsMatchSinglePass) {
  // Evaluating the per-point loop in arbitrary disjoint ranges must
  // reproduce the one-shot pass bit-for-bit — this is the property the
  // thread-pool overload's determinism rests on.
  sim::RandomStream rng(4006);
  std::vector<double> xs(777);
  std::vector<double> zs(777);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.uniform(0.0, 100.0);
    zs[i] = xs[i] + rng.exponential_mean(30.0);
  }
  KsgWorkspace ws;
  ws.prepare(xs, zs, 4);
  std::vector<double> whole(ws.size());
  ws.psi_terms(0, ws.size(), whole);
  std::vector<double> pieces(ws.size());
  std::size_t begin = 0;
  while (begin < ws.size()) {
    const std::size_t end =
        std::min(ws.size(), begin + 1 + rng.uniform_index(90));
    ws.psi_terms(begin, end, pieces);
    begin = end;
  }
  ASSERT_EQ(whole, pieces);
  ASSERT_EQ(ws.reduce(whole), mutual_information_ksg(xs, zs, 4));
}

TEST(KsgProperty, ValidationMatchesReference) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> bad{1.0};
  EXPECT_THROW(mutual_information_ksg(xs, bad, 1), std::invalid_argument);
  EXPECT_THROW(mutual_information_ksg(xs, xs, 0), std::invalid_argument);
  EXPECT_THROW(mutual_information_ksg(xs, xs, 3), std::invalid_argument);
  EXPECT_THROW(reference::mutual_information_ksg_brute(xs, bad, 1),
               std::invalid_argument);
  EXPECT_THROW(reference::mutual_information_ksg_brute(xs, xs, 0),
               std::invalid_argument);
  EXPECT_THROW(reference::mutual_information_ksg_brute(xs, xs, 3),
               std::invalid_argument);
  EXPECT_THROW(reference::entropy_knn_brute(xs, 0), std::invalid_argument);
  EXPECT_THROW(reference::entropy_knn_brute(xs, 3), std::invalid_argument);

  // A NaN or ±inf in either marginal is rejected by both paths alike.
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    const std::vector<double> poisoned{1.0, v, 3.0, 4.0};
    const std::vector<double> clean{1.0, 2.0, 3.0, 4.0};
    EXPECT_THROW(mutual_information_ksg(poisoned, clean, 1),
                 std::invalid_argument);
    EXPECT_THROW(mutual_information_ksg(clean, poisoned, 1),
                 std::invalid_argument);
    EXPECT_THROW(reference::mutual_information_ksg_brute(poisoned, clean, 1),
                 std::invalid_argument);
    EXPECT_THROW(reference::mutual_information_ksg_brute(clean, poisoned, 1),
                 std::invalid_argument);
    EXPECT_THROW(entropy_knn(poisoned, 1), std::invalid_argument);
    EXPECT_THROW(reference::entropy_knn_brute(poisoned, 1),
                 std::invalid_argument);
  }
}

TEST(KsgProperty, BitIdenticalToBruteForceOnOrderCorpora) {
  AnalysisScratch scratch;
  for (const std::uint64_t seed : {5011u, 5012u}) {
    for (const testing::OrderCorpus& c : testing::order_corpora(seed, 300)) {
      for (const unsigned k : {1u, 3u, 16u}) {
        const double brute =
            reference::mutual_information_ksg_brute(c.xs, c.zs, k);
        ASSERT_EQ(mutual_information_ksg(c.xs, c.zs, k, scratch), brute)
            << c.kind << ", seed " << seed << ", k=" << k;
        // The same corpus with the roles of the marginals swapped sends
        // the sorted (or nearly sorted) side through the other order.
        ASSERT_EQ(mutual_information_ksg(c.zs, c.xs, k, scratch),
                  reference::mutual_information_ksg_brute(c.zs, c.xs, k))
            << c.kind << " (swapped), seed " << seed << ", k=" << k;
      }
    }
  }
}

// The ranked estimator leaves its last permutation (the z order) in
// scratch.order and each marginal's ranks in scratch.ranks_x/ranks_z; r / n
// at the original index of the r-th point pins the whole x permutation.
// Together they assert that the radix order is, permutation for
// permutation, the (value, original index) comparison sort it replaced.
void expect_comparator_orders(std::span<const double> xs,
                              std::span<const double> zs, const char* kind,
                              AnalysisScratch& scratch) {
  const double mi = mutual_information_ranked(xs, zs, 12, scratch);
  const std::vector<double> ranks_x = testing::comparator_ranks(xs);
  const std::vector<double> ranks_z = testing::comparator_ranks(zs);
  ASSERT_EQ(scratch.order, testing::comparator_order(zs))
      << kind << ", n=" << xs.size();
  ASSERT_EQ(scratch.ranks_x, ranks_x) << kind << ", n=" << xs.size();
  ASSERT_EQ(scratch.ranks_z, ranks_z) << kind << ", n=" << xs.size();
  ASSERT_EQ(mi, mutual_information_histogram(ranks_x, ranks_z, 12))
      << kind << ", n=" << xs.size();
}

TEST(RankedProperty, OrdersMatchComparatorSortOnOrderCorpora) {
  AnalysisScratch scratch;
  for (const std::uint64_t seed : {5021u, 5022u, 5023u}) {
    for (const std::size_t n : {std::size_t{2}, std::size_t{37},
                                std::size_t{1000}, std::size_t{5000}}) {
      for (const testing::OrderCorpus& c : testing::order_corpora(seed, n)) {
        expect_comparator_orders(c.xs, c.zs, c.kind, scratch);
        expect_comparator_orders(c.zs, c.xs, c.kind, scratch);
      }
    }
  }
}

TEST(RankedProperty, SignedZerosTieInIndexOrder) {
  const std::vector<std::vector<double>> cases{
      {0.0, -0.0, 0.0, -0.0},         // in order under <: the identity
      {1.0, -0.0, 0.0, -0.0, -1.0},   // radix path: zeros tie by index
      {3.0, 3.0, 3.0, 2.0, 3.0, 3.0},
      {-1e308, 4.9e-324, -0.0, 1e308, -4.9e-324, 0.0},
  };
  AnalysisScratch scratch;
  for (const std::vector<double>& values : cases) {
    std::vector<double> reversed(values.rbegin(), values.rend());
    expect_comparator_orders(values, reversed, "hand-made", scratch);
  }
}

}  // namespace
}  // namespace tempriv::infotheory
