#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace tempriv::infotheory {

/// Empirical differential-entropy and mutual-information estimators used to
/// validate the paper's analytic bounds (Eq. 2 and Eq. 4) against simulated
/// creation/arrival time pairs.
///
/// All estimators are deterministic pure functions of their inputs. The
/// sort-based fast paths are verified bit-identical against retained
/// brute-force references (infotheory/reference.h) by property tests that
/// include exact-duplicate samples and tied max-norm distances.
///
/// Every estimator rejects a NaN or ±inf sample with std::invalid_argument
/// naming the function, before any sort or binning touches it.

struct AnalysisScratch;

/// Histogram (plug-in) estimator of differential entropy in nats:
///   ĥ = −Σ p̂ᵢ ln(p̂ᵢ / Δ)  over `bins` equal-width bins spanning the
/// sample range. Consistent as n→∞, bins→∞, n/bins→∞. Requires >= 2
/// samples with non-zero spread. O(n + bins).
double entropy_histogram(std::span<const double> samples, std::size_t bins);
double entropy_histogram(std::span<const double> samples, std::size_t bins,
                         AnalysisScratch& scratch);

/// Kozachenko–Leonenko nearest-neighbor estimator of differential entropy
/// (1-D, k-th neighbor):
///   ĥ = ψ(n) − ψ(k) + (1/n) Σ ln(2 rᵢ)
/// where rᵢ is the distance to the k-th nearest neighbor of sample i.
/// Sort-based O(n log n). Requires n > k >= 1.
double entropy_knn(std::span<const double> samples, unsigned k = 3);
double entropy_knn(std::span<const double> samples, unsigned k,
                   AnalysisScratch& scratch);

/// Plug-in mutual-information estimator over a bins×bins 2-D histogram:
///   Î(X;Z) = Σ p̂(x,z) ln( p̂(x,z) / (p̂(x) p̂(z)) )   (nats, >= 0).
/// Requires matching sample counts (>= 2) and non-zero spread in each
/// marginal. Single-pass binning, O(n + bins²).
double mutual_information_histogram(std::span<const double> xs,
                                    std::span<const double> zs,
                                    std::size_t bins);
double mutual_information_histogram(std::span<const double> xs,
                                    std::span<const double> zs,
                                    std::size_t bins,
                                    AnalysisScratch& scratch);

/// Rank-based (empirical-copula) mutual-information estimator: replaces
/// each marginal by its normalized rank before binning. Because mutual
/// information is invariant under strictly monotone marginal transforms,
/// this estimates the same I(X;Z) while being immune to heavy tails that
/// defeat equal-width binning (e.g. Pareto privacy delays, where a single
/// extreme arrival stretches the histogram range until everything falls
/// into one bin). Ties are broken by sample order. Requires at most 2³²−1
/// samples.
double mutual_information_ranked(std::span<const double> xs,
                                 std::span<const double> zs, std::size_t bins);
double mutual_information_ranked(std::span<const double> xs,
                                 std::span<const double> zs, std::size_t bins,
                                 AnalysisScratch& scratch);

/// Precomputed sort context for the KSG estimator: x-sorted point order
/// (ties broken by original index), z values carried along, and a z-sorted
/// copy for marginal range counting. Both orders come from the helper the
/// ranked estimator uses too: a stable LSD radix sort of 32-bit indices on
/// the order-preserving 64-bit image of each value (−0.0 folded onto
/// +0.0), which returns the identity after one O(n) pass when the input is
/// already in order, as sink-side arrival times always are. Splitting
/// preparation from per-point evaluation lets sweep loops reuse the
/// buffers and lets the per-point loop — embarrassingly parallel — be
/// fanned out across threads (campaign::parallel_mutual_information_ksg)
/// with a deterministic in-order reduction.
class KsgWorkspace {
 public:
  /// Validates and sorts. Throws std::invalid_argument on size mismatch,
  /// k == 0, n <= k, more than 2³²−1 samples, or a NaN or ±inf sample.
  /// Buffers are reused across calls; the radix sort ping-pongs through
  /// the workspace's own index arrays plus one per-call permutation.
  void prepare(std::span<const double> xs, std::span<const double> zs,
               unsigned k);

  std::size_t size() const noexcept { return n_; }
  unsigned neighbors() const noexcept { return k_; }

  /// Computes ψ(n_x+1) + ψ(n_z+1) for the points at x-sorted positions
  /// [begin, end) — iterating in sweep order keeps the window scans
  /// cache-resident — writing each result to psi[original index of the
  /// point]. Covering [0, size()) fills psi entirely. Each point is
  /// independent: disjoint ranges may run concurrently on one prepared
  /// workspace. `psi` must span at least size() elements.
  void psi_terms(std::size_t begin, std::size_t end,
                 std::span<double> psi) const;

  /// In-order reduction ψ(k) + ψ(n) − ⟨psi⟩, clamped at 0. Summing in
  /// original index order keeps the result bit-identical to the
  /// brute-force reference regardless of how psi_terms was partitioned.
  double reduce(std::span<const double> psi) const;

 private:
  double psi_term_at(std::size_t x_position, std::vector<double>& kth) const;

  std::size_t n_ = 0;
  unsigned k_ = 0;
  std::vector<double> x_by_x_;            ///< x values in x-sorted order
  std::vector<double> z_by_x_;            ///< z values in x-sorted order
  std::vector<double> z_sorted_;          ///< z values in z-sorted order
  std::vector<std::uint32_t> orig_by_x_;  ///< x-sorted pos -> original index
  std::vector<std::uint32_t> pos_in_z_;   ///< original index -> z-sorted pos
};

/// Kraskov–Stögbauer–Grassberger (KSG, 2004) mutual-information estimator,
/// algorithm 1, for (X, Z) pairs with max-norm neighborhoods:
///   Î = ψ(k) + ψ(N) − ⟨ψ(n_x+1) + ψ(n_z+1)⟩
/// where n_x (n_z) counts samples strictly within the k-th-neighbor joint
/// distance along each marginal. Nearly unbiased at small sample sizes
/// where histogram estimators are badly biased. Radix-sorted x and z
/// orders (KsgWorkspace), a bounded window sweep over the x-order for the
/// joint k-NN, and marginal counts that gallop outward from each point's
/// own slot: O(N (k + log n_z)) after an O(N) sort for continuous samples,
/// degrading toward O(N²) only when nearly all x values coincide.
/// Bit-identical to the retained O(N²) reference. Requires N > k >= 1 and
/// finite samples.
double mutual_information_ksg(std::span<const double> xs,
                              std::span<const double> zs, unsigned k = 3);
double mutual_information_ksg(std::span<const double> xs,
                              std::span<const double> zs, unsigned k,
                              AnalysisScratch& scratch);

/// Convenience: Î(X; X+Y) from creation times and their delays.
double leakage_from_delays(std::span<const double> creation_times,
                           std::span<const double> delays, std::size_t bins);
double leakage_from_delays(std::span<const double> creation_times,
                           std::span<const double> delays, std::size_t bins,
                           AnalysisScratch& scratch);

/// Reusable arena for the estimators above. Sweep loops that evaluate many
/// sample sets (one per sweep point) pass one scratch through every call so
/// the histograms, rank permutations, sorted copies, and KSG workspace are
/// allocated once and recycled. A scratch is cheap to default-construct and
/// must not be shared between threads concurrently; results are identical
/// with or without one.
struct AnalysisScratch {
  KsgWorkspace ksg;
  std::vector<double> psi;         ///< KSG per-point ψ terms
  std::vector<double> values;      ///< sorted copies / derived series
  std::vector<double> ranks_x;
  std::vector<double> ranks_z;
  std::vector<std::uint32_t> order;          ///< rank permutation
  std::vector<std::uint32_t> order_scratch;  ///< its radix ping-pong buffer
  std::vector<std::uint64_t> counts;
  std::vector<std::uint64_t> joint;
  std::vector<std::uint64_t> marginal_x;
  std::vector<std::uint64_t> marginal_z;
};

}  // namespace tempriv::infotheory
