#include "infotheory/reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "infotheory/entropy.h"

namespace tempriv::infotheory::reference {

namespace {

void require_finite(std::span<const double> samples, const char* who) {
  if (!std::all_of(samples.begin(), samples.end(),
                   [](double v) { return std::isfinite(v); })) {
    throw std::invalid_argument(std::string(who) + ": non-finite sample");
  }
}

}  // namespace

double mutual_information_ksg_brute(std::span<const double> xs,
                                    std::span<const double> zs, unsigned k) {
  if (xs.size() != zs.size()) {
    throw std::invalid_argument("mutual_information_ksg: size mismatch");
  }
  if (k == 0) throw std::invalid_argument("mutual_information_ksg: k >= 1");
  const std::size_t n = xs.size();
  if (n <= k) {
    throw std::invalid_argument(
        "mutual_information_ksg: needs more samples than k");
  }
  require_finite(xs, "mutual_information_ksg");
  require_finite(zs, "mutual_information_ksg");

  double psi_sum = 0.0;
  std::vector<double> kth(k);  // k smallest joint distances for point i
  for (std::size_t i = 0; i < n; ++i) {
    // k-th nearest joint max-norm distance (brute force).
    std::fill(kth.begin(), kth.end(), std::numeric_limits<double>::infinity());
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double d =
          std::max(std::fabs(xs[j] - xs[i]), std::fabs(zs[j] - zs[i]));
      if (d < kth.back()) {
        // Insertion into the small sorted buffer of size k.
        std::size_t pos = k - 1;
        while (pos > 0 && kth[pos - 1] > d) {
          kth[pos] = kth[pos - 1];
          --pos;
        }
        kth[pos] = d;
      }
    }
    const double eps = kth.back();
    std::size_t nx = 0;
    std::size_t nz = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      if (std::fabs(xs[j] - xs[i]) < eps) ++nx;
      if (std::fabs(zs[j] - zs[i]) < eps) ++nz;
    }
    psi_sum += digamma(static_cast<double>(nx + 1)) +
               digamma(static_cast<double>(nz + 1));
  }
  const double mi = digamma(static_cast<double>(k)) +
                    digamma(static_cast<double>(n)) -
                    psi_sum / static_cast<double>(n);
  return std::max(mi, 0.0);
}

double entropy_knn_brute(std::span<const double> samples, unsigned k) {
  if (k == 0) throw std::invalid_argument("entropy_knn: k >= 1");
  if (samples.size() <= k) {
    throw std::invalid_argument("entropy_knn: needs more samples than k");
  }
  require_finite(samples, "entropy_knn");
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  std::vector<double> kth(k);
  double log_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // k-th nearest neighbor of sorted[i] by scanning every other sample.
    std::fill(kth.begin(), kth.end(), std::numeric_limits<double>::infinity());
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double d = std::fabs(sorted[j] - sorted[i]);
      if (d < kth.back()) {
        std::size_t pos = k - 1;
        while (pos > 0 && kth[pos - 1] > d) {
          kth[pos] = kth[pos - 1];
          --pos;
        }
        kth[pos] = d;
      }
    }
    log_sum += std::log(std::max(2.0 * kth.back(), 1e-300));
  }
  return digamma(static_cast<double>(n)) - digamma(static_cast<double>(k)) +
         log_sum / static_cast<double>(n);
}

}  // namespace tempriv::infotheory::reference
