#include "infotheory/estimators.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "infotheory/entropy.h"

namespace tempriv::infotheory {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Every public estimator calls this before sorting or binning: NaN breaks
/// the strict weak order a sort relies on, and NaN or ±inf would reach the
/// double → size_t cast of the histogram binning.
void require_finite(std::span<const double> samples, const char* who) {
  if (!std::all_of(samples.begin(), samples.end(),
                   [](double v) { return std::isfinite(v); })) {
    throw std::invalid_argument(std::string(who) + ": non-finite sample");
  }
}

/// Rejects inputs whose positions do not fit the 32-bit index permutations.
void require_indexable(std::size_t n, const char* who) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(std::string(who) + ": too many samples");
  }
}

struct Range {
  double lo;
  double hi;
};

Range sample_range(std::span<const double> samples, const char* who) {
  require_finite(samples, who);
  if (samples.size() < 2) {
    throw std::invalid_argument(std::string(who) + ": needs >= 2 samples");
  }
  const auto [lo_it, hi_it] = std::minmax_element(samples.begin(), samples.end());
  if (!(*lo_it < *hi_it)) {
    throw std::invalid_argument(std::string(who) + ": zero sample spread");
  }
  return {*lo_it, *hi_it};
}

/// Precomputed binning transform: one multiply per sample instead of a
/// division. `scale` is bins / (hi − lo), the inverse bin width.
struct BinScale {
  double lo;
  double scale;
  std::size_t last;

  BinScale(const Range& r, std::size_t bins)
      : lo(r.lo),
        scale(static_cast<double>(bins) / (r.hi - r.lo)),
        last(bins - 1) {}

  std::size_t operator()(double x) const {
    const auto idx = static_cast<std::size_t>((x - lo) * scale);
    return std::min(idx, last);  // put the max sample in the last bin
  }
};

/// Order-preserving unsigned image of a non-NaN double: unsigned
/// comparison of the images agrees with < on the values. −0.0 is folded
/// onto +0.0 first, so the two zeros — equal under == — share one key.
std::uint64_t order_key(double v) {
  if (v == 0.0) v = 0.0;
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const std::uint64_t flip =
      (bits >> 63) != 0 ? ~std::uint64_t{0} : std::uint64_t{1} << 63;
  return bits ^ flip;
}

constexpr unsigned kRadixBits = 11;
constexpr std::size_t kRadix = std::size_t{1} << kRadixBits;
constexpr unsigned kRadixPasses = (64 + kRadixBits - 1) / kRadixBits;

/// Writes to `order` the permutation that sorts `values` by (value,
/// original index): the order std::sort gives with the comparator
/// `values[a] != values[b] ? values[a] < values[b] : a < b`, so −0.0 and
/// +0.0 tie and keep their index order. The one order helper of the KSG
/// and ranked estimators; both validate first, so `values` is NaN-free and
/// indexes into uint32. Input already in order — sink-side arrival times
/// always are — is recognised in one O(n) pass and yields the identity.
/// Otherwise a stable LSD radix sort of the indices on order_key(value),
/// kRadixBits per pass, ping-pongs between `order` and `scratch` and skips
/// every pass whose digit is the same for all samples; stability is what
/// makes the original index the tie-break.
void radix_order(std::span<const double> values,
                 std::vector<std::uint32_t>& order,
                 std::vector<std::uint32_t>& scratch) {
  const std::size_t n = values.size();
  order.resize(n);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  if (std::is_sorted(values.begin(), values.end())) return;

  std::array<std::array<std::uint32_t, kRadix>, kRadixPasses> counts{};
  for (double v : values) {
    const std::uint64_t key = order_key(v);
    for (unsigned pass = 0; pass < kRadixPasses; ++pass) {
      ++counts[pass][(key >> (pass * kRadixBits)) & (kRadix - 1)];
    }
  }
  scratch.resize(n);
  std::uint32_t* src = order.data();
  std::uint32_t* dst = scratch.data();
  const std::uint64_t first_key = order_key(values[0]);
  for (unsigned pass = 0; pass < kRadixPasses; ++pass) {
    const unsigned shift = pass * kRadixBits;
    std::array<std::uint32_t, kRadix>& bucket = counts[pass];
    if (bucket[(first_key >> shift) & (kRadix - 1)] == n) continue;
    std::uint32_t offset = 0;
    for (std::uint32_t& c : bucket) {
      const std::uint32_t count = c;
      c = offset;
      offset += count;
    }
    for (std::size_t r = 0; r < n; ++r) {
      const std::uint32_t i = src[r];
      dst[bucket[(order_key(values[i]) >> shift) & (kRadix - 1)]++] = i;
    }
    std::swap(src, dst);
  }
  if (src != order.data()) std::copy(src, src + n, order.data());
}

}  // namespace

double entropy_histogram(std::span<const double> samples, std::size_t bins,
                         AnalysisScratch& scratch) {
  if (bins == 0) throw std::invalid_argument("entropy_histogram: bins >= 1");
  const Range r = sample_range(samples, "entropy_histogram");
  const double width = (r.hi - r.lo) / static_cast<double>(bins);
  const BinScale bin(r, bins);
  scratch.counts.assign(bins, 0);
  for (double x : samples) ++scratch.counts[bin(x)];
  const auto n = static_cast<double>(samples.size());
  double h = 0.0;
  for (std::uint64_t c : scratch.counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / n;
    h -= p * std::log(p / width);
  }
  return h;
}

double entropy_histogram(std::span<const double> samples, std::size_t bins) {
  AnalysisScratch scratch;
  return entropy_histogram(samples, bins, scratch);
}

double entropy_knn(std::span<const double> samples, unsigned k,
                   AnalysisScratch& scratch) {
  if (k == 0) throw std::invalid_argument("entropy_knn: k >= 1");
  if (samples.size() <= k) {
    throw std::invalid_argument("entropy_knn: needs more samples than k");
  }
  require_finite(samples, "entropy_knn");
  std::vector<double>& sorted = scratch.values;
  sorted.assign(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  double log_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // k-th nearest neighbor in 1-D: scan the (at most 2k) candidates around
    // i in the sorted order with a two-pointer merge.
    std::size_t left = i;
    std::size_t right = i;
    double r = 0.0;
    for (unsigned taken = 0; taken < k; ++taken) {
      const double dl = left > 0 ? sorted[i] - sorted[left - 1] : kInf;
      const double dr = right + 1 < n ? sorted[right + 1] - sorted[i] : kInf;
      if (dl <= dr) {
        r = dl;
        --left;
      } else {
        r = dr;
        ++right;
      }
    }
    // Guard against duplicate samples (r == 0 would blow up the log).
    log_sum += std::log(std::max(2.0 * r, 1e-300));
  }
  return digamma(static_cast<double>(n)) - digamma(static_cast<double>(k)) +
         log_sum / static_cast<double>(n);
}

double entropy_knn(std::span<const double> samples, unsigned k) {
  AnalysisScratch scratch;
  return entropy_knn(samples, k, scratch);
}

double mutual_information_histogram(std::span<const double> xs,
                                    std::span<const double> zs,
                                    std::size_t bins,
                                    AnalysisScratch& scratch) {
  if (bins == 0) throw std::invalid_argument("mutual_information_histogram: bins >= 1");
  if (xs.size() != zs.size()) {
    throw std::invalid_argument("mutual_information_histogram: size mismatch");
  }
  const Range rx = sample_range(xs, "mutual_information_histogram(x)");
  const Range rz = sample_range(zs, "mutual_information_histogram(z)");
  const BinScale bin_x(rx, bins);
  const BinScale bin_z(rz, bins);
  scratch.joint.assign(bins * bins, 0);
  scratch.marginal_x.assign(bins, 0);
  scratch.marginal_z.assign(bins, 0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::size_t bx = bin_x(xs[i]);
    const std::size_t bz = bin_z(zs[i]);
    ++scratch.joint[bx * bins + bz];
    ++scratch.marginal_x[bx];
    ++scratch.marginal_z[bz];
  }
  const auto n = static_cast<double>(xs.size());
  double mi = 0.0;
  for (std::size_t bx = 0; bx < bins; ++bx) {
    for (std::size_t bz = 0; bz < bins; ++bz) {
      const std::uint64_t c = scratch.joint[bx * bins + bz];
      if (c == 0) continue;
      const double pxz = static_cast<double>(c) / n;
      const double px = static_cast<double>(scratch.marginal_x[bx]) / n;
      const double pz = static_cast<double>(scratch.marginal_z[bz]) / n;
      mi += pxz * std::log(pxz / (px * pz));
    }
  }
  return std::max(mi, 0.0);
}

double mutual_information_histogram(std::span<const double> xs,
                                    std::span<const double> zs,
                                    std::size_t bins) {
  AnalysisScratch scratch;
  return mutual_information_histogram(xs, zs, bins, scratch);
}

namespace {

void normalized_ranks(std::span<const double> xs, AnalysisScratch& scratch,
                      std::vector<double>& ranks) {
  radix_order(xs, scratch.order, scratch.order_scratch);
  ranks.resize(xs.size());
  for (std::size_t r = 0; r < xs.size(); ++r) {
    ranks[scratch.order[r]] =
        static_cast<double>(r) / static_cast<double>(xs.size());
  }
}

}  // namespace

double mutual_information_ranked(std::span<const double> xs,
                                 std::span<const double> zs, std::size_t bins,
                                 AnalysisScratch& scratch) {
  if (xs.size() != zs.size()) {
    throw std::invalid_argument("mutual_information_ranked: size mismatch");
  }
  require_finite(xs, "mutual_information_ranked");
  require_finite(zs, "mutual_information_ranked");
  require_indexable(xs.size(), "mutual_information_ranked");
  normalized_ranks(xs, scratch, scratch.ranks_x);
  normalized_ranks(zs, scratch, scratch.ranks_z);
  return mutual_information_histogram(scratch.ranks_x, scratch.ranks_z, bins,
                                      scratch);
}

double mutual_information_ranked(std::span<const double> xs,
                                 std::span<const double> zs,
                                 std::size_t bins) {
  AnalysisScratch scratch;
  return mutual_information_ranked(xs, zs, bins, scratch);
}

void KsgWorkspace::prepare(std::span<const double> xs,
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
  require_indexable(n, "mutual_information_ksg");
  require_finite(xs, "mutual_information_ksg");
  require_finite(zs, "mutual_information_ksg");
  n_ = n;
  k_ = k;

  // x order with original-index tie-break: orig_by_x_ gives each sweep
  // position its point, so point i's own slot (not a duplicate's) is
  // skipped in the k-NN sweep — the exact j != i rule of the brute-force
  // reference. pos_in_z_ is not filled until the z pass, so it serves as
  // the radix sort's ping-pong buffer meanwhile.
  radix_order(xs, orig_by_x_, pos_in_z_);
  x_by_x_.resize(n);
  z_by_x_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint32_t i = orig_by_x_[p];
    x_by_x_[p] = xs[i];
    z_by_x_[p] = zs[i];
  }
  // z order, again with index tie-break, so every point knows its own
  // anchor in the z array without a per-point lower_bound. The permutation
  // is needed only to fill z_sorted_ and its inverse, so it lives for this
  // call alone.
  std::vector<std::uint32_t> order;
  radix_order(zs, order, pos_in_z_);
  z_sorted_.resize(n);
  pos_in_z_.resize(n);  // the sorted fast path leaves scratch untouched
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint32_t i = order[p];
    z_sorted_[p] = zs[i];
    pos_in_z_[i] = static_cast<std::uint32_t>(p);
  }
}

namespace {

/// Number of entries v of sorted[lo_bound..hi_bound] with |v − center| <
/// eps. `anchor` is an index in range where the predicate holds, and the
/// satisfying run must lie within the given bounds. The predicate is
/// monotone on each side of the anchor, so each boundary is found by
/// galloping outward (steps 1, 2, 4, … from the last index inside) and
/// then binary-searching the final step: O(log count) probes rather than
/// O(log n), with exactly the boundaries a plain binary search finds. The
/// predicate is evaluated exactly as the brute-force reference evaluates
/// it — fabs of the rounded difference — so the count matches it
/// bit-for-bit; searching on center ± eps instead could disagree by one at
/// the boundary through a different rounding.
std::size_t count_strictly_within(const std::vector<double>& sorted,
                                  std::size_t lo_bound, std::size_t anchor,
                                  std::size_t hi_bound, double center,
                                  double eps) {
  const auto inside = [&](std::size_t m) {
    return std::fabs(sorted[m] - center) < eps;
  };
  // Leftmost index inside: hi is always inside, lo the lowest candidate.
  std::size_t lo = lo_bound;
  std::size_t hi = anchor;
  for (std::size_t step = 1; hi > lo_bound; step *= 2) {
    const std::size_t probe = hi - lo_bound > step ? hi - step : lo_bound;
    if (!inside(probe)) {
      lo = probe + 1;
      break;
    }
    hi = probe;
  }
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (inside(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const std::size_t first = lo;
  // Rightmost index inside: lo is always inside, hi the highest candidate.
  lo = anchor;
  hi = hi_bound;
  for (std::size_t step = 1; lo < hi_bound; step *= 2) {
    const std::size_t probe = hi_bound - lo > step ? lo + step : hi_bound;
    if (!inside(probe)) {
      hi = probe - 1;
      break;
    }
    lo = probe;
  }
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (inside(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo - first + 1;
}

}  // namespace

double KsgWorkspace::psi_term_at(std::size_t x_position,
                                 std::vector<double>& kth) const {
  const std::size_t p = x_position;
  const double xi = x_by_x_[p];
  const double zi = z_by_x_[p];

  const auto insert = [&kth, this](double d) {
    std::size_t pos = k_ - 1;
    while (pos > 0 && kth[pos - 1] > d) {
      kth[pos] = kth[pos - 1];
      --pos;
    }
    kth[pos] = d;
  };
  const auto joint_distance = [this, xi, zi](double dx, std::size_t j) {
    return std::max(dx, std::fabs(z_by_x_[j] - zi));
  };

  // Joint k-NN in the max-norm over the x-order. Seed the k-best buffer
  // with the k candidates nearest in |Δx| (two-pointer merge), which makes
  // the running bound finite; then sweep the remaining strip one side at a
  // time. A point is skipped only once the frontier's |Δx| exceeds the
  // bound, and the bound never grows, so every skipped point has joint
  // distance >= |Δx| >= the final k-th best — it cannot displace anything.
  std::fill(kth.begin(), kth.end(), kInf);
  std::size_t left = p;   // next left candidate is left-1
  std::size_t right = p;  // next right candidate is right+1
  for (unsigned taken = 0; taken < k_; ++taken) {
    const double dl = left > 0 ? xi - x_by_x_[left - 1] : kInf;
    const double dr = right + 1 < n_ ? x_by_x_[right + 1] - xi : kInf;
    if (dl <= dr) {
      --left;
      insert(joint_distance(dl, left));
    } else {
      ++right;
      insert(joint_distance(dr, right));
    }
  }
  while (left > 0) {
    const double dx = xi - x_by_x_[left - 1];
    if (dx >= kth.back()) break;
    --left;
    const double d = joint_distance(dx, left);
    if (d < kth.back()) insert(d);
  }
  while (right + 1 < n_) {
    const double dx = x_by_x_[right + 1] - xi;
    if (dx >= kth.back()) break;
    ++right;
    const double d = joint_distance(dx, right);
    if (d < kth.back()) insert(d);
  }
  const double eps = kth.back();

  // Marginal counts of samples strictly within eps, excluding the point
  // itself (which sits inside the interval exactly when eps > 0). The
  // x-search is confined to the examined window [left, right]: everything
  // beyond it was skipped with |Δx| >= eps.
  std::size_t nx = 0;
  std::size_t nz = 0;
  if (eps > 0.0) {
    nx = count_strictly_within(x_by_x_, left, p, right, xi, eps) - 1;
    const std::size_t pz = pos_in_z_[orig_by_x_[p]];
    nz = count_strictly_within(z_sorted_, 0, pz, n_ - 1, zi, eps) - 1;
  }
  return digamma_int(nx + 1) + digamma_int(nz + 1);
}

void KsgWorkspace::psi_terms(std::size_t begin, std::size_t end,
                             std::span<double> psi) const {
  std::vector<double> kth(k_);
  for (std::size_t p = begin; p < end; ++p) {
    psi[orig_by_x_[p]] = psi_term_at(p, kth);
  }
}

double KsgWorkspace::reduce(std::span<const double> psi) const {
  double psi_sum = 0.0;
  for (std::size_t i = 0; i < n_; ++i) psi_sum += psi[i];
  const double mi = digamma_int(k_) + digamma_int(n_) -
                    psi_sum / static_cast<double>(n_);
  return std::max(mi, 0.0);
}

double mutual_information_ksg(std::span<const double> xs,
                              std::span<const double> zs, unsigned k,
                              AnalysisScratch& scratch) {
  scratch.ksg.prepare(xs, zs, k);
  scratch.psi.resize(scratch.ksg.size());
  scratch.ksg.psi_terms(0, scratch.ksg.size(), scratch.psi);
  return scratch.ksg.reduce(scratch.psi);
}

double mutual_information_ksg(std::span<const double> xs,
                              std::span<const double> zs, unsigned k) {
  AnalysisScratch scratch;
  return mutual_information_ksg(xs, zs, k, scratch);
}

double leakage_from_delays(std::span<const double> creation_times,
                           std::span<const double> delays, std::size_t bins,
                           AnalysisScratch& scratch) {
  if (creation_times.size() != delays.size()) {
    throw std::invalid_argument("leakage_from_delays: size mismatch");
  }
  require_finite(creation_times, "leakage_from_delays");
  require_finite(delays, "leakage_from_delays");
  std::vector<double>& arrivals = scratch.values;
  arrivals.resize(creation_times.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    arrivals[i] = creation_times[i] + delays[i];
  }
  return mutual_information_histogram(creation_times, arrivals, bins, scratch);
}

double leakage_from_delays(std::span<const double> creation_times,
                           std::span<const double> delays, std::size_t bins) {
  AnalysisScratch scratch;
  return leakage_from_delays(creation_times, delays, bins, scratch);
}

}  // namespace tempriv::infotheory
