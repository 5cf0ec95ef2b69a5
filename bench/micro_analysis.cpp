// Analysis-layer microbenchmarks (google-benchmark): the information-theory
// estimators that post-process every simulation sweep (KSG mutual
// information, k-NN and histogram entropies, rank/copula MI) plus the
// adversary's per-flow estimate query. These bound how many Monte-Carlo
// samples a leakage figure can afford per sweep point.
//
// scripts/bench_analysis.sh runs this suite and records the medians in
// BENCH_analysis.json, with speedups against the committed pre-rewrite
// capture bench_results/analysis_before.json (same trajectory convention
// as BENCH_engine.json).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "adversary/estimator.h"
#include "campaign/analysis.h"
#include "campaign/thread_pool.h"
#include "infotheory/entropy.h"
#include "infotheory/estimators.h"
#include "infotheory/reference.h"
#include "net/packet.h"
#include "sim/random.h"

namespace {

using namespace tempriv;

// Correlated (creation, arrival) pairs — the shape every leakage figure
// feeds the estimators: x uniform in a window, z = x + Exp(30) delay.
struct LeakagePairs {
  std::vector<double> xs;
  std::vector<double> zs;
};

LeakagePairs leakage_pairs(std::size_t n, std::uint64_t seed) {
  sim::RandomStream rng(seed);
  LeakagePairs p;
  p.xs.resize(n);
  p.zs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.xs[i] = rng.uniform(0.0, 100.0);
    p.zs[i] = p.xs[i] + rng.exponential_mean(30.0);
  }
  return p;
}

// Per-flow pairs in the order Adversary::estimates_for_flow yields them: a
// periodic source (one packet every 2 time units) whose packets each take
// an Exp(30) delay, listed in sink arrival order. z is therefore sorted and
// x nearly so — the input every scored longrun_leakage flow hands KSG.
LeakagePairs arrival_ordered_pairs(std::size_t n, std::uint64_t seed) {
  sim::RandomStream rng(seed);
  std::vector<double> creation(n);
  std::vector<double> arrival(n);
  for (std::size_t i = 0; i < n; ++i) {
    creation[i] = 2.0 * static_cast<double>(i);
    arrival[i] = creation[i] + rng.exponential_mean(30.0);
  }
  std::vector<std::size_t> by_arrival(n);
  std::iota(by_arrival.begin(), by_arrival.end(), std::size_t{0});
  std::sort(by_arrival.begin(), by_arrival.end(),
            [&](std::size_t a, std::size_t b) {
              return arrival[a] < arrival[b];
            });
  LeakagePairs p;
  for (const std::size_t i : by_arrival) {
    p.xs.push_back(creation[i]);
    p.zs.push_back(arrival[i]);
  }
  return p;
}

void BM_MutualInformationKsg(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const LeakagePairs p = leakage_pairs(n, 101);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        infotheory::mutual_information_ksg(p.xs, p.zs, 4));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MutualInformationKsg)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// The retained O(n²) reference — kept runnable so the speedup claimed in
// BENCH_analysis.json can be re-measured on any machine, not just trusted
// from the committed baseline capture.
void BM_MutualInformationKsgBrute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const LeakagePairs p = leakage_pairs(n, 101);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        infotheory::reference::mutual_information_ksg_brute(p.xs, p.zs, 4));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MutualInformationKsgBrute)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// Thread-pool fan-out of the same estimator (bit-identical by contract).
// On multi-core hosts this shows the extra headroom; on one core it prices
// the dispatch overhead.
void run_parallel_ksg(benchmark::State& state, const LeakagePairs& p,
                      unsigned k) {
  campaign::ThreadPool pool(campaign::ThreadPool::resolve_threads(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        campaign::parallel_mutual_information_ksg(pool, p.xs, p.zs, k));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p.xs.size()));
}

void BM_ParallelMutualInformationKsg(benchmark::State& state) {
  run_parallel_ksg(state,
                   leakage_pairs(static_cast<std::size_t>(state.range(0)), 101),
                   4);
}
BENCHMARK(BM_ParallelMutualInformationKsg)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// The same fan-out on one longrun_leakage-shaped flow at its default k.
void BM_ParallelMutualInformationKsgArrivalOrdered(benchmark::State& state) {
  run_parallel_ksg(
      state,
      arrival_ordered_pairs(static_cast<std::size_t>(state.range(0)), 107), 3);
}
BENCHMARK(BM_ParallelMutualInformationKsgArrivalOrdered)->Arg(30000)
    ->Unit(benchmark::kMillisecond);

// KsgWorkspace::prepare alone — validation plus the x and z orders — on the
// same flow: the serial part every parallel KSG call pays before fanning out.
void BM_KsgPrepare(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const LeakagePairs p = arrival_ordered_pairs(n, 107);
  infotheory::KsgWorkspace workspace;
  for (auto _ : state) {
    workspace.prepare(p.xs, p.zs, 3);
    benchmark::DoNotOptimize(workspace.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KsgPrepare)->Arg(30000)->Unit(benchmark::kMicrosecond);

void BM_EntropyKnn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const LeakagePairs p = leakage_pairs(n, 102);
  for (auto _ : state) {
    benchmark::DoNotOptimize(infotheory::entropy_knn(p.zs, 4));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EntropyKnn)->Arg(100000);

void BM_EntropyKnnBrute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const LeakagePairs p = leakage_pairs(n, 102);
  for (auto _ : state) {
    benchmark::DoNotOptimize(infotheory::reference::entropy_knn_brute(p.zs, 4));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EntropyKnnBrute)->Arg(5000);

// ψ(m) for integer m is the hot inner call of every k-NN estimate; the memo
// table turns the series evaluation into an array load.
void BM_DigammaInt(benchmark::State& state) {
  benchmark::DoNotOptimize(infotheory::digamma_int(4096));  // warm the table
  for (auto _ : state) {
    double sum = 0.0;
    for (std::uint64_t m = 1; m <= 4096; ++m) {
      sum += infotheory::digamma_int(m);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_DigammaInt);

void BM_EntropyHistogram(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const LeakagePairs p = leakage_pairs(n, 103);
  for (auto _ : state) {
    benchmark::DoNotOptimize(infotheory::entropy_histogram(p.zs, 128));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EntropyHistogram)->Arg(100000);

void BM_MutualInformationHistogram(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const LeakagePairs p = leakage_pairs(n, 104);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        infotheory::mutual_information_histogram(p.xs, p.zs, 24));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MutualInformationHistogram)->Arg(100000);

void BM_MutualInformationRanked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const LeakagePairs p = leakage_pairs(n, 105);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        infotheory::mutual_information_ranked(p.xs, p.zs, 24));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MutualInformationRanked)->Arg(100000);

// Per-flow estimate retrieval — the post-processing query every figure's
// scoring loop makes once per flow after a run.
void BM_AdversaryFlowQuery(benchmark::State& state) {
  constexpr std::size_t kFlows = 64;
  constexpr std::size_t kPackets = 100000;
  adversary::BaselineAdversary adv(1.0, 30.0);
  sim::RandomStream rng(106);
  double t = 0.0;
  for (std::size_t i = 0; i < kPackets; ++i) {
    net::Packet packet;
    packet.uid = i;
    packet.header.origin = static_cast<net::NodeId>(i % kFlows);
    packet.header.hop_count = 9;
    t += rng.exponential_mean(2.0);
    adv.on_delivery(packet, t);
  }
  for (auto _ : state) {
    std::size_t total = 0;
    for (net::NodeId flow = 0; flow < kFlows; ++flow) {
      total += adv.estimates_for_flow(flow).size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kFlows));
}
BENCHMARK(BM_AdversaryFlowQuery);

}  // namespace

BENCHMARK_MAIN();
