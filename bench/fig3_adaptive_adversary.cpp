// Figure 3 — "The estimation error for the two adversary models": MSE of
// the baseline vs the adaptive adversary for flow S1 under RCAD, as a
// function of the source inter-arrival time.
//
// The adaptive adversary (§5.4) runs the Erlang-loss test with threshold
// 0.1 on its observed traffic rate and, in the preemption regime, replaces
// its per-hop delay estimate 1/µ with k/λ̂.
//
// Expected shape (paper): at low traffic the two coincide; at high traffic
// the adaptive adversary significantly reduces — but does not eliminate —
// the estimation error.
//
// The 10 scenario points run as campaign jobs across all cores; the merge
// order is fixed by job index, so the CSV is the same at any worker count.

#include "bench_util.h"
#include "campaign/sweeps.h"

int main() {
  using namespace tempriv;
  const campaign::Sweep sweep = campaign::fig3_sweep();
  campaign::ProgressReporter progress(std::cerr, sweep.points.size());
  const auto run = campaign::run_sweep(sweep, {.threads = 0, .progress = &progress});
  progress.finish();
  bench::emit(sweep.tag, run.table);
  return 0;
}
