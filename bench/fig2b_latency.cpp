// Figure 2(b) — average end-to-end packet latency for flow S1 under the
// three schemes of §5.3, as a function of the source inter-arrival time.
//
// Expected shape (paper): NoDelay is flat at h·τ = 15; unlimited buffering
// is flat near h(τ + 1/µ) = 465; RCAD sits between the two and drops
// furthest below the unlimited case at high traffic (at 1/λ = 2 the paper
// reports a ~2.5× latency reduction) because preemption truncates delays.
//
// The 30 scenario points run as campaign jobs across all cores; the merge
// order is fixed by job index, so the CSV is the same at any worker count.

#include "bench_util.h"
#include "campaign/sweeps.h"

int main() {
  using namespace tempriv;
  const campaign::Sweep sweep = campaign::fig2b_sweep();
  campaign::ProgressReporter progress(std::cerr, sweep.points.size());
  const auto run = campaign::run_sweep(sweep, {.threads = 0, .progress = &progress});
  progress.finish();
  bench::emit(sweep.tag, run.table);
  return 0;
}
