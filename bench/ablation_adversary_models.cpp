// Ablation E — adversary strength ladder (extension beyond the paper).
//
// Three deployment-aware adversaries against RCAD on the paper scenario:
//   1. baseline (§2.1/§5.1): x̂ = z − h(τ + 1/µ), ignores preemption;
//   2. adaptive (§5.4): flow-level Erlang regime test, k/λ̂ per hop;
//   3. path-aware (this reproduction's extension): knows topology+routing,
//      attributes observed flow rates to individual nodes, and models the
//      preemption regime per node — trunk nodes (aggregated traffic) hold
//      packets ~k/λtot, branch nodes ~k/λᵢ.
//
// Expected shape: each step down the ladder reduces the defender's MSE at
// high traffic; the path-aware adversary is the strongest, showing that
// RCAD's residual privacy at overload is the *variance* of the preemption
// process, not the adversary's modeling error. All three coincide at low
// traffic where no preemption happens.

#include <algorithm>

#include "bench_util.h"
#include "metrics/table.h"
#include "workload/scenario.h"

int main() {
  using namespace tempriv;

  metrics::Table table({"1/lambda", "baseline MSE", "adaptive MSE",
                        "path-aware MSE", "S1 latency variance floor"});

  for (double interarrival = 2.0; interarrival <= 20.0; interarrival += 2.0) {
    workload::PaperScenario scenario;
    scenario.interarrival = interarrival;
    scenario.scheme = workload::Scheme::kRcad;
    const auto result = run_paper_scenario(scenario);
    const auto& s1 = result.flows.front();
    // The variance floor: no mean-subtracting estimator can beat the
    // variance of the latency itself. Approximated here via the best of
    // the three adversaries minus their squared bias is not observable,
    // so we print the path-aware value as the practical floor.
    table.add_numeric_row({interarrival, s1.mse_baseline, s1.mse_adaptive,
                           s1.mse_path_aware,
                           std::min({s1.mse_baseline, s1.mse_adaptive,
                                     s1.mse_path_aware})},
                          1);
  }

  bench::emit("ablation_adversary_models", table);
  return 0;
}
