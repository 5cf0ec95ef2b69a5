#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace repobench {

struct Config {
  std::string workload;
  std::uint64_t seed = 0;  ///< 0 = the default seed (golden/digest checks)
  bool smoke = false;      ///< tiny inputs for the smoke test
  std::string golden_dir;  ///< tests/golden of the checkout
};

/// Everything one timed iteration (one result: a campaign or a scored run)
/// produced. Times are seconds of wall clock.
struct Iteration {
  std::vector<double> setup_s;   ///< each set-up performed (the timed one last)
  double time_to_result_s = 0;   ///< start of the timed set-up -> verified scores
  double score_s = 0;            ///< end of simulation -> every MSE/MI ready
  std::vector<double> job_s;     ///< one per scored scenario (set-up..scores)
  double packets = 0;            ///< packets delivered and scored
  double scenarios = 0;          ///< scored scenarios in this result
  std::uint64_t attempted = 0;   ///< jobs + output checks attempted
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::string digest;            ///< FNV-1a of the simulated statistics
  std::map<std::string, double> layers;  ///< per-layer metrics (traced only)
};

const std::vector<std::string>& workload_names();

/// Runs one iteration of `config.workload`; spans go to `recorder` (a no-op
/// when tracing is off). Throws std::invalid_argument on unknown workloads.
Iteration run_iteration(const Config& config, SpanRecorder& recorder);

}  // namespace repobench
