#pragma once

#include <cstddef>
#include <cstdint>

#include "workload/scenario.h"

namespace tempriv::campaign {

/// One unit of campaign work: a fully-resolved scenario (seed already
/// derived) plus its coordinates in the sweep. `index` is the global job
/// number (point * replications + replication) and is the only ordering the
/// engine ever uses — merge order is fixed by it, never by completion order.
struct JobSpec {
  std::size_t index = 0;        ///< global job index; the merge key
  std::size_t point = 0;        ///< scenario-point index within the sweep
  std::uint32_t replication = 0;
  workload::PaperScenario scenario;
};

/// A finished job. `wall_seconds` is measurement-only (progress/throughput
/// reporting): the wall time of the simulation that produced `result`. Jobs
/// of one campaign with identical scenarios share that simulation (see
/// CampaignRunner::run) and so report the same `wall_seconds`, which keeps
/// the per-job wall distribution a distribution of simulation cost.
/// Everything else is a deterministic function of the spec, so two runs of
/// the same campaign agree on all fields except `wall_seconds` regardless of
/// worker count.
struct JobResult {
  JobSpec spec;
  workload::ScenarioResult result;
  double wall_seconds = 0.0;
};

}  // namespace tempriv::campaign
