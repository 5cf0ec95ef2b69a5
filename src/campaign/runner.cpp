#include "campaign/runner.h"

#include <chrono>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "campaign/thread_pool.h"
#include "sim/seed.h"
#include "telemetry/probes.h"

namespace tempriv::campaign {

namespace {

/// Releases completed jobs to the sinks strictly in submission order:
/// workers deposit results (keyed by their dense position in the submitted
/// job list — not the global job index, which is stride-N in a shard run)
/// as they finish; whenever the contiguous prefix grows, the depositing
/// worker drains it. Only results ahead of the prefix are held: out-of-order
/// stragglers, and the later jobs a shared run served early (at most one
/// result per job). No dedicated merger thread.
class InOrderMerger {
 public:
  InOrderMerger(std::vector<JobResult>& out, const std::vector<ResultSink*>& sinks)
      : out_(out), sinks_(sinks) {}

  void deposit(std::size_t order, JobResult result) {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.emplace(order, std::move(result));
    for (auto next = pending_.find(next_order_); next != pending_.end();
         next = pending_.find(next_order_)) {
      for (ResultSink* sink : sinks_) sink->consume(next->second);
      out_.push_back(std::move(next->second));
      pending_.erase(next);
      ++next_order_;
    }
  }

 private:
  std::vector<JobResult>& out_;
  const std::vector<ResultSink*>& sinks_;
  std::mutex mutex_;
  std::map<std::size_t, JobResult> pending_;
  std::size_t next_order_ = 0;
};

}  // namespace

std::vector<JobSpec> CampaignRunner::expand(
    const std::vector<workload::PaperScenario>& points,
    std::uint32_t replications) {
  if (replications == 0) {
    throw std::invalid_argument("CampaignRunner::expand: replications == 0");
  }
  std::vector<JobSpec> jobs;
  jobs.reserve(points.size() * replications);
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::uint32_t r = 0; r < replications; ++r) {
      JobSpec spec;
      spec.index = jobs.size();
      spec.point = p;
      spec.replication = r;
      spec.scenario = points[p];
      if (r > 0) spec.scenario.seed = sim::derive_seed(points[p].seed, r);
      jobs.push_back(std::move(spec));
    }
  }
  return jobs;
}

std::vector<JobSpec> CampaignRunner::expand(
    const std::vector<workload::PaperScenario>& points,
    std::uint32_t replications, const ShardSpec& shard) {
  std::vector<JobSpec> all = expand(points, replications);
  if (shard.is_all()) return all;
  std::vector<JobSpec> owned;
  owned.reserve(shard_jobs_owned(all.size(), shard));
  for (JobSpec& spec : all) {
    if (shard.owns(spec.index)) owned.push_back(std::move(spec));
  }
  return owned;
}

std::vector<JobResult> CampaignRunner::run(
    const std::vector<JobSpec>& jobs, const std::vector<ResultSink*>& sinks) {
  // Positions of the jobs that share each distinct scenario, groups in order
  // of first occurrence. A group's run serves every job in it.
  std::vector<std::vector<std::size_t>> groups;
  {
    std::unordered_map<std::string, std::size_t> group_of;
    for (std::size_t order = 0; order < jobs.size(); ++order) {
      const auto [it, inserted] = group_of.try_emplace(
          scenario_fingerprint(jobs[order].scenario), groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(order);
    }
  }

  std::vector<JobResult> results;
  results.reserve(jobs.size());
  InOrderMerger merger(results, sinks);
  ProgressListener* progress = options_.progress;

  std::vector<std::future<void>> futures;
  futures.reserve(groups.size());
  {
    ThreadPool pool(options_.threads);
    for (const std::vector<std::size_t>& group : groups) {
      futures.push_back(pool.submit([&merger, &jobs, &group, progress] {
        const auto start = std::chrono::steady_clock::now();
        workload::ScenarioResult result;
        {
          TEMPRIV_TLM_SPAN("job");
          result = workload::run_paper_scenario(jobs[group.front()].scenario);
        }
        const double wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        TEMPRIV_TLM_COUNT(kCampaignRuns);
        TEMPRIV_TLM_COUNT_N(kCampaignJobs, group.size());
        TEMPRIV_TLM_HIST(kCampaignJobWallUs,
                         static_cast<std::uint64_t>(wall_seconds * 1e6));
        for (const std::size_t order : group) {
          JobResult job;
          job.spec = jobs[order];
          job.result = result;
          job.wall_seconds = wall_seconds;
          if (progress) progress->job_done(job.result.events_executed);
          merger.deposit(order, std::move(job));
        }
      }));
    }
    // Collect completions before the pool goes out of scope; a run that
    // threw (and therefore never deposited) surfaces here. Groups are in
    // order of their first job, so the first failure found is the
    // earliest-submitted failing job's: diagnostics stay deterministic.
    std::exception_ptr first_error;
    for (std::future<void>& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

  for (ResultSink* sink : sinks) sink->close();
  return results;
}

std::vector<workload::ScenarioResult> point_results(
    const std::vector<JobResult>& jobs) {
  std::vector<workload::ScenarioResult> out;
  for (const JobResult& job : jobs) {
    if (job.spec.replication == 0) {
      if (job.spec.point != out.size()) {
        throw std::logic_error("point_results: jobs not in index order");
      }
      out.push_back(job.result);
    }
  }
  return out;
}

}  // namespace tempriv::campaign
