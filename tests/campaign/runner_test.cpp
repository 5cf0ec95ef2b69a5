#include "campaign/runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/shard.h"
#include "campaign/sinks.h"
#include "campaign/sweeps.h"
#include "sim/seed.h"
#include "telemetry/snapshot.h"

namespace tempriv::campaign {
namespace {

// A small but non-trivial campaign: 3 traffic rates x 2 schemes, 2
// replications each (12 jobs), shrunk to 80 packets per source so the whole
// grid simulates in well under a second.
std::vector<workload::PaperScenario> test_grid() {
  std::vector<workload::PaperScenario> points;
  for (const double interarrival : {2.0, 6.0, 12.0}) {
    for (const workload::Scheme scheme :
         {workload::Scheme::kRcad, workload::Scheme::kDropTail}) {
      workload::PaperScenario scenario;
      scenario.interarrival = interarrival;
      scenario.scheme = scheme;
      scenario.packets_per_source = 80;
      points.push_back(scenario);
    }
  }
  return points;
}

struct CampaignOutput {
  std::string jsonl;
  CampaignStats total;
  std::vector<JobResult> results;
};

CampaignOutput run_with_threads(std::size_t threads) {
  const std::vector<workload::PaperScenario> points = test_grid();
  const std::vector<JobSpec> jobs = CampaignRunner::expand(points, 2);
  std::ostringstream jsonl_stream;
  JsonlSink jsonl(jsonl_stream);
  MergedStatsSink stats(points.size());
  CampaignRunner runner({.threads = threads, .progress = nullptr});
  CampaignOutput out;
  out.results = runner.run(jobs, {&jsonl, &stats});
  out.jsonl = jsonl_stream.str();
  out.total = stats.total();
  return out;
}

void expect_identical(const CampaignOutput& a, const CampaignOutput& b) {
  // Byte-identical JSONL log...
  EXPECT_EQ(a.jsonl, b.jsonl);
  // ...and bit-identical merged statistics (the merge order is fixed by job
  // index, so even floating-point rounding agrees).
  EXPECT_EQ(a.total.jobs, b.total.jobs);
  EXPECT_EQ(a.total.sim_events, b.total.sim_events);
  EXPECT_EQ(a.total.flow_latency.mean(), b.total.flow_latency.mean());
  EXPECT_EQ(a.total.flow_latency.variance(), b.total.flow_latency.variance());
  EXPECT_EQ(a.total.flow_mse_baseline.mean(), b.total.flow_mse_baseline.mean());
  EXPECT_EQ(a.total.flow_mse_baseline.variance(),
            b.total.flow_mse_baseline.variance());
  EXPECT_EQ(a.total.preemptions_per_packet.mean(),
            b.total.preemptions_per_packet.mean());
  ASSERT_EQ(a.total.latency_hist.bin_count(), b.total.latency_hist.bin_count());
  for (std::size_t i = 0; i < a.total.latency_hist.bin_count(); ++i) {
    EXPECT_EQ(a.total.latency_hist.bin(i), b.total.latency_hist.bin(i));
  }
}

TEST(CampaignRunnerTest, SameOutputFor1And2And8Threads) {
  const CampaignOutput serial = run_with_threads(1);
  ASSERT_FALSE(serial.jsonl.empty());
  EXPECT_EQ(serial.total.jobs, 12u);
  expect_identical(serial, run_with_threads(2));
  expect_identical(serial, run_with_threads(8));
}

TEST(CampaignRunnerTest, ResultsOrderedByJobIndex) {
  const CampaignOutput out = run_with_threads(8);
  ASSERT_EQ(out.results.size(), 12u);
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    EXPECT_EQ(out.results[i].spec.index, i);
  }
  // point-major, replication-minor expansion
  EXPECT_EQ(out.results[3].spec.point, 1u);
  EXPECT_EQ(out.results[3].spec.replication, 1u);
}

TEST(CampaignRunnerTest, ReplicationSeedsDeriveFromPointSeed) {
  const std::vector<workload::PaperScenario> points = test_grid();
  const std::vector<JobSpec> jobs = CampaignRunner::expand(points, 3);
  ASSERT_EQ(jobs.size(), points.size() * 3);
  for (std::size_t p = 0; p < points.size(); ++p) {
    EXPECT_EQ(jobs[p * 3 + 0].scenario.seed, points[p].seed)
        << "replication 0 must keep the serial seed";
    EXPECT_EQ(jobs[p * 3 + 1].scenario.seed,
              sim::derive_seed(points[p].seed, 1));
    EXPECT_EQ(jobs[p * 3 + 2].scenario.seed,
              sim::derive_seed(points[p].seed, 2));
    EXPECT_NE(jobs[p * 3 + 1].scenario.seed, jobs[p * 3 + 2].scenario.seed);
  }
}

TEST(CampaignRunnerTest, JobExceptionPropagatesWithoutHanging) {
  workload::PaperScenario bad;
  bad.interarrival = -1.0;  // run_paper_scenario rejects this
  workload::PaperScenario good;
  good.packets_per_source = 10;
  const std::vector<JobSpec> jobs =
      CampaignRunner::expand({good, bad, good}, 1);
  CampaignRunner runner({.threads = 4, .progress = nullptr});
  EXPECT_THROW(runner.run(jobs), std::invalid_argument);
}

TEST(CampaignRunnerTest, SweepTableMatchesDirectScenarioRuns) {
  // The campaign path must compute exactly what a hand-rolled serial loop
  // computes: compare a fig3-style table cell against run_paper_scenario.
  Sweep sweep = fig3_sweep();
  sweep.points.resize(2);
  for (workload::PaperScenario& point : sweep.points) {
    point.packets_per_source = 60;
  }
  const SweepRun run = run_sweep(sweep, {.threads = 4, .progress = nullptr});
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    const workload::ScenarioResult direct =
        workload::run_paper_scenario(sweep.points[i]);
    EXPECT_EQ(run.jobs[i].result.flows.front().mse_baseline,
              direct.flows.front().mse_baseline);
    EXPECT_EQ(run.jobs[i].result.events_executed, direct.events_executed);
  }
}

TEST(CampaignRunnerTest, ExpandRejectsZeroReplications) {
  EXPECT_THROW(CampaignRunner::expand(test_grid(), 0), std::invalid_argument);
}

// ---- one run per distinct scenario: randomised reference checks --------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Field-by-field equality with doubles compared bit for bit: a result served
// from a shared run must be indistinguishable from its own solo run.
void expect_bitwise_equal(const workload::ScenarioResult& got,
                          const workload::ScenarioResult& want,
                          const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.originated, want.originated);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.preemptions, want.preemptions);
  EXPECT_EQ(got.drops, want.drops);
  EXPECT_TRUE(same_bits(got.mean_latency_all, want.mean_latency_all));
  EXPECT_TRUE(same_bits(got.sim_end_time, want.sim_end_time));
  EXPECT_EQ(got.events_executed, want.events_executed);
  EXPECT_EQ(got.transmissions, want.transmissions);
  EXPECT_EQ(got.packets_traced, want.packets_traced);
  ASSERT_EQ(got.flows.size(), want.flows.size());
  for (std::size_t f = 0; f < got.flows.size(); ++f) {
    const workload::FlowResult& a = got.flows[f];
    const workload::FlowResult& b = want.flows[f];
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.hops, b.hops);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_TRUE(same_bits(a.mse_baseline, b.mse_baseline));
    EXPECT_TRUE(same_bits(a.mse_adaptive, b.mse_adaptive));
    EXPECT_TRUE(same_bits(a.mse_path_aware, b.mse_path_aware));
    EXPECT_TRUE(same_bits(a.mean_latency, b.mean_latency));
    EXPECT_TRUE(same_bits(a.max_latency, b.max_latency));
  }
}

workload::PaperScenario tiny_scenario() {
  workload::PaperScenario scenario;
  scenario.packets_per_source = 50;
  return scenario;
}

// The base scenario followed by one variant per PaperScenario field, each
// differing from the base in that field alone.
std::vector<workload::PaperScenario> single_field_variants() {
  using workload::PaperScenario;
  const PaperScenario base = tiny_scenario();
  std::vector<PaperScenario> out{base};
  auto vary = [&](auto&& change) {
    PaperScenario variant = base;
    change(variant);
    out.push_back(variant);
  };
  vary([](PaperScenario& s) { s.interarrival = 3.0; });
  vary([](PaperScenario& s) { s.packets_per_source = 51; });
  vary([](PaperScenario& s) { s.mean_delay = 20.0; });
  vary([](PaperScenario& s) { s.buffer_slots = 5; });
  vary([](PaperScenario& s) { s.hop_tx_delay = 2.0; });
  vary([](PaperScenario& s) { s.scheme = workload::Scheme::kDropTail; });
  vary([](PaperScenario& s) { s.victim = core::VictimPolicy::kOldest; });
  vary([](PaperScenario& s) { s.adaptive_threshold = 0.2; });
  vary([](PaperScenario& s) { s.seed += 1; });
  vary([](PaperScenario& s) { s.hop_counts.back() += 1; });
  vary([](PaperScenario& s) { s.shared_tail = 2; });
  vary([](PaperScenario& s) { s.sink_weighting = 0.5; });
  vary([](PaperScenario& s) { s.source = workload::SourceKind::kPoisson; });
  vary([](PaperScenario& s) { s.hop_jitter = 0.5; });
  vary([](PaperScenario& s) { s.trace = true; });
  return out;
}

std::string sink_stats_json(const std::vector<workload::PaperScenario>& points,
                            const MergedStatsSink& stats) {
  std::ostringstream out;
  write_campaign_stats_json(out, make_manifest("random", "random", 1, points),
                            nullptr, stats);
  return out.str();
}

TEST(CampaignRunnerTest, FieldVariantsNeverShareARun) {
  const std::vector<workload::PaperScenario> variants = single_field_variants();
  std::set<std::string> keys;
  for (const workload::PaperScenario& s : variants) {
    keys.insert(scenario_fingerprint(s));
  }
  EXPECT_EQ(keys.size(), variants.size())
      << "two scenarios that differ in one field share a fingerprint";

  // Every variant twice: each job must still get its own scenario's result.
  std::vector<workload::PaperScenario> points = variants;
  points.insert(points.end(), variants.begin(), variants.end());
  telemetry::reset();
  CampaignRunner runner({.threads = 4, .progress = nullptr});
  const std::vector<JobResult> results =
      runner.run(CampaignRunner::expand(points, 1));
  ASSERT_EQ(results.size(), points.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const workload::ScenarioResult solo =
        workload::run_paper_scenario(variants[i]);
    expect_bitwise_equal(results[i].result, solo, "variant " + std::to_string(i));
    expect_bitwise_equal(results[i + variants.size()].result, solo,
                         "repeat of variant " + std::to_string(i));
    EXPECT_EQ(results[i].wall_seconds, results[i + variants.size()].wall_seconds)
        << "repeats of one scenario share one run";
  }
  if (telemetry::compiled_in()) {
    const telemetry::Snapshot snap = telemetry::collect();
    EXPECT_EQ(snap.counters.at("campaign.runs"), variants.size());
    EXPECT_EQ(snap.counters.at("campaign.jobs"), points.size());
  }
}

TEST(CampaignRunnerTest, RandomJobListsMatchSoloRunsAndSinkBytes) {
  const std::vector<workload::PaperScenario> pool = single_field_variants();
  std::vector<workload::ScenarioResult> solo;
  for (const workload::PaperScenario& s : pool) {
    solo.push_back(workload::run_paper_scenario(s));
  }

  std::mt19937_64 rng(0x5eed);
  for (int trial = 0; trial < 8; ++trial) {
    // A short list drawn with replacement from the base scenario and a few
    // of its single-field variants, so most scenarios repeat, some several
    // times, next to scenarios that differ from them in one field.
    std::vector<std::size_t> subset(pool.size() - 1);
    std::iota(subset.begin(), subset.end(), std::size_t{1});
    std::shuffle(subset.begin(), subset.end(), rng);
    subset.resize(1 + rng() % 4);
    subset.push_back(0);
    const std::size_t length = 4 + rng() % 12;
    std::vector<std::size_t> picks;
    std::vector<workload::PaperScenario> points;
    for (std::size_t i = 0; i < length; ++i) {
      picks.push_back(subset[rng() % subset.size()]);
      points.push_back(pool[picks.back()]);
    }
    const std::vector<JobSpec> jobs = CampaignRunner::expand(points, 1);

    // Reference: the sinks fed the solo results in job order.
    std::ostringstream want_jsonl;
    JsonlSink want_jsonl_sink(want_jsonl);
    MergedStatsSink want_stats(points.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const JobResult job{jobs[i], solo[picks[i]], 0.0};
      want_jsonl_sink.consume(job);
      want_stats.consume(job);
    }

    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + ", " +
                   std::to_string(threads) + " threads");
      std::ostringstream jsonl;
      JsonlSink jsonl_sink(jsonl);
      MergedStatsSink stats(points.size());
      CampaignRunner runner({.threads = threads, .progress = nullptr});
      const std::vector<JobResult> results =
          runner.run(jobs, {&jsonl_sink, &stats});
      ASSERT_EQ(results.size(), jobs.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].spec.index, jobs[i].index);
        expect_bitwise_equal(results[i].result, solo[picks[i]],
                             "job " + std::to_string(i));
        for (std::size_t j = 0; j < i; ++j) {
          if (picks[j] == picks[i]) {
            EXPECT_EQ(results[i].wall_seconds, results[j].wall_seconds)
                << "jobs " << j << " and " << i << " share one run";
          }
        }
      }
      EXPECT_EQ(jsonl.str(), want_jsonl.str());
      EXPECT_EQ(sink_stats_json(points, stats),
                sink_stats_json(points, want_stats));
    }
  }
}

TEST(CampaignRunnerTest, RepeatedThrowingScenarioRethrowsEarliestJobsError) {
  workload::PaperScenario good = tiny_scenario();
  good.packets_per_source = 10;
  workload::PaperScenario zero_rate = good;
  zero_rate.interarrival = 0.0;  // "interarrival must be > 0"
  workload::PaperScenario no_flows = good;
  no_flows.hop_counts.clear();   // "no flows configured"

  auto error_of = [](const std::vector<workload::PaperScenario>& points,
                     std::size_t threads) -> std::string {
    CampaignRunner runner({.threads = threads, .progress = nullptr});
    try {
      runner.run(CampaignRunner::expand(points, 1));
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no exception";
  };
  for (const std::size_t threads : {1u, 8u}) {
    EXPECT_NE(error_of({good, zero_rate, no_flows, zero_rate, no_flows, good},
                       threads)
                  .find("interarrival"),
              std::string::npos);
    EXPECT_NE(error_of({good, no_flows, zero_rate, no_flows, zero_rate, good},
                       threads)
                  .find("no flows"),
              std::string::npos);
  }
}

TEST(CampaignRunnerTest, PaperSweepsSimulate140DistinctRunsFor304Jobs) {
  // The four paper sweeps merged, as repobench's paper_sweep runs them:
  // fig2b repeats fig2a, fig3 repeats fig2a's RCAD column and the buffer
  // ablation's k = 10 point repeats fig2a's RCAD run at 1/lambda = 2.
  std::vector<workload::PaperScenario> points;
  for (const std::string& name : named_sweeps()) {
    for (workload::PaperScenario point : make_named_sweep(name).points) {
      point.packets_per_source = 20;
      points.push_back(point);
    }
  }
  const std::vector<JobSpec> jobs = CampaignRunner::expand(points, 4);
  ASSERT_EQ(jobs.size(), 304u);
  std::set<std::string> distinct;
  for (const JobSpec& job : jobs) {
    distinct.insert(scenario_fingerprint(job.scenario));
  }
  EXPECT_EQ(distinct.size(), 140u);

  telemetry::reset();
  CampaignRunner runner({.threads = 4, .progress = nullptr});
  const std::vector<JobResult> results = runner.run(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  if (telemetry::compiled_in()) {
    const telemetry::Snapshot snap = telemetry::collect();
    EXPECT_EQ(snap.counters.at("campaign.runs"), 140u);
    EXPECT_EQ(snap.counters.at("campaign.jobs"), 304u);
    std::uint64_t walls = 0;
    for (const std::uint64_t n :
         snap.histograms.at("campaign.job_wall_us").buckets) {
      walls += n;
    }
    EXPECT_EQ(walls, 140u) << "one job-wall sample per simulated run";
    EXPECT_EQ(snap.spans.at("job/simulate").count, 140u);
  }
}

}  // namespace
}  // namespace tempriv::campaign
