// The three benchmark workloads. Each iteration produces one verified result
// the way a user of the library would: build, simulate, score, check. The
// benchmark only calls public library functions and times those calls from
// outside; spans (traced run only) wrap the same calls.

#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "adversary/estimator.h"
#include "adversary/ground_truth.h"
#include "campaign/analysis.h"
#include "campaign/progress.h"
#include "campaign/runner.h"
#include "campaign/shard.h"
#include "campaign/sinks.h"
#include "campaign/sweeps.h"
#include "campaign/thread_pool.h"
#include "core/discipline_spec.h"
#include "core/factories.h"
#include "crypto/payload.h"
#include "infotheory/estimators.h"
#include "infotheory/reference.h"
#include "net/network.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/random.h"
#include "sim/seed.h"
#include "sim/simulator.h"
#include "telemetry/snapshot.h"
#include "workload/source.h"

namespace repobench {

namespace {

using namespace tempriv;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Worker threads for every pool the benchmark creates: the host's core count.
std::size_t worker_threads() {
  return campaign::ThreadPool::resolve_threads(0);
}

/// FNV-1a over the 8-byte images of the recorded statistics, so a digest
/// pins every bit of every double.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

class Checks {
 public:
  explicit Checks(Iteration& it) : it_(it) {}
  void expect(bool ok, const std::string& what) {
    ++it_.attempted;
    if (!ok) {
      ++it_.failed;
      if (it_.failures.size() < 20) it_.failures.push_back(what);
    }
  }

 private:
  Iteration& it_;
};

const crypto::Speck64_128::Key kKey{0x00, 0x11, 0x22, 0x33, 0x44, 0x55,
                                    0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb,
                                    0xcc, 0xdd, 0xee, 0xff};

// Seals and opens `packets` payloads through the batch entry points, in
// chunks so memory stays flat, and checks every round trip. Traced run only;
// runs after the result is verified so it never counts in the result's time.
void crypto_probe(std::uint64_t packets, std::uint64_t seed,
                  SpanRecorder& recorder, Iteration& it, Checks& check) {
  const crypto::PayloadCodec codec(kKey);
  constexpr std::size_t kChunk = 1 << 14;
  std::vector<crypto::SensorPayload> plain(kChunk);
  std::vector<crypto::SealedPayload> sealed(kChunk);
  std::vector<std::optional<crypto::SensorPayload>> opened(kChunk);
  sim::RandomStream rng(seed);
  double seal_s = 0.0;
  double open_s = 0.0;
  std::uint64_t mismatched = 0;
  for (std::uint64_t done = 0; done < packets;) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, packets - done));
    for (std::size_t i = 0; i < n; ++i) {
      plain[i].reading = rng.uniform01();
      plain[i].app_seq = static_cast<std::uint32_t>(done + i);
      plain[i].creation_time = static_cast<double>(done + i) * 0.5;
    }
    auto t0 = Clock::now();
    {
      Span span(recorder, "crypto.seal_batch");
      codec.seal_batch(std::span(plain.data(), n), 7,
                       std::span(sealed.data(), n));
    }
    auto t1 = Clock::now();
    std::size_t ok = 0;
    {
      Span span(recorder, "crypto.open_batch");
      ok = codec.open_batch(std::span(sealed.data(), n),
                            std::span(opened.data(), n));
    }
    auto t2 = Clock::now();
    seal_s += seconds_between(t0, t1);
    open_s += seconds_between(t1, t2);
    mismatched += n - ok;
    for (std::size_t i = 0; i < n; ++i) {
      if (opened[i] && (opened[i]->app_seq != plain[i].app_seq ||
                        opened[i]->reading != plain[i].reading ||
                        opened[i]->creation_time != plain[i].creation_time)) {
        ++mismatched;
      }
    }
    done += n;
  }
  check.expect(mismatched == 0, "crypto: seal_batch/open_batch round trip");
  const double count = static_cast<double>(std::max<std::uint64_t>(packets, 1));
  it.layers["crypto.seal_ns"] = seal_s * 1e9 / count;
  it.layers["crypto.open_ns"] = open_s * 1e9 / count;
  it.layers["crypto.packets"] = static_cast<double>(packets);
}

// Event-queue and buffer counters from the TEMPRIV_TELEMETRY=ON build (all
// zero in an OFF build); reset at the start of each traced iteration.
// Returns the summed wall time of the program's "job/simulate" phase spans.
double telemetry_layers(Iteration& it) {
  const telemetry::Snapshot snap = telemetry::collect();
  auto counter = [&](const char* key) {
    const auto found = snap.counters.find(key);
    return found == snap.counters.end() ? 0.0
                                        : static_cast<double>(found->second);
  };
  auto gauge = [&](const char* key) {
    const auto found = snap.gauges.find(key);
    return found == snap.gauges.end() ? 0.0
                                      : static_cast<double>(found->second);
  };
  it.layers["sim.heap_schedules"] = counter("eq.schedule_heap");
  it.layers["sim.fifo_schedules"] = counter("eq.schedule_fifo");
  it.layers["sim.fifo_diverted"] = counter("eq.fifo_diverted");
  it.layers["sim.tombstones_skipped"] = counter("eq.tombstone_skipped");
  it.layers["sim.dispatch_single"] = counter("eq.dispatch_single");
  it.layers["sim.peak_depth"] = gauge("eq.peak_depth");
  it.layers["core.peak_occupancy"] = gauge("buf.peak_occupancy");
  auto span_s = [&](const char* key) {
    const auto found = snap.spans.find(key);
    if (found == snap.spans.end() || found->second.count == 0) return 0.0;
    return static_cast<double>(found->second.nanos) * 1e-9 /
           static_cast<double>(found->second.count);
  };
  it.layers["workload.build_s"] = span_s("job/build");
  it.layers["workload.simulate_s"] = span_s("job/simulate");
  it.layers["workload.score_s"] = span_s("job/score");
  const auto simulate = snap.spans.find("job/simulate");
  return simulate == snap.spans.end()
             ? 0.0
             : static_cast<double>(simulate->second.nanos) * 1e-9;
}

// Every per-layer metric exists on every workload; a layer a workload does
// not reach reports 0.
void zero_layers(Iteration& it) {
  for (const char* name :
       {"net.topology_build_s", "net.csr_build_s", "net.routing_build_s",
        "net.network_build_s", "net.bytes_per_node", "sim.run_s", "sim.events",
        "sim.events_per_s", "sim.ns_per_event", "core.preemptions_per_packet",
        "core.drops", "adversary.score_s", "adversary.estimates",
        "infotheory.ksg_s", "infotheory.ksg_points", "infotheory.ksg_ns_per_point",
        "infotheory.hist_mi_s", "campaign.worker_busy_ratio", "campaign.tail_s",
        "campaign.sink_s", "campaign.jobs_failed"}) {
    it.layers[name] = 0.0;
  }
}

void sim_layers(Iteration& it, double run_s, double events) {
  it.layers["sim.run_s"] = run_s;
  it.layers["sim.events"] = events;
  it.layers["sim.events_per_s"] = run_s > 0 ? events / run_s : 0.0;
  it.layers["sim.ns_per_event"] = events > 0 ? run_s * 1e9 / events : 0.0;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return {};
  std::ostringstream contents;
  contents << file.rdbuf();
  return contents.str();
}

// ---------------------------------------------------------------- paper_sweep

/// Records when each job ends, from the worker that ran it.
class JobClock final : public campaign::ProgressListener {
 public:
  void job_done(std::uint64_t /*sim_events*/) override {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    ends_.push_back(now);
  }
  std::vector<Clock::time_point> ends() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ends_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Clock::time_point> ends_;
};

/// Forwards to a library sink and accumulates the time spent in it. The
/// runner calls sinks under its merge lock, so the total needs no lock.
class TimedSink final : public campaign::ResultSink {
 public:
  TimedSink(campaign::ResultSink& inner, SpanRecorder& recorder,
            std::uint64_t parent)
      : inner_(inner), recorder_(recorder), parent_(parent) {}

  void consume(const campaign::JobResult& job) override {
    Span span(recorder_, "campaign.sink", parent_);
    const auto t0 = Clock::now();
    inner_.consume(job);
    seconds_ += seconds_between(t0, Clock::now());
  }
  void close() override {
    Span span(recorder_, "campaign.sink", parent_);
    const auto t0 = Clock::now();
    inner_.close();
    seconds_ += seconds_between(t0, Clock::now());
  }
  double seconds() const noexcept { return seconds_; }

 private:
  campaign::ResultSink& inner_;
  SpanRecorder& recorder_;
  std::uint64_t parent_;
  double seconds_ = 0.0;
};

/// The four paper sweeps (fig2a, fig2b, fig3, buffer: 76 points) merged
/// into one campaign, so workers pull jobs from one queue and only the
/// campaign's end has a tail. The merged table recipe renders each part's
/// figure CSV from its slice of the replication-0 results.
struct PaperCampaign {
  campaign::Sweep sweep;
  std::vector<std::string> tags;
  std::vector<std::string> csvs;
  Clock::time_point tables_start;  ///< every job ended, pool drained
  std::ostringstream jsonl;
  std::unique_ptr<campaign::JsonlSink> jsonl_sink;
  std::unique_ptr<campaign::MergedStatsSink> stats_sink;
};

std::unique_ptr<PaperCampaign> build_paper_campaign(std::uint64_t seed) {
  using TableFn = decltype(campaign::Sweep::table);
  auto pc = std::make_unique<PaperCampaign>();
  std::vector<campaign::Sweep> parts = {
      campaign::fig2a_sweep(), campaign::fig2b_sweep(), campaign::fig3_sweep(),
      campaign::buffer_size_sweep()};
  pc->sweep.name = "paper_sweep";
  pc->sweep.tag = "paper_sweep";
  std::vector<TableFn> part_tables;
  std::vector<std::size_t> sizes;
  std::size_t total = 0;
  for (const campaign::Sweep& part : parts) total += part.points.size();
  pc->sweep.points.reserve(total);
  for (campaign::Sweep& part : parts) {
    pc->tags.push_back(std::move(part.tag));
    sizes.push_back(part.points.size());
    for (workload::PaperScenario& point : part.points) {
      // Seed 0 keeps the paper's own seeds, which the golden CSVs pin.
      if (seed != 0) point.seed = sim::derive_seed(point.seed, seed);
      pc->sweep.points.push_back(std::move(point));
    }
    part_tables.push_back(std::move(part.table));
  }
  PaperCampaign* raw = pc.get();
  pc->sweep.table = [raw, part_tables = std::move(part_tables),
                     sizes = std::move(sizes)](
                        const std::vector<workload::ScenarioResult>& results) {
    raw->tables_start = Clock::now();
    std::vector<metrics::Table> tables;
    auto first = results.begin();
    for (std::size_t i = 0; i < part_tables.size(); ++i) {
      const auto last = first + static_cast<std::ptrdiff_t>(sizes[i]);
      tables.push_back(part_tables[i]({first, last}));
      std::ostringstream csv;
      tables.back().write_csv(csv);
      raw->csvs.push_back(csv.str());
      first = last;
    }
    return tables.front();
  };
  pc->jsonl_sink = std::make_unique<campaign::JsonlSink>(pc->jsonl);
  pc->stats_sink =
      std::make_unique<campaign::MergedStatsSink>(pc->sweep.points.size());
  return pc;
}

Iteration run_paper_sweep(const Config& config, SpanRecorder& recorder) {
  Iteration it;
  Checks check(it);
  const std::uint32_t reps = config.smoke ? 1 : 4;
  const std::size_t threads = worker_threads();

  // Set-up is sub-millisecond: repeat it and keep every timing; the last
  // one is the campaign that runs.
  constexpr int kSetups = 20;
  std::unique_ptr<PaperCampaign> pc;
  for (int i = 0; i < kSetups - 1; ++i) {
    const auto t0 = Clock::now();
    pc = build_paper_campaign(config.seed);
    it.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  pc.reset();

  Span root(recorder, "bench.iteration");
  const auto start = Clock::now();
  {
    Span span(recorder, "campaign.setup");
    pc = build_paper_campaign(config.seed);
  }
  const auto setup_end = Clock::now();
  it.setup_s.push_back(seconds_between(start, setup_end));

  JobClock clock;
  std::optional<campaign::SweepRun> run;
  double sink_s = 0.0;
  Clock::time_point sweep_end;
  {
    Span span(recorder, "campaign.run_sweep");
    TimedSink jsonl(*pc->jsonl_sink, recorder, span.id());
    TimedSink stats(*pc->stats_sink, recorder, span.id());
    try {
      run.emplace(campaign::run_sweep(
          pc->sweep, campaign::RunnerOptions{.threads = threads, .progress = &clock},
          reps, {&jsonl, &stats}));
    } catch (const std::exception& e) {
      check.expect(false, std::string("paper_sweep: campaign threw: ") + e.what());
    }
    sweep_end = Clock::now();
    sink_s = jsonl.seconds() + stats.seconds();
  }

  // Each job scores itself inside its job time; the campaign's own scoring
  // is what tempriv-campaign does once every job has ended: the figure
  // tables (inside run_sweep) and the merged-statistics artifact.
  const std::size_t expected_jobs = pc->sweep.points.size() * reps;
  std::ostringstream stats_json;
  campaign::CampaignManifest manifest;
  if (run) {
    Span span(recorder, "campaign.stats_artifact");
    manifest = campaign::make_manifest(pc->sweep.name, pc->sweep.tag, reps,
                                       pc->sweep.points);
    campaign::write_campaign_stats_json(stats_json, manifest, nullptr,
                                        *pc->stats_sink);
    it.score_s = seconds_between(pc->tables_start, Clock::now());
  }
  const std::vector<Clock::time_point> ends = clock.ends();

  Digest digest;
  std::uint64_t originated = 0, delivered = 0, drops = 0, preemptions = 0,
                events = 0, jobs_failed = 0;
  double job_wall = 0.0;
  {
    Span span(recorder, "bench.verify");
    const std::vector<campaign::JobResult> no_jobs;
    const std::vector<campaign::JobResult>& jobs = run ? run->jobs : no_jobs;
    check.expect(jobs.size() == expected_jobs, "paper_sweep: every job finished");
    if (!run) jobs_failed = expected_jobs;
    for (const campaign::JobResult& job : jobs) {
      const workload::ScenarioResult& r = job.result;
      const bool conserved = r.delivered + r.drops == r.originated &&
                             r.flows.size() == 4 && r.originated > 0;
      ++it.attempted;  // the job itself
      if (!conserved) {
        ++it.failed;
        ++jobs_failed;
        if (it.failures.size() < 20) {
          it.failures.push_back("paper_sweep: job " +
                                std::to_string(job.spec.index) +
                                " delivered + drops != originated");
        }
      }
      it.job_s.push_back(job.wall_seconds);
      job_wall += job.wall_seconds;
      originated += r.originated;
      delivered += r.delivered;
      drops += r.drops;
      preemptions += r.preemptions;
      events += r.events_executed;
      digest.add(static_cast<std::uint64_t>(job.spec.index));
      digest.add(r.events_executed);
      digest.add(r.preemptions);
      digest.add(r.delivered);
      for (const workload::FlowResult& flow : r.flows) {
        digest.add(flow.mse_baseline);
        digest.add(flow.mse_adaptive);
        digest.add(flow.mean_latency);
      }
    }
    check.expect(pc->stats_sink->total().jobs == jobs.size() &&
                     manifest.total_jobs == expected_jobs &&
                     !stats_json.str().empty(),
                 "paper_sweep: merged stats saw every job");
    const std::string jsonl = pc->jsonl.str();
    check.expect(static_cast<std::size_t>(
                     std::count(jsonl.begin(), jsonl.end(), '\n')) ==
                     jobs.size(),
                 "paper_sweep: one JSONL record per job");
    if (config.seed == 0 && run) {
      for (std::size_t i = 0; i < pc->tags.size(); ++i) {
        const std::string golden =
            read_file(config.golden_dir + "/" + pc->tags[i] + ".csv");
        check.expect(!golden.empty() && i < pc->csvs.size() &&
                         pc->csvs[i] == golden,
                     "paper_sweep: " + pc->tags[i] +
                         ".csv byte-equal to tests/golden");
      }
    }
  }
  it.time_to_result_s = seconds_between(start, Clock::now());
  it.packets = static_cast<double>(delivered);
  it.scenarios = static_cast<double>(run ? run->jobs.size() : 0);
  it.digest = digest.hex();

  if (recorder.enabled()) {
    Span probes(recorder, "bench.probes");
    zero_layers(it);
    const double simulate_s = telemetry_layers(it);
    const double sweep_s = seconds_between(setup_end, sweep_end);
    it.layers["campaign.worker_busy_ratio"] =
        job_wall / (static_cast<double>(threads) * sweep_s);
    // Workers pull from one FIFO queue: the (N - T + 1)-th completion is
    // the first that finds the queue empty, so its worker is the first idle.
    std::vector<Clock::time_point> sorted = ends;
    std::sort(sorted.begin(), sorted.end());
    if (sorted.size() >= threads && !sorted.empty()) {
      it.layers["campaign.tail_s"] =
          seconds_between(sorted[sorted.size() - threads], sorted.back());
    }
    it.layers["campaign.sink_s"] = sink_s;
    it.layers["campaign.jobs_failed"] = static_cast<double>(jobs_failed);
    sim_layers(it, simulate_s,
               static_cast<double>(events));
    it.layers["core.preemptions_per_packet"] =
        static_cast<double>(preemptions) / static_cast<double>(std::max<std::uint64_t>(originated, 1));
    it.layers["core.drops"] = static_cast<double>(drops);
    crypto_probe(originated, config.seed, recorder, it, check);
  }
  return it;
}

// ------------------------------------------- scored runs: field, longrun

constexpr double kMeanDelay = 30.0;  // 1/µ
constexpr std::size_t kSlots = 10;   // k

/// One simulation the benchmark builds itself and scores at the sink with a
/// baseline adversary and the ground-truth recorder. Member order is
/// construction order: everything holding a reference is declared after
/// what it refers to.
struct ScoredRun {
  sim::Simulator simulator;
  const crypto::PayloadCodec codec{kKey};
  std::unique_ptr<net::Network> network;
  std::unique_ptr<adversary::GroundTruthRecorder> recorder;
  std::unique_ptr<adversary::BaselineAdversary> adversary;
  std::vector<std::unique_ptr<workload::Source>> sources;
  std::vector<net::NodeId> origins;
  std::size_t edges = 0;
  double topology_s = 0, csr_s = 0, network_s = 0;
};

/// Builds the topology, its CSR adjacency and the network (each step timed
/// and spanned), then attaches the sink observers. `make_network(simulator,
/// topology)` returns the network.
template <typename MakeTopology, typename MakeNetwork>
std::unique_ptr<ScoredRun> build_scored_run(SpanRecorder& recorder,
                                            MakeTopology make_topology,
                                            MakeNetwork make_network) {
  auto r = std::make_unique<ScoredRun>();
  const auto t0 = Clock::now();
  std::optional<net::Topology> topology;
  {
    Span span(recorder, "net.topology_build");
    topology.emplace(make_topology());
  }
  const auto t1 = Clock::now();
  {
    Span span(recorder, "net.csr_build");
    r->edges = topology->edge_count();  // forces the CSR build
  }
  const auto t2 = Clock::now();
  {
    Span span(recorder, "net.network_build");
    r->network = make_network(r->simulator, std::move(*topology));
  }
  const auto t3 = Clock::now();
  r->topology_s = seconds_between(t0, t1);
  r->csr_s = seconds_between(t1, t2);
  r->network_s = seconds_between(t2, t3);
  r->recorder = std::make_unique<adversary::GroundTruthRecorder>(r->codec);
  r->adversary = std::make_unique<adversary::BaselineAdversary>(
      r->network->hop_tx_delay(), kMeanDelay);
  r->network->add_sink_observer(r->recorder.get());
  r->network->add_sink_observer(r->adversary.get());
  return r;
}

/// The net, sim and core per-layer metrics of a finished scored run.
void scored_run_layers(Iteration& it, const ScoredRun& r, double sim_s,
                       SpanRecorder& recorder) {
  const net::Network& network = *r.network;
  // Routing is built inside Network's constructor; time a standalone
  // build on the same topology for the per-layer figure.
  const auto r0 = Clock::now();
  std::optional<net::RoutingTable> routing;
  {
    Span span(recorder, "net.routing_build");
    routing.emplace(network.topology());
  }
  it.layers["net.routing_build_s"] = seconds_between(r0, Clock::now());
  it.layers["net.topology_build_s"] = r.topology_s;
  it.layers["net.csr_build_s"] = r.csr_s;
  it.layers["net.network_build_s"] = r.network_s;
  it.layers["net.bytes_per_node"] =
      static_cast<double>(network.topology().memory_bytes() +
                          network.routing().memory_bytes() +
                          network.memory_bytes()) /
      static_cast<double>(network.topology().node_count());
  sim_layers(it, sim_s, static_cast<double>(r.simulator.events_executed()));
  it.layers["core.preemptions_per_packet"] =
      static_cast<double>(network.total_preemptions()) /
      static_cast<double>(std::max<std::uint64_t>(network.packets_originated(), 1));
  it.layers["core.drops"] = static_cast<double>(network.total_drops());
}

// ----------------------------------------------------------------- field_rcad

struct FieldSize {
  std::size_t nodes, sinks, sources;
  std::uint32_t packets;
};

constexpr double kFieldRadius = 1.8;    // mean degree ~10 at unit density
constexpr double kFieldInterval = 20.0; // mean Poisson inter-creation 1/λ

// The field is one fixed deployment, like the paper's fixed Figure-1
// topology: how congested its sink catchments are varies from field to
// field by more than the benchmark's bounds (simulator events by +-10 %,
// preemptions per packet 0.8..1.6 over ten fields). The seed draws the
// traffic and the delays.
constexpr std::uint64_t kFieldTopologySeed = 0xf1e1d;

std::unique_ptr<ScoredRun> build_field(const FieldSize& size, std::uint64_t seed,
                                       SpanRecorder& recorder) {
  const std::uint64_t traffic_seed = sim::derive_seed(0x7aff1c, seed);
  auto f = build_scored_run(
      recorder,
      [&] {
        sim::RandomStream topo_rng(kFieldTopologySeed);
        return net::Topology::random_geometric_multi_sink(
            size.nodes, std::sqrt(static_cast<double>(size.nodes)),
            kFieldRadius, size.sinks, topo_rng);
      },
      [&](sim::Simulator& simulator, net::Topology topology) {
        return std::make_unique<net::Network>(
            simulator, std::move(topology),
            core::DisciplineSpec::rcad_exponential(kMeanDelay, kSlots),
            net::NetworkConfig{}, sim::RandomStream(traffic_seed));
      });

  Span span(recorder, "workload.sources");
  net::Network& network = *f->network;
  // Sources sampled evenly across the id space, skipping sinks and nodes
  // outside the sinks' components, so every packet can be delivered.
  const std::size_t stride = std::max<std::size_t>(1, size.nodes / size.sources);
  for (std::size_t id = 0; id < size.nodes && f->origins.size() < size.sources;
       id += stride) {
    const auto node = static_cast<net::NodeId>(id);
    if (network.topology().is_sink(node) || !network.routing().reachable(node)) {
      continue;
    }
    f->origins.push_back(node);
  }
  sim::RandomStream source_root(sim::derive_seed(traffic_seed, 1));
  f->sources.reserve(f->origins.size());
  for (const net::NodeId origin : f->origins) {
    f->sources.push_back(std::make_unique<workload::PoissonSource>(
        network, f->codec, origin, source_root.split(origin),
        1.0 / kFieldInterval, size.packets));
    f->sources.back()->start(source_root.uniform(0.0, kFieldInterval));
  }
  network.reserve(f->origins.size() + 64);
  f->simulator.reserve(4096);
  return f;
}

Iteration run_field_rcad(const Config& config, SpanRecorder& recorder) {
  const FieldSize size = config.smoke ? FieldSize{10000, 8, 128, 10}
                                      : FieldSize{100000, 32, 1024, 20};
  Iteration it;
  Checks check(it);
  Span root(recorder, "bench.iteration");
  const auto start = Clock::now();
  std::unique_ptr<ScoredRun> f;
  {
    Span span(recorder, "bench.setup");
    f = build_field(size, config.seed, recorder);
  }
  const auto setup_end = Clock::now();
  it.setup_s.push_back(seconds_between(start, setup_end));
  net::Network& network = *f->network;

  {
    Span span(recorder, "sim.run");
    f->simulator.run();
  }
  const auto sim_end = Clock::now();

  metrics::MseAccumulator total;
  std::uint64_t flow_count = 0;
  double flow_mse_sum = 0.0;
  {
    Span span(recorder, "adversary.score");
    total = f->recorder->score_all(*f->adversary);
    for (const net::NodeId origin : f->origins) {
      const metrics::MseAccumulator flow =
          f->recorder->score_flow(*f->adversary, origin);
      flow_count += flow.count();
      flow_mse_sum += flow.mse();
    }
  }
  const auto score_end = Clock::now();
  it.score_s = seconds_between(sim_end, score_end);
  it.job_s.push_back(seconds_between(start, score_end));

  const std::uint64_t originated = network.packets_originated();
  const std::uint64_t delivered = network.packets_delivered();
  const std::uint64_t drops = network.total_drops();
  {
    Span span(recorder, "bench.verify");
    check.expect(originated == std::uint64_t{size.packets} * f->origins.size(),
                 "field_rcad: every source created its packets");
    check.expect(delivered + drops == originated,
                 "field_rcad: delivered + drops == originated");
    check.expect(delivered == originated, "field_rcad: delivered == originated");
    check.expect(f->adversary->estimates().size() == delivered &&
                     total.count() == delivered && flow_count == delivered &&
                     f->recorder->delivered() == delivered,
                 "field_rcad: estimates == delivered");
    check.expect(f->simulator.pending_events() == 0 &&
                     network.total_buffered() == 0,
                 "field_rcad: run drained");
  }
  it.time_to_result_s = seconds_between(start, Clock::now());
  it.packets = static_cast<double>(delivered);
  it.scenarios = 1;

  Digest digest;
  digest.add(static_cast<std::uint64_t>(f->edges));
  digest.add(f->simulator.events_executed());
  digest.add(network.total_preemptions());
  digest.add(delivered);
  digest.add(total.mse());
  digest.add(flow_mse_sum);
  it.digest = digest.hex();

  if (recorder.enabled()) {
    Span probes(recorder, "bench.probes");
    zero_layers(it);
    telemetry_layers(it);
    scored_run_layers(it, *f, seconds_between(setup_end, sim_end), recorder);
    it.layers["adversary.score_s"] = it.score_s;
    it.layers["adversary.estimates"] =
        static_cast<double>(f->adversary->estimates().size());
    crypto_probe(originated, config.seed, recorder, it, check);
  }
  return it;
}

// ------------------------------------------------------------ longrun_leakage

constexpr double kLongrunInterarrival = 2.0;  // 1/λ: RCAD preempts heavily

/// The paper's Figure-1 network (hop counts 15/22/9/11, shared trunk of 3)
/// under RCAD with periodic sources.
std::unique_ptr<ScoredRun> build_longrun(std::uint32_t packets,
                                         std::uint64_t seed,
                                         SpanRecorder& recorder) {
  sim::RandomStream root(sim::derive_seed(0x1e4c, seed));
  std::vector<net::NodeId> origins;
  auto l = build_scored_run(
      recorder,
      [&] {
        net::ConvergingPaths built = net::Topology::paper_figure1();
        origins = built.sources;
        return std::move(built.topology);
      },
      [&](sim::Simulator& simulator, net::Topology topology) {
        return std::make_unique<net::Network>(
            simulator, std::move(topology),
            core::rcad_exponential_factory(
                kMeanDelay, kSlots, core::VictimPolicy::kShortestRemaining),
            net::NetworkConfig{}, root.split(0x6e65));
      });
  l->origins = std::move(origins);

  Span span(recorder, "workload.sources");
  net::Network& network = *l->network;
  network.reserve(network.topology().node_count());
  sim::RandomStream phase_rng = root.split(0x7068);
  for (std::size_t i = 0; i < l->origins.size(); ++i) {
    l->sources.push_back(std::make_unique<workload::PeriodicSource>(
        network, l->codec, l->origins[i], root.split(0x1000 + i),
        kLongrunInterarrival, packets));
    l->sources.back()->start(phase_rng.uniform(0.0, kLongrunInterarrival));
  }
  return l;
}

struct FlowPairs {
  std::vector<double> creation;
  std::vector<double> arrival;
};

Iteration run_longrun_leakage(const Config& config, SpanRecorder& recorder,
                              campaign::ThreadPool& pool) {
  const std::uint32_t packets = config.smoke ? 2000 : 30000;
  constexpr std::size_t kHistBins = 64;
  constexpr std::size_t kBrutePoints = 2000;
  Iteration it;
  Checks check(it);

  // Set-up is sub-millisecond: repeat it and keep every timing.
  constexpr int kSetups = 20;
  for (int i = 0; i < kSetups - 1; ++i) {
    SpanRecorder off(false);
    const auto t0 = Clock::now();
    auto scratch = build_longrun(packets, config.seed, off);
    it.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  Span root(recorder, "bench.iteration");
  const auto start = Clock::now();
  std::unique_ptr<ScoredRun> l;
  {
    Span span(recorder, "bench.setup");
    l = build_longrun(packets, config.seed, recorder);
  }
  const auto setup_end = Clock::now();
  it.setup_s.push_back(seconds_between(start, setup_end));
  net::Network& network = *l->network;

  {
    Span span(recorder, "sim.run");
    l->simulator.run();
  }
  const auto sim_end = Clock::now();

  std::vector<FlowPairs> pairs(l->origins.size());
  std::vector<double> mse(l->origins.size()), ksg(l->origins.size()),
      hist_mi(l->origins.size());
  std::uint64_t estimates = 0;
  double adversary_s = 0, ksg_s = 0, hist_s = 0;
  std::size_t ksg_points = 0;
  for (std::size_t i = 0; i < l->origins.size(); ++i) {
    const net::NodeId flow = l->origins[i];
    auto t0 = Clock::now();
    {
      Span span(recorder, "adversary.score");
      mse[i] = l->recorder->score_flow(*l->adversary, flow).mse();
      const std::vector<adversary::Estimate>& seen =
          l->adversary->estimates_for_flow(flow);
      estimates += seen.size();
      pairs[i].creation.reserve(seen.size());
      pairs[i].arrival.reserve(seen.size());
      for (const adversary::Estimate& e : seen) {
        const auto* record = l->recorder->find(e.uid);
        pairs[i].creation.push_back(record ? record->creation : -1.0);
        pairs[i].arrival.push_back(e.arrival);
      }
    }
    auto t1 = Clock::now();
    {
      Span span(recorder, "infotheory.ksg");
      ksg[i] = campaign::parallel_mutual_information_ksg(
          pool, pairs[i].creation, pairs[i].arrival);
    }
    auto t2 = Clock::now();
    {
      Span span(recorder, "infotheory.hist_mi");
      hist_mi[i] = infotheory::mutual_information_histogram(
          pairs[i].creation, pairs[i].arrival, kHistBins);
    }
    auto t3 = Clock::now();
    adversary_s += seconds_between(t0, t1);
    ksg_s += seconds_between(t1, t2);
    hist_s += seconds_between(t2, t3);
    ksg_points += pairs[i].creation.size();
  }
  const auto score_end = Clock::now();
  it.score_s = seconds_between(sim_end, score_end);
  it.job_s.push_back(seconds_between(start, score_end));

  const std::uint64_t originated = network.packets_originated();
  const std::uint64_t delivered = network.packets_delivered();
  const std::uint64_t drops = network.total_drops();
  {
    Span span(recorder, "bench.verify");
    check.expect(originated == std::uint64_t{packets} * l->origins.size(),
                 "longrun_leakage: every source created its packets");
    check.expect(delivered + drops == originated,
                 "longrun_leakage: delivered + drops == originated");
    check.expect(estimates == delivered && l->recorder->delivered() == delivered,
                 "longrun_leakage: one estimate per delivered packet");
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const FlowPairs& p = pairs[i];
      const std::string flow = std::to_string(l->origins[i]);
      check.expect(std::none_of(p.creation.begin(), p.creation.end(),
                                [](double c) { return c < 0.0; }),
                   "longrun_leakage: flow " + flow + " ground truth joined");
      double serial = 0.0;
      {
        Span ksg_span(recorder, "infotheory.ksg_serial");
        serial = infotheory::mutual_information_ksg(p.creation, p.arrival);
      }
      check.expect(serial == ksg[i],
                   "longrun_leakage: flow " + flow + " parallel KSG == serial");
      check.expect(std::isfinite(hist_mi[i]) && hist_mi[i] >= 0.0 &&
                       std::isfinite(mse[i]),
                   "longrun_leakage: flow " + flow + " scores finite");
      // Evenly strided subsample for the O(n^2) reference.
      std::vector<double> xs, zs;
      const std::size_t stride =
          std::max<std::size_t>(1, p.creation.size() / kBrutePoints);
      for (std::size_t j = 0; j < p.creation.size() && xs.size() < kBrutePoints;
           j += stride) {
        xs.push_back(p.creation[j]);
        zs.push_back(p.arrival[j]);
      }
      Span brute_span(recorder, "infotheory.ksg_brute");
      check.expect(infotheory::mutual_information_ksg(xs, zs) ==
                       infotheory::reference::mutual_information_ksg_brute(xs, zs),
                   "longrun_leakage: flow " + flow + " KSG == brute reference");
    }
  }
  it.time_to_result_s = seconds_between(start, Clock::now());
  it.packets = static_cast<double>(delivered);
  it.scenarios = 1;

  Digest digest;
  digest.add(l->simulator.events_executed());
  digest.add(network.total_preemptions());
  digest.add(delivered);
  for (std::size_t i = 0; i < mse.size(); ++i) {
    digest.add(mse[i]);
    digest.add(ksg[i]);
    digest.add(hist_mi[i]);
  }
  it.digest = digest.hex();

  if (recorder.enabled()) {
    Span probes(recorder, "bench.probes");
    zero_layers(it);
    telemetry_layers(it);
    scored_run_layers(it, *l, seconds_between(setup_end, sim_end), recorder);
    it.layers["adversary.score_s"] = adversary_s;
    it.layers["adversary.estimates"] = static_cast<double>(estimates);
    it.layers["infotheory.ksg_s"] = ksg_s;
    it.layers["infotheory.ksg_points"] = static_cast<double>(ksg_points);
    it.layers["infotheory.ksg_ns_per_point"] =
        ksg_points ? ksg_s * 1e9 / static_cast<double>(ksg_points) : 0.0;
    it.layers["infotheory.hist_mi_s"] = hist_s;
    crypto_probe(originated, config.seed, recorder, it, check);
  }
  return it;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_sweep", "field_rcad",
                                                 "longrun_leakage"};
  return names;
}

Iteration run_iteration(const Config& config, SpanRecorder& recorder) {
  if (recorder.enabled()) telemetry::reset();
  if (config.workload == "paper_sweep") return run_paper_sweep(config, recorder);
  if (config.workload == "field_rcad") return run_field_rcad(config, recorder);
  if (config.workload == "longrun_leakage") {
    // One analysis pool for the process, like a long-lived scoring service.
    static campaign::ThreadPool pool(worker_threads());
    return run_longrun_leakage(config, recorder, pool);
  }
  throw std::invalid_argument("unknown workload: " + config.workload);
}

}  // namespace repobench
