// Benchmark program: runs one workload for a wall-clock budget, one verified
// result per iteration, and prints one JSON line with the raw per-iteration
// samples. repobench/run.py builds this program, turns the samples into the
// benchmark's metrics and prints the result line.
//
// Usage: repobench --workload NAME --seed N --seconds S
//                  [--traced --spans PATH] [--smoke] [--golden-dir DIR]

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "trace.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void usage(const std::string& what) {
  std::cerr << "repobench: " << what << "\n"
            << "usage: repobench --workload NAME --seed N --seconds S "
               "[--traced --spans PATH] [--smoke] [--golden-dir DIR]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& text, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') usage(std::string("bad value for ") + flag);
  return v;
}

void json_array(std::ostream& os, const std::vector<double>& values) {
  os << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) os << ", ";
    os << values[i];
  }
  os << ']';
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  repobench::Config config;
  double seconds = -1;
  bool traced = false;  // record spans and per-layer metrics
  std::string spans_path;
  config.golden_dir = "tests/golden";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (++i >= argc) usage("missing value after " + flag);
      return argv[i];
    };
    if (flag == "--workload") {
      config.workload = value();
    } else if (flag == "--seed") {
      config.seed = parse_u64(value(), "--seed");
    } else if (flag == "--seconds") {
      seconds = static_cast<double>(parse_u64(value(), "--seconds"));
    } else if (flag == "--traced") {
      traced = true;
    } else if (flag == "--spans") {
      spans_path = value();
    } else if (flag == "--smoke") {
      config.smoke = true;
    } else if (flag == "--golden-dir") {
      config.golden_dir = value();
    } else {
      usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const std::string& name : repobench::workload_names()) {
    known = known || name == config.workload;
  }
  if (!known) usage("unknown --workload '" + config.workload + "'");
  if (seconds < 0) usage("--seconds is required");

  // At least three results per run so every median has company.
  constexpr std::size_t kMinIterations = 3;
  repobench::SpanRecorder recorder(traced);
  std::vector<repobench::Iteration> iterations;
  const auto start = Clock::now();
  double rss_mb = 0;
  try {
    while (iterations.size() < kMinIterations ||
           std::chrono::duration<double>(Clock::now() - start).count() <
               seconds) {
      recorder.set_run(iterations.size());
      iterations.push_back(repobench::run_iteration(config, recorder));
      // Peak RSS of the first result: later iterations reuse the heap, and
      // how much of it fragmentation adds depends on how many ran.
      if (iterations.size() == 1) rss_mb = peak_rss_mb();
    }
  } catch (const std::exception& e) {
    std::cerr << "repobench: " << config.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();

  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    recorder.dump(out);
    if (!out) {
      std::cerr << "repobench: cannot write " << spans_path << "\n";
      return 1;
    }
  }

  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\": " << json_string(config.workload)
     << ", \"seed\": " << config.seed
     << ", \"traced\": " << (traced ? "true" : "false")
     << ", \"telemetry_compiled_in\": "
     << (tempriv::telemetry::compiled_in() ? "true" : "false")
     << ", \"wall_s\": " << wall << ", \"peak_rss_mb\": " << rss_mb
     << ", \"iterations\": [";
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    const repobench::Iteration& it = iterations[i];
    if (i) os << ", ";
    os << "{\"setup_s\": ";
    json_array(os, it.setup_s);
    os << ", \"time_to_result_s\": " << it.time_to_result_s
       << ", \"score_s\": " << it.score_s << ", \"job_s\": ";
    json_array(os, it.job_s);
    os << ", \"packets\": " << it.packets << ", \"scenarios\": " << it.scenarios
       << ", \"attempted\": " << it.attempted << ", \"failed\": " << it.failed
       << ", \"failures\": [";
    for (std::size_t f = 0; f < it.failures.size(); ++f) {
      if (f) os << ", ";
      os << json_string(it.failures[f]);
    }
    os << "], \"digest\": \"" << it.digest << "\", \"layers\": {";
    bool first = true;
    for (const auto& [name, value] : it.layers) {
      if (!first) os << ", ";
      first = false;
      os << json_string(name) << ": " << value;
    }
    os << "}}";
  }
  os << "]}\n";
  std::cout << os.str() << std::flush;
  return 0;
}
