#pragma once

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "metrics/table.h"

namespace tempriv::bench {

/// Directory CSVs are written to: $TEMPRIV_RESULTS_DIR if set and non-empty
/// (so campaign and CI runs can redirect output), else the historical
/// cwd-relative bench_results/.
inline std::string results_dir() {
  const char* env = std::getenv("TEMPRIV_RESULTS_DIR");
  return (env != nullptr && *env != '\0') ? std::string(env) : "bench_results";
}

/// Prints the table to stdout and saves it as <results_dir>/<tag>.csv so
/// every figure can be re-plotted from the emitted data. A CSV that cannot
/// be written is a failed run: the reason goes to stderr and the process
/// exits 1 (the bench mains catch nothing, so a throw would abort).
inline void emit(const std::string& tag, const metrics::Table& table) {
  std::cout << "\n== " << tag << " ==\n";
  table.print(std::cout);
  const std::string dir = results_dir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::cerr << "error: cannot create results directory '" << dir
              << "': " << ec.message() << "\n";
    std::exit(1);
  }
  const std::string path = dir + "/" + tag + ".csv";
  try {
    table.save_csv(path);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(1);
  }
  std::cout << "(csv: " << path << ")\n";
}

}  // namespace tempriv::bench
