#include "metrics/table.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace tempriv::metrics {

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
  if (columns_.empty()) throw std::invalid_argument("Table: needs >= 1 column");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != columns_.size()) {
    throw std::invalid_argument("Table: row width does not match header");
  }
  rows_.push_back(std::move(cells));
}

void Table::add_numeric_row(const std::vector<double>& cells, int precision) {
  std::vector<std::string> formatted;
  formatted.reserve(cells.size());
  for (double cell : cells) formatted.push_back(format_number(cell, precision));
  add_row(std::move(formatted));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::setw(static_cast<int>(widths[c])) << row[c]
         << (c + 1 == row.size() ? "\n" : "  ");
    }
  };
  print_row(columns_);
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    os << std::string(widths[c], '-') << (c + 1 == columns_.size() ? "\n" : "  ");
  }
  for (const auto& row : rows_) print_row(row);
}

void Table::write_csv(std::ostream& os) const {
  auto write_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c] << (c + 1 == row.size() ? "\n" : ",");
    }
  };
  write_row(columns_);
  for (const auto& row : rows_) write_row(row);
}

void Table::save_csv(const std::string& path) const {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("Table::save_csv: cannot open " + path);
  write_csv(file);
  file.close();  // flushes: a small CSV's write error surfaces only here
  if (!file) throw std::runtime_error("Table::save_csv: write failed for " + path);
}

std::string format_number(double value, int precision) {
  std::ostringstream oss;
  const double magnitude = std::fabs(value);
  if (value != 0.0 && (magnitude >= 1e7 || magnitude < 1e-4)) {
    oss << std::scientific << std::setprecision(precision) << value;
  } else {
    oss << std::fixed << std::setprecision(precision) << value;
  }
  return oss.str();
}

}  // namespace tempriv::metrics
