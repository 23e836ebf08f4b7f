#include "util/table.h"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/error.h"

namespace laps {

double percentImprovement(double baseline, double optimized) {
  if (baseline == 0.0) return 0.0;
  return (baseline - optimized) / baseline * 100.0;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  check(!headers_.empty(), "Table requires at least one column");
}

Table& Table::row() {
  check(rows_.empty() || rows_.back().size() == headers_.size(),
        "previous table row is incomplete");
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(std::string value) {
  check(!rows_.empty(), "call row() before cell()");
  check(rows_.back().size() < headers_.size(), "too many cells in row");
  rows_.back().push_back(std::move(value));
  return *this;
}

Table& Table::cell(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return cell(os.str());
}

std::string Table::ascii() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      widths[c] = std::max(widths[c], r[c].size());
    }
  }
  std::ostringstream os;
  auto emitRow = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& text = c < cells.size() ? cells[c] : std::string();
      os << (c == 0 ? "| " : " | ") << std::left
         << std::setw(static_cast<int>(widths[c])) << text;
    }
    os << " |\n";
  };
  emitRow(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << (c == 0 ? "|-" : "-|-") << std::string(widths[c], '-');
  }
  os << "-|\n";
  for (const auto& r : rows_) {
    emitRow(r);
  }
  return os.str();
}

std::string Table::csv() const {
  auto escape = [](const std::string& field) {
    if (field.find_first_of(",\"\n") == std::string::npos) return field;
    std::string out = "\"";
    for (const char ch : field) {
      if (ch == '"') out += '"';
      out += ch;
    }
    out += '"';
    return out;
  };
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << ',';
      os << escape(cells[c]);
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& r : rows_) emit(r);
  return os.str();
}

void Table::print(std::ostream& os) const { os << ascii(); }

}  // namespace laps
