#pragma once
/// \file table.h
/// \brief ASCII / CSV table rendering for benchmark and example output,
/// and the percent-improvement figure the tables print.
///
/// Every bench binary prints the rows of the paper table/figure it
/// regenerates through this writer, so outputs are uniform and easy to
/// diff or post-process (CSV mode).

#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace laps {

/// A simple column-aligned table. Cells are strings; numeric helpers
/// format with fixed precision.
class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent cell() calls fill it left to right.
  Table& row();

  /// Appends a string cell to the current row.
  Table& cell(std::string value);

  /// Appends a formatted numeric cell (fixed, \p precision decimals).
  Table& cell(double value, int precision = 2);

  /// Appends an integer cell (any integral type).
  template <typename T>
    requires std::integral<T>
  Table& cell(T value) {
    return cell(std::to_string(value));
  }

  [[nodiscard]] std::size_t rowCount() const { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& headers() const { return headers_; }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Renders with aligned columns and a header rule.
  [[nodiscard]] std::string ascii() const;

  /// Renders as RFC-4180-ish CSV (fields containing commas are quoted).
  [[nodiscard]] std::string csv() const;

  /// Convenience: writes ascii() to \p os.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Percentage improvement of \p optimized over \p baseline
/// (e.g. 25.0 means optimized is 25% faster / smaller).
/// Returns 0 when baseline is 0.
[[nodiscard]] double percentImprovement(double baseline, double optimized);

}  // namespace laps
