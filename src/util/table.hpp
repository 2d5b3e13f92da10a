// table.hpp — report table builder used by the bench harness: collects typed
// columns, prints an aligned console table (the "rows the paper reports") and
// optionally dumps CSV for plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace aqua::util {

class Table {
 public:
  using Cell = std::variant<std::string, double, long long>;

  explicit Table(std::string title = {});

  Table& columns(std::vector<std::string> names);
  Table& precision(int digits);  ///< digits after the decimal point for doubles

  void add_row(std::vector<Cell> cells);

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

  /// Renders an aligned, boxed console table.
  void print(std::ostream& os) const;

  /// Writes RFC-4180-ish CSV (header + rows) to the given path.
  void write_csv(const std::string& path) const;

 private:
  [[nodiscard]] std::string format_cell(const Cell& c) const;

  std::string title_;
  std::vector<std::string> cols_;
  std::vector<std::vector<Cell>> rows_;
  int precision_ = 4;
};

}  // namespace aqua::util
