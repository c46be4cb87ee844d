// Plain-text table renderer used by the benchmark harness to print the
// paper's tables and figure series in a stable, diff-friendly format.
#pragma once

#include <string>
#include <vector>

namespace libra::util {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  // Render with column alignment and a separator under the header.
  std::string to_string() const;
  // Render as CSV (no alignment padding).
  std::string to_csv() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

std::string format_double(double v, int precision = 2);

}  // namespace libra::util
