// Aligned plain-text table rendering for the bench harnesses.
//
// Every bench binary reproduces one of the paper's tables; TablePrinter
// renders them with the same row/column layout so EXPERIMENTS.md can paste
// the output verbatim next to the paper's numbers.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace drbw {

/// Column alignment for TablePrinter.
enum class Align { kLeft, kRight };

/// Builds a fixed set of columns, accepts string rows, and renders with
/// padded alignment, a header rule, and optional section separators.
class TablePrinter {
 public:
  struct Column {
    std::string header;
    Align align = Align::kLeft;
  };

  explicit TablePrinter(std::vector<Column> columns);

  /// Appends one row; must have exactly one cell per column.
  void add_row(std::vector<std::string> cells);

  /// Appends a horizontal separator line at this position.
  void add_separator();

  /// Renders the complete table.
  std::string render() const;

  /// Convenience: renders with a centered title line above the table.
  std::string render_titled(const std::string& title) const;

 private:
  struct Row {
    bool separator = false;
    std::vector<std::string> cells;
  };

  std::vector<Column> columns_;
  std::vector<Row> rows_;
};

/// Writes `text` to `os` and also returns it (for harness logging).
std::ostream& print_block(std::ostream& os, const std::string& text);

}  // namespace drbw
