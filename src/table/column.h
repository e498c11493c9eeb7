#ifndef AUTOTEST_TABLE_COLUMN_H_
#define AUTOTEST_TABLE_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace autotest::table {

/// A single table column: the unit of work throughout Auto-Test.
/// Values are kept as raw strings; semantic interpretation is the job of the
/// domain-evaluation functions in typedet/.
struct Column {
  std::string name;
  std::vector<std::string> values;

  size_t size() const { return values.size(); }
  bool empty() const { return values.empty(); }
};

/// Distinct values of a column with their multiplicities, in first-seen
/// order. Distance computations are performed once per distinct value.
struct DistinctValues {
  std::vector<std::string> values;
  std::vector<size_t> counts;
  /// row_index[r]: the index in `values` of the column's row r.
  std::vector<uint32_t> row_index;
  size_t total = 0;

  size_t size() const { return values.size(); }
};

/// Computes the distinct values (first-seen order) of a column. Each
/// distinct value is copied once; the index keys on views into the
/// column.
DistinctValues Distinct(const Column& column);

/// Summary statistics used for corpus profiling (paper Table 3).
struct ColumnStats {
  size_t num_values = 0;
  size_t num_distinct = 0;
  double mean_length = 0.0;
  double digit_ratio = 0.0;   // mean per-value digit character ratio
  double alpha_ratio = 0.0;   // mean per-value alpha character ratio
  double numeric_fraction = 0.0;  // fraction of values that parse as numbers
};

/// Computes summary statistics for a column.
ColumnStats ComputeStats(const Column& column);

/// True if the value parses as an integer or decimal number (optionally
/// signed, with thousands separators disallowed).
bool LooksNumeric(const std::string& value);

/// True if a majority (>= threshold) of a column's values look numeric.
/// The paper's benchmarks exclude numeric columns (footnote 8).
bool IsMostlyNumeric(const Column& column, double threshold = 0.8);

}  // namespace autotest::table

#endif  // AUTOTEST_TABLE_COLUMN_H_
