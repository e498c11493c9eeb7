#include "table/column.h"

#include <cctype>
#include <string_view>

#include "util/check.h"
#include "util/string_util.h"

namespace autotest::table {

DistinctValues Distinct(const Column& column) {
  AT_CHECK(column.values.size() <= UINT32_MAX);
  DistinctValues out;
  std::unordered_map<std::string_view, uint32_t> index;
  index.reserve(column.values.size());
  out.row_index.reserve(column.values.size());
  for (const std::string& v : column.values) {
    const auto [it, inserted] =
        index.try_emplace(v, static_cast<uint32_t>(out.values.size()));
    if (inserted) {
      out.values.push_back(v);
      out.counts.push_back(1);
    } else {
      ++out.counts[it->second];
    }
    out.row_index.push_back(it->second);
  }
  out.total = column.values.size();
  return out;
}

ColumnStats ComputeStats(const Column& column) {
  ColumnStats s;
  s.num_values = column.values.size();
  if (column.values.empty()) return s;
  DistinctValues d = Distinct(column);
  s.num_distinct = d.values.size();
  double len_sum = 0.0;
  double digit_sum = 0.0;
  double alpha_sum = 0.0;
  size_t numeric = 0;
  for (const auto& v : column.values) {
    len_sum += static_cast<double>(v.size());
    digit_sum += util::DigitRatio(v);
    alpha_sum += util::AlphaRatio(v);
    if (LooksNumeric(v)) ++numeric;
  }
  double n = static_cast<double>(column.values.size());
  s.mean_length = len_sum / n;
  s.digit_ratio = digit_sum / n;
  s.alpha_ratio = alpha_sum / n;
  s.numeric_fraction = static_cast<double>(numeric) / n;
  return s;
}

bool LooksNumeric(const std::string& value) {
  std::string_view s = util::Trim(value);
  if (s.empty()) return false;
  size_t i = 0;
  if (s[i] == '+' || s[i] == '-') ++i;
  bool digits = false;
  bool dot = false;
  for (; i < s.size(); ++i) {
    char c = s[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digits = true;
    } else if (c == '.' && !dot) {
      dot = true;
    } else {
      return false;
    }
  }
  return digits;
}

bool IsMostlyNumeric(const Column& column, double threshold) {
  if (column.values.empty()) return false;
  size_t numeric = 0;
  for (const auto& v : column.values) {
    if (LooksNumeric(v)) ++numeric;
  }
  return static_cast<double>(numeric) >=
         threshold * static_cast<double>(column.values.size());
}

}  // namespace autotest::table
