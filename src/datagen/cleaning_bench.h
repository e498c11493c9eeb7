#ifndef AUTOTEST_DATAGEN_CLEANING_BENCH_H_
#define AUTOTEST_DATAGEN_CLEANING_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "table/table.h"

namespace autotest::datagen {

/// One erroneous cell in a cleaning dataset.
struct CleaningCell {
  size_t column_index = 0;
  size_t row = 0;
  std::string dirty_value;
  std::string clean_value;
  /// Whether this error is labeled in the dataset's "existing ground
  /// truth". Errors with in_ground_truth == false are the paper's Table-11
  /// cases: real errors that the benchmark's own labels miss, which make a
  /// strict precision evaluation under-estimate the true precision.
  bool in_ground_truth = true;
};

/// A mini version of one of the nine data-cleaning benchmark datasets
/// (adults, beers, flights, food, hospital, movies, rayyan, soccer, tax)
/// used in the paper's Section 6.7.
struct CleaningDataset {
  std::string name;
  table::Table data;  // dirty table (errors already applied)
  std::vector<CleaningCell> errors;
  /// Column indices covered by the dataset's pre-existing expert
  /// constraints (FDs etc.), per the paper's Table 9 "cols covered by
  /// existing ground-truth" row.
  std::vector<size_t> columns_with_existing_constraints;
};

/// Builds all nine datasets deterministically.
std::vector<CleaningDataset> BuildCleaningDatasets(uint64_t seed = 4242);

}  // namespace autotest::datagen

#endif  // AUTOTEST_DATAGEN_CLEANING_BENCH_H_
