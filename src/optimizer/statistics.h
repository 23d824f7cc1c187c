// Data-derived statistics: per-column histograms and distinct-value
// counts built from real tables, and the classic estimators on top of
// them (predicate selectivity, equi-join cardinality under the
// containment assumption). This is the "statistics about the query"
// provider the paper assumes of a cost-based optimizer (§2.1: estimates
// "calculated based on input/output cardinalities of each operator
// [Moerkotte 14]").
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "exec/batch.h"

namespace xdbft::optimizer {

/// \brief Statistics of one column.
struct ColumnStats {
  std::string name;
  exec::ValueType type = exec::ValueType::kNull;
  size_t row_count = 0;
  size_t null_count = 0;
  /// Exact number of distinct non-null values.
  size_t distinct_count = 0;
  /// Numeric columns only: min/max and an equi-width histogram over
  /// [min, max] (bucket i counts values in its sub-range).
  double min = 0.0;
  double max = 0.0;
  std::vector<size_t> histogram;

  bool is_numeric() const {
    return type == exec::ValueType::kInt64 ||
           type == exec::ValueType::kDouble;
  }
};

/// \brief Statistics of one table.
struct TableStats {
  size_t row_count = 0;
  std::vector<ColumnStats> columns;

  Result<const ColumnStats*> Find(const std::string& column) const;
};

/// \brief Scan a table and build statistics for every column.
/// `histogram_buckets` controls numeric histogram resolution.
Result<TableStats> AnalyzeTable(const exec::Table& table,
                                int histogram_buckets = 64);

/// \brief Selectivity of `column < value` (fraction of rows), estimated
/// from the histogram with intra-bucket linear interpolation. Non-numeric
/// columns fall back to 1/3 (System-R style).
double EstimateLessThan(const ColumnStats& stats, double value);

/// \brief Selectivity of `column = value`: histogram-bucket density over
/// the bucket's distinct values for numerics, 1/NDV otherwise.
double EstimateEquals(const ColumnStats& stats, double value);

/// \brief Selectivity of `lo <= column < hi`.
double EstimateRange(const ColumnStats& stats, double lo, double hi);

/// \brief Equi-join output cardinality |L join R| under the containment
/// assumption: |L| * |R| / max(ndv(L.key), ndv(R.key)).
double EstimateJoinCardinality(size_t left_rows, const ColumnStats& left_key,
                               size_t right_rows,
                               const ColumnStats& right_key);

}  // namespace xdbft::optimizer
