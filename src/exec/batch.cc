#include "exec/batch.h"

#include <algorithm>
#include <cstring>

namespace xdbft::exec {

void BatchFromTable(const Table& table, size_t begin, size_t end,
                    Batch* out) {
  const size_t ncols = table.schema.num_columns();
  out->Reset(ncols);
  if (begin >= end) return;
  out->Reserve(end - begin);
  // Row-outer so each (heap-scattered) source row is walked exactly once;
  // the destination columns are contiguous either way.
  for (size_t r = begin; r < end; ++r) {
    const Row& row = table.rows[r];
    for (size_t c = 0; c < ncols; ++c) {
      out->columns[c].push_back(row[c]);
    }
  }
}

void AppendBatchToTable(Batch&& batch, Table* table) {
  const size_t n = batch.num_rows();
  const size_t ncols = batch.num_columns();
  // Grow geometrically: reserving to exactly size+n would reallocate (and
  // move every accumulated row) once per appended batch.
  if (table->rows.size() + n > table->rows.capacity()) {
    table->rows.reserve(
        std::max(table->rows.size() + n, table->rows.capacity() * 2));
  }
  for (size_t r = 0; r < n; ++r) {
    Row row;
    row.reserve(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      row.push_back(std::move(batch.columns[c][r]));
    }
    table->rows.push_back(std::move(row));
  }
}

bool BitIdenticalValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
      return a.AsInt64() == b.AsInt64();
    case ValueType::kDouble: {
      // Compare representations: distinguishes -0.0 from 0.0 and treats
      // identical NaNs as equal (a double copied bit-for-bit must match).
      const double da = a.AsDouble(), db = b.AsDouble();
      uint64_t ba = 0, bb = 0;
      std::memcpy(&ba, &da, sizeof(da));
      std::memcpy(&bb, &db, sizeof(db));
      return ba == bb;
    }
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

bool BitIdenticalTables(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows()) return false;
  if (a.schema.num_columns() != b.schema.num_columns()) return false;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      if (!BitIdenticalValue(a.rows[r][c], b.rows[r][c])) return false;
    }
  }
  return true;
}

}  // namespace xdbft::exec
