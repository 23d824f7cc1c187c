// Deterministic, referentially consistent TPC-H data generator (dbgen
// substitute): produces the eight benchmark tables at any scale factor
// with the official cardinality scaling rules, seeded so that repeated
// generation is identical. Value distributions follow the TPC-H spec in
// spirit (uniform keys, 1-7 lineitems per order, date ranges over the
// 7-year 1992-1998 window) without reproducing dbgen's exact text grammar.
#pragma once

#include "catalog/tpch_catalog.h"
#include "common/result.h"
#include "common/rng.h"
#include "exec/batch.h"

namespace xdbft::datagen {

/// \brief TPC-H dates are int64 days since 1992-01-01; the window spans
/// 7 years (matching the paper's "1 year of 7" ORDERS selectivity).
constexpr int64_t kDateEpochDays = 0;
constexpr int64_t kDateRangeDays = 7 * 365;

/// \brief Generator options.
struct TpchGenOptions {
  double scale_factor = 0.01;
  uint64_t seed = 19920101;
};

/// \brief A generated TPC-H database.
struct TpchDatabase {
  exec::Table region;
  exec::Table nation;
  exec::Table supplier;
  exec::Table customer;
  exec::Table part;
  exec::Table partsupp;
  exec::Table orders;
  exec::Table lineitem;

  const exec::Table& table(catalog::TpchTable t) const;
};

/// \brief Generate all eight tables. Scale factors below ~0.001 still
/// produce consistent (small) tables.
Result<TpchDatabase> GenerateTpch(const TpchGenOptions& options);

/// \brief Schemas of the generated tables (column order used by rows).
exec::Schema RegionSchema();
exec::Schema NationSchema();
exec::Schema SupplierSchema();
exec::Schema CustomerSchema();
exec::Schema PartSchema();
exec::Schema PartSuppSchema();
exec::Schema OrdersSchema();
exec::Schema LineitemSchema();

}  // namespace xdbft::datagen
