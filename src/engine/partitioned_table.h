// Partitioned storage of the in-process engine, mirroring the paper's XDB
// layout (§5.1): hash partitioning (LINEITEM/ORDERS co-partitioned on
// orderkey), replication (NATION/REGION) and RREF partial replication
// (CUSTOMER/SUPPLIER/PART/PARTSUPP) — simulated conservatively as full
// replication, which preserves the property RREF provides: joins against
// these tables never require a shuffle.
#pragma once

#include <map>
#include <vector>

#include "catalog/tpch_catalog.h"
#include "common/result.h"
#include "datagen/tpch_gen.h"
#include "exec/batch.h"

namespace xdbft::engine {

/// \brief One logical table split/replicated across the cluster's nodes.
struct PartitionedTable {
  catalog::Partitioning partitioning = catalog::Partitioning::kReplicated;
  /// Index of the hash-partitioning key column (kHash only).
  int key_column = -1;
  /// One Table per node. Replicated tables hold identical copies.
  std::vector<exec::Table> partitions;

  size_t num_partitions() const { return partitions.size(); }
  /// \brief Rows across partitions (counts each replica for replicated
  /// tables).
  size_t TotalRows() const;
  /// \brief Logical row count (replicas counted once).
  size_t LogicalRows() const;
};

/// \brief Split `table` into `num_partitions` parts.
Result<PartitionedTable> Partition(const exec::Table& table,
                                   catalog::Partitioning partitioning,
                                   const std::string& key_column,
                                   int num_partitions);

/// \brief A TPC-H database distributed over the cluster per §5.1.
struct PartitionedDatabase {
  int num_nodes = 0;
  std::map<catalog::TpchTable, PartitionedTable> tables;

  const PartitionedTable& table(catalog::TpchTable t) const {
    return tables.at(t);
  }
};

/// \brief Distribute a generated TPC-H database using the paper's layout.
Result<PartitionedDatabase> DistributeTpch(
    const datagen::TpchDatabase& db, int num_nodes);

}  // namespace xdbft::engine
