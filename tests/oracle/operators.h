// Test-only oracle: the pull-based (Volcano-style open/next/close)
// row-at-a-time operators — scan, filter, project, hash / nested-loop /
// merge join, hash aggregate, sort, limit and union-all — and the lowering
// of a VecNode plan onto them. The library runs every plan on the
// vectorized engine (exec/pipeline.h); this independent implementation of
// the same operator semantics is what the tests compare it against, for
// random plans as well as the benchmark queries.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "exec/agg.h"
#include "exec/batch.h"
#include "exec/expr.h"
#include "exec/pipeline.h"
#include "exec/schema.h"
#include "exec/value.h"

namespace xdbft::exec {

/// \brief Base iterator. Usage: Open() once, Next() until it yields false,
/// Close(). Operators own their children. Re-Open without an intervening
/// Close must reset all state (recovery replays re-open operator trees).
class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Open() = 0;
  /// \brief Produce the next row into *out; yields false when exhausted.
  virtual Result<bool> Next(Row* out) = 0;
  virtual void Close() = 0;
  virtual const Schema& schema() const = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// \brief Full scan over an in-memory table (not owned).
OperatorPtr MakeScan(const Table* table);

/// \brief Rows of `input` satisfying `predicate`.
OperatorPtr MakeFilter(OperatorPtr input, Expr::Ptr predicate);

/// \brief Computed columns. `names` labels the output schema; types are
/// inferred from the first row (defaults to the expression literal type).
OperatorPtr MakeProject(OperatorPtr input, std::vector<Expr::Ptr> exprs,
                        std::vector<std::string> names);

/// \brief Equi hash join: builds a hash table on `build` (left child) keyed
/// by build_keys, probes with `probe` rows keyed by probe_keys. Output
/// schema = probe schema ++ build schema (probe row first).
OperatorPtr MakeHashJoin(OperatorPtr build, OperatorPtr probe,
                         std::vector<int> build_keys,
                         std::vector<int> probe_keys);

/// \brief Nested-loop join with an arbitrary theta predicate evaluated
/// over the concatenated row (left columns first, then right columns with
/// duplicate names prefixed "right."). The left input is buffered; the
/// right input streams. Output schema = left ++ right.
OperatorPtr MakeNestedLoopJoin(OperatorPtr left, OperatorPtr right,
                               Expr::Ptr predicate);

/// \brief Sort-merge equi join on single key columns (inputs need not be
/// pre-sorted; both sides are buffered and sorted). Handles duplicate
/// keys on both sides (cross product per key group). Output schema =
/// left ++ right.
OperatorPtr MakeMergeJoin(OperatorPtr left, OperatorPtr right,
                          int left_key, int right_key);

// AggFunc/AggSpec live in exec/agg.h (shared with the vectorized engine).

/// \brief Group-by hash aggregation. Output schema: group columns followed
/// by one column per AggSpec. An empty `group_by` yields one global row.
/// Groups are emitted in first-occurrence order of their key in the input
/// (deterministic, engine-independent).
OperatorPtr MakeHashAggregate(OperatorPtr input, std::vector<int> group_by,
                              std::vector<AggSpec> aggs);

/// \brief Full sort by the given key columns (true = ascending); optional
/// limit after sorting (top-k).
OperatorPtr MakeSort(OperatorPtr input, std::vector<int> keys,
                     std::vector<bool> ascending,
                     int64_t limit = -1);

/// \brief First `limit` rows of the input.
OperatorPtr MakeLimit(OperatorPtr input, int64_t limit);

/// \brief Concatenation of same-schema inputs. Open fails with
/// InvalidArgument when input schemas disagree in column count, name, or
/// type (a kNull column type is a wildcard: project outputs carry it).
OperatorPtr MakeUnionAll(std::vector<OperatorPtr> inputs);

/// \brief Drain an operator tree into a materialized table.
Result<Table> Drain(Operator* op);

/// \brief Lower a plan to the operator tree (same output schemas, same
/// row order as ExecuteVectorized). Returns nullptr for a null plan.
OperatorPtr ToOperator(const VecNodePtr& plan);

}  // namespace xdbft::exec
