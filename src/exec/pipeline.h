// Morsel-driven vectorized execution engine — the library's one engine.
// A query is described as a VecNode plan tree built with the V* factories
// and run by ExecuteVectorized over Batches.
//
// ExecuteVectorized decomposes the plan at pipeline breakers (hash-build
// sides, aggregates, sorts, merge joins, limits, unions). Each pipeline
// reads its source table in morsels of `morsel_rows` rows, pushes every
// morsel through the streaming steps (filter / project / hash-join probe /
// nested-loop probe), and feeds a serial sink. Morsels of one pipeline run
// concurrently on the work-stealing TaskPool, but the sink always consumes
// their outputs in morsel-index order, so results are bit-identical at any
// thread count and morsel size: floating-point accumulation (aggregate
// sums) happens in exactly the input-row order, never in a merge order
// that depends on scheduling. This is the determinism contract the FT
// executor and the crosscheck harness rely on. The tests hold the engine
// to a row-at-a-time Volcano implementation of the same operators
// (tests/oracle), which lives outside the library.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/task_pool.h"
#include "exec/agg.h"
#include "exec/batch.h"
#include "exec/expr.h"
#include "obs/query_profile.h"
#include "obs/trace.h"

namespace xdbft::exec {

enum class VecOp : int {
  kScan,
  kFilter,
  kProject,
  kHashJoin,
  kNestedLoopJoin,
  kMergeJoin,
  kHashAggregate,
  kSort,
  kLimit,
  kUnionAll,
};

/// \brief One node of a plan tree. Build with the V* factories below; the
/// output schema is computed eagerly so parents can resolve column names
/// at plan-construction time.
struct VecNode {
  VecOp op = VecOp::kScan;
  std::vector<std::shared_ptr<const VecNode>> children;
  Schema schema;

  const Table* table = nullptr;            // kScan
  Expr::Ptr predicate;                     // kFilter, kNestedLoopJoin
  std::vector<Expr::Ptr> exprs;            // kProject
  std::vector<int> build_keys;             // kHashJoin
  std::vector<int> probe_keys;             // kHashJoin
  int left_key = -1;                       // kMergeJoin
  int right_key = -1;                      // kMergeJoin
  std::vector<int> group_by;               // kHashAggregate
  std::vector<AggSpec> aggs;               // kHashAggregate
  std::vector<int> sort_keys;              // kSort
  std::vector<bool> ascending;             // kSort
  int64_t limit = -1;                      // kSort (top-k), kLimit
};

using VecNodePtr = std::shared_ptr<const VecNode>;

// Plan factories. A hash join's output is probe columns ++ build columns;
// nested-loop and merge joins output left ++ right. Invalid plans (bad
// keys, null predicate, mismatched sizes) are diagnosed at execution time
// with InvalidArgument.
VecNodePtr VScan(const Table* table);
VecNodePtr VFilter(VecNodePtr input, Expr::Ptr predicate);
VecNodePtr VProject(VecNodePtr input, std::vector<Expr::Ptr> exprs,
                    std::vector<std::string> names);
VecNodePtr VHashJoin(VecNodePtr build, VecNodePtr probe,
                     std::vector<int> build_keys,
                     std::vector<int> probe_keys);
VecNodePtr VNestedLoopJoin(VecNodePtr left, VecNodePtr right,
                           Expr::Ptr predicate);
VecNodePtr VMergeJoin(VecNodePtr left, VecNodePtr right, int left_key,
                      int right_key);
VecNodePtr VHashAggregate(VecNodePtr input, std::vector<int> group_by,
                          std::vector<AggSpec> aggs);
VecNodePtr VSort(VecNodePtr input, std::vector<int> keys,
                 std::vector<bool> ascending, int64_t limit = -1);
VecNodePtr VLimit(VecNodePtr input, int64_t limit);
VecNodePtr VUnionAll(std::vector<VecNodePtr> inputs);

/// \brief Options of one vectorized execution.
struct VecExecOptions {
  /// Total worker threads per pipeline (1 = serial morsel loop; the
  /// calling thread always participates).
  int num_threads = 1;
  /// Rows per morsel/batch.
  size_t morsel_rows = kDefaultBatchRows;
  /// Pool to schedule morsels on. Null with num_threads > 1 makes
  /// ExecuteVectorized create a private pool for the call. Pass an
  /// existing pool to share workers across plans; never pass a pool from
  /// inside one of its own tasks (ParallelForEach is not reentrant) —
  /// leave num_threads at 1 there instead.
  TaskPool* pool = nullptr;
  /// Optional per-pipeline trace lanes (pid 0, one tid per pipeline
  /// starting at trace_lane_base).
  obs::TraceRecorder* trace = nullptr;
  int trace_lane_base = 0;
  /// When non-null, rebuilt as the plan's profile skeleton and filled with
  /// per-operator/per-pipeline statistics: rows and batches accumulated in
  /// worker-local slots per morsel task (no locks or shared counters on
  /// the hot path) and folded into the tree once at pipeline finish.
  /// Chain operators record summed worker-busy seconds; breaker nodes
  /// record the inclusive wall time of their pipeline. Under
  /// XDBFT_DISABLE_METRICS only the zeroed skeleton is produced.
  obs::OperatorProfile* profile = nullptr;
};

/// \brief Execute a plan. The result is bit-identical at any thread count
/// and morsel size.
Result<Table> ExecuteVectorized(const VecNodePtr& plan,
                                const VecExecOptions& opts = {});

}  // namespace xdbft::exec
