// StagePlan: an executable DAG of *stages* (sub-plans), the unit at which
// the paper's XDB middleware splits queries for fault-tolerant execution.
// Each stage runs either partition-parallel (one task per partition, over
// co-partitioned inputs) or globally (one task consuming the concatenated
// outputs of its producers — a merge/exchange point).
//
// The stage plans below are the one definition of each benchmark query.
// Two drivers execute them: the FaultTolerantExecutor (ft_executor.h) runs
// a StagePlan under a MaterializationConfig with injected failures and
// real recovery (outputs of materialized stages survive node failures,
// everything else is recomputed from the last materialized ancestors), and
// QueryRunner (query_runner.h) runs it failure-free, stage by stage,
// recording the per-stage timings and profiles calibration reads.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "datagen/tpch_gen.h"
#include "engine/exec_mode.h"
#include "engine/partitioned_table.h"
#include "plan/plan.h"

namespace xdbft::engine {

/// \brief Fixed query parameters (exported so tests and examples can
/// compute reference results against the same predicates).
namespace params {
inline constexpr int64_t kQ1ShipdateCutoff =
    datagen::kDateRangeDays - 52;  // ~98% of the window
inline constexpr int64_t kQ3Date = datagen::kDateRangeDays / 2;
inline constexpr const char* kQ3Segment = "BUILDING";
inline constexpr int64_t kQ5Region = 3;  // EUROPE
inline constexpr int64_t kQ5YearStart = 3 * 365;
inline constexpr int64_t kQ5YearEnd = 4 * 365;
/// Q2C part-type prefix filter as a lexicographic range (the generated
/// p_type values start with one of six type words).
inline constexpr const char* kQ2TypePrefixLo = "STANDARD";
inline constexpr const char* kQ2TypePrefixHi = "STANDARE";
/// Q2C's two outer queries split parts by retail price.
inline constexpr double kQ2PriceSplit = 1400.0;
}  // namespace params

/// \brief How a consumer task reads a producer stage's output.
enum class EdgeMode : int {
  /// Consumer partition p reads producer partition p (co-partitioned
  /// data flow; the only mode meaningful for global producers).
  kSamePartition,
  /// Consumer task reads the concatenation of every producer partition
  /// (broadcast for partitioned consumers; merge for global consumers).
  kBroadcast,
  /// Hash repartitioning: consumer partition p reads, from every producer
  /// partition, the rows whose shuffle-key column hashes to p. The
  /// operation whose output many PDEs always materialize (paper §2.1).
  kShuffle,
};

/// \brief One input edge of a stage.
struct StageInput {
  int stage = -1;
  EdgeMode mode = EdgeMode::kSamePartition;
  /// Column of the producer's output to hash on (kShuffle only).
  int shuffle_key = -1;

  StageInput() = default;
  StageInput(int s) : stage(s) {}  // NOLINT(runtime/explicit)
  StageInput(int s, EdgeMode m, int key = -1)
      : stage(s), mode(m), shuffle_key(key) {}
};

/// \brief Executes one VecNode plan for a stage task. The driver picks the
/// engine, morsel size, pool and profiling; the stage only builds the plan.
using PlanRunner =
    std::function<Result<exec::Table>(const exec::VecNodePtr& plan)>;

/// \brief One stage of an executable stage DAG.
struct Stage {
  std::string label;
  plan::OpType type = plan::OpType::kMapUdf;
  /// True: runs once on the coordinator. Inputs from partitioned
  /// producers are concatenated regardless of their edge mode.
  bool global = false;
  /// Producer edges.
  std::vector<StageInput> inputs;
  /// Executes one task: `partition` is -1 for global stages; `inputs[i]`
  /// is the table this task reads from producer edge i (resolved per the
  /// edge mode by StagePlan::ResolveInputs); `run_plan` executes the
  /// task's VecNode plan. Must be thread-safe across partitions.
  std::function<Result<exec::Table>(
      int partition, const std::vector<const exec::Table*>& inputs,
      const PlanRunner& run_plan)>
      run;
};

/// \brief An executable stage DAG over a partitioned database.
class StagePlan {
 public:
  /// \brief `opts.mode` and `opts.morsel_rows` are the engine RunSerial
  /// runs stage tasks on; the rest of `opts` is not kept.
  explicit StagePlan(std::string name, const ExecOptions& opts = {})
      : name_(std::move(name)),
        vectorized_(opts.mode == ExecMode::kVectorized),
        morsel_rows_(opts.morsel_rows) {}

  const std::string& name() const { return name_; }

  int AddStage(Stage stage);
  int num_stages() const { return static_cast<int>(stages_.size()); }
  const Stage& stage(int i) const { return stages_[static_cast<size_t>(i)]; }

  /// \brief Structural checks (inputs reference earlier stages, runnables
  /// set, at least one stage).
  Status Validate() const;

  /// \brief The producer tasks whose outputs task (stage, slot) reads,
  /// given `num_partitions` partitions, as (producer stage, producer slot)
  /// pairs: global producers contribute slot 0, broadcast/shuffle edges
  /// (and any edge into a global consumer) every partition, and
  /// same-partition edges the consumer's own slot. This is the dependency
  /// relation the FaultTolerantExecutor schedules (and recovers) by.
  std::vector<std::pair<int, int>> TaskInputs(int stage, int slot,
                                              int num_partitions) const;

  /// \brief The tables task (stage, slot) reads, one per input edge, the
  /// way Stage::run expects them: a global producer's slot-0 output;
  /// every partition concatenated for broadcast edges and global
  /// consumers; the consumer's hash slice of every partition for shuffle
  /// edges; else the producer's `slot` output. `output(s, q)` returns
  /// producer s's slot-q output (every TaskInputs pair must be present).
  /// Concatenations and slices are built in `scratch`, which must outlive
  /// the returned pointers.
  std::vector<const exec::Table*> ResolveInputs(
      int stage, int slot, int num_partitions,
      const std::function<const exec::Table&(int stage, int slot)>& output,
      std::vector<exec::Table>* scratch) const;

  /// \brief The plan runner for stage tasks that run inside another pool's
  /// tasks (the FT executor's): the builder's engine and morsel size, with
  /// serial morsels (ParallelForEach is not reentrant).
  Result<exec::Table> RunSerial(const exec::VecNodePtr& plan) const;

  /// \brief A cost-less plan::Plan mirror of the stage structure, used to
  /// build MaterializationConfigs for execution (stage index == operator
  /// id). Global stages are bound kAlwaysMaterialize: they run on the
  /// coordinator and their (typically tiny) outputs are always kept.
  plan::Plan ToPlanSkeleton() const;

 private:
  std::string name_;
  bool vectorized_;
  size_t morsel_rows_;
  std::vector<Stage> stages_;
};

/// \brief Rows of `tables`, concatenated in order under the schema of the
/// first table that has columns. With `key_column` >= 0 only the rows whose
/// key hashes to `partition` of `num_partitions` are kept: a shuffle
/// edge's slice, or a replicated table's share (emulating RREF partial
/// replication).
exec::Table GatherRows(const std::vector<const exec::Table*>& tables,
                       int key_column = -1, int partition = 0,
                       int num_partitions = 1);

/// \brief The benchmark queries as stage plans — the only definition of
/// each. The database must outlive the returned plan. `opts.mode` and
/// `opts.morsel_rows` are kept for RunSerial (the FT executor's engine);
/// QueryRunner runs the tasks on its own plan runner instead.
///
/// Q1: scan+filter LINEITEM, aggregate by (returnflag, linestatus).
StagePlan MakeQ1StagePlan(const PartitionedDatabase& db,
                          ExecOptions opts = {});
/// \brief Q3: customer-segment orders joined with lineitems; top-10
/// revenue per order.
StagePlan MakeQ3StagePlan(const PartitionedDatabase& db,
                          ExecOptions opts = {});
/// \brief Q5: revenue per nation for one region and one order year
/// (Fig. 9's plan shape, with the customer side broadcast before Join3).
StagePlan MakeQ5StagePlan(const PartitionedDatabase& db,
                          ExecOptions opts = {});
/// \brief Q1C (paper §5.2): nested Q1 — the inner aggregation computes
/// per-group average prices, the outer query re-joins LINEITEM and counts
/// the items priced above their group's average. The plan has an
/// aggregation in the middle (the natural cheap checkpoint).
StagePlan MakeQ1CStagePlan(const PartitionedDatabase& db,
                           ExecOptions opts = {});
/// \brief Q2C (paper §5.2): DAG-structured variant of Q2 — the inner
/// min-supplycost-per-part aggregation is a CTE consumed by two outer
/// queries with different part filters. The result is both outer top-100
/// lists concatenated (outer 1 first).
StagePlan MakeQ2CStagePlan(const PartitionedDatabase& db,
                           ExecOptions opts = {});

/// \brief Revenue per customer (top 10): joins LINEITEM with ORDERS
/// (co-partitioned), then hash-repartitions on custkey (an EdgeMode::
/// kShuffle edge) before aggregating — the shuffle demo plan.
StagePlan MakeCustomerRevenueStagePlan(const PartitionedDatabase& db,
                                       ExecOptions opts = {});

/// \brief Pipelined query shape: a LINEITEM scan feeding a chain of
/// `depth` same-partition filter stages, closed by a global aggregate.
/// Every chain stage's output is bulky relative to its compute — the
/// regime write-ahead lineage targets (a failure without WAL recomputes
/// the whole chain below the last materialization point; with WAL the
/// chain is replayed from the lineage log).
StagePlan MakeFilterChainStagePlan(const PartitionedDatabase& db, int depth,
                                   ExecOptions opts = {});

}  // namespace xdbft::engine
