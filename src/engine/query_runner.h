// Failure-free execution of stage plans over a partitioned database
// (PartitionedDatabase): QueryRunner runs a StagePlan (stage_plan.h — the one
// definition of each benchmark query) stage by stage; each stage runs on
// every partition and materializes its output, exactly the granularity at
// which the paper's XDB middleware splits plans for fault-tolerant
// execution. Per-stage wall-clock timings feed the cost calibrator (the
// paper's "perfect cost estimates", §5.1).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/task_pool.h"
#include "engine/exec_mode.h"
#include "engine/partitioned_table.h"
#include "engine/stage_plan.h"
#include "obs/query_profile.h"

namespace xdbft::engine {

/// \brief Measured statistics of one executed stage.
struct StageTiming {
  std::string label;
  /// Operator type of the stage (Stage::type).
  plan::OpType type = plan::OpType::kMapUdf;
  /// Producer stages (Stage::inputs' stage indices, each listed once, in
  /// edge order): the edges of the calibrated plan.
  std::vector<int> inputs;
  /// Wall-clock seconds for the slowest partition of this stage.
  double seconds = 0.0;
  /// Rows produced across all partitions.
  size_t output_rows = 0;
  /// Estimated bytes per output row (for materialization costing).
  double row_width_bytes = 0.0;
};

/// \brief Result of running one query.
struct QueryExecution {
  exec::Table result;
  std::vector<StageTiming> stages;
  double total_seconds = 0.0;
  /// One merged EXPLAIN ANALYZE tree per stage, labeled with the stage
  /// label. Filled only with ExecOptions::profile set.
  std::vector<obs::QueryProfile> stage_profiles;
};

/// \brief Runs stage plans failure-free over the distributed database:
/// stages in order, a stage's partitions one after another, each plan on
/// the morsel-driven pipeline engine with `num_threads` workers
/// (bit-identical results at any thread count). With profiling on, run
/// one query at a time per runner: the profile buffer is the runner's.
class QueryRunner {
 public:
  explicit QueryRunner(const PartitionedDatabase* db, ExecOptions opts = {});

  /// \brief The benchmark queries, each its Make<Q>StagePlan (stage_plan.h)
  /// run stage by stage; the result is the last stage's output.
  Result<QueryExecution> RunQ1() const;
  Result<QueryExecution> RunQ3() const;
  Result<QueryExecution> RunQ5() const;
  Result<QueryExecution> RunQ1C() const;
  Result<QueryExecution> RunQ2C() const;

 private:
  /// \brief Build the stage plan with `make` and run it failure-free,
  /// stages in order, recording one StageTiming and (with profiling on)
  /// one merged profile per stage.
  Result<QueryExecution> RunStagePlan(
      StagePlan (*make)(const PartitionedDatabase&, ExecOptions)) const;

  /// \brief The runner's plan runner: executes one plan as morsel
  /// pipelines on pool_. With profiling on, appends the plan's profile to
  /// pending_profiles_.
  Result<exec::Table> RunNode(const exec::VecNodePtr& plan) const;

  /// \brief Merge every pending per-partition profile of the stage that
  /// just finished into one labeled QueryProfile on `out`. No-op unless
  /// profiling is on.
  void FlushStageProfiles(const std::string& label,
                          QueryExecution* out) const;

  const PartitionedDatabase* db_;
  ExecOptions opts_;
  /// Morsel pool shared by every pipeline of this runner (created only
  /// with num_threads > 1).
  std::unique_ptr<TaskPool> pool_;
  /// Profiles of plans run since the last flush.
  mutable std::vector<obs::QueryProfile> pending_profiles_;
};

}  // namespace xdbft::engine
