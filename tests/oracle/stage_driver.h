// Test-only oracle stage driver: runs a StagePlan failure-free, stage by
// stage and partition by partition (ResolveInputs -> Stage::run ->
// GatherRows), by default with the Volcano operators (oracle/operators.h)
// as the plan runner. It shares no execution code with QueryRunner or the
// FT executor, so tests compare both against it.
#pragma once

#include "common/result.h"
#include "engine/stage_plan.h"
#include "exec/batch.h"
#include "exec/pipeline.h"

namespace xdbft::oracle {

/// \brief Drain(ToOperator(plan)): the plan on the Volcano operators.
Result<exec::Table> RunVolcano(const exec::VecNodePtr& plan);

/// \brief Every task of `plan` over `num_partitions` partitions, stages in
/// order, each task's plans executed by `run_plan`; returns the last
/// stage's partitions concatenated.
Result<exec::Table> RunStagePlan(
    const engine::StagePlan& plan, int num_partitions,
    const engine::PlanRunner& run_plan = RunVolcano);

}  // namespace xdbft::oracle
