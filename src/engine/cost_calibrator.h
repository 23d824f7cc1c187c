// Cost calibration: turns measured stage timings of a real query execution
// into a DAG plan with per-operator tr(o)/tm(o) statistics — the paper's
// getCostStats pipeline ("we executed all queries in XDB without injecting
// failures and measured tr(o) and tm(o) for each operator", §5.1). The
// calibrated plan feeds directly into the cost-based fault-tolerance
// scheme.
#pragma once

#include <string>

#include "common/result.h"
#include "cost/storage_model.h"
#include "engine/query_runner.h"
#include "plan/plan.h"

namespace xdbft::engine {

/// \brief Build a chain-shaped execution plan from the measured stages of
/// `execution`: each node's type is its stage's Stage::type, tr(o) the
/// slowest partition's wall time of the stage, tm(o) the cost of writing
/// its output to `medium`. Every stage except the last is a free
/// operator; the last is the sink.
Result<plan::Plan> BuildCalibratedPlan(const QueryExecution& execution,
                                       const cost::StorageMedium& medium,
                                       const std::string& name);

/// \brief Scale a calibrated plan's runtime and materialization costs by
/// `runtime_factor` (e.g. to extrapolate from a locally-run small scale
/// factor to the target deployment scale, as runtimes scale linearly in
/// SF for these queries).
plan::Plan ScaleCalibratedPlan(const plan::Plan& plan,
                               double runtime_factor,
                               double materialization_factor);

/// \brief Recompute every operator's tm(o) from its (possibly scaled)
/// output cardinality and row width against `medium`. Use after
/// ScaleCalibratedPlan so the storage latency term is not multiplied.
void RecostMaterialization(plan::Plan* plan,
                           const cost::StorageMedium& medium);

}  // namespace xdbft::engine
