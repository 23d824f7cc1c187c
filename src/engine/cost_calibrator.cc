#include "engine/cost_calibrator.h"

namespace xdbft::engine {

Result<plan::Plan> BuildCalibratedPlan(const QueryExecution& execution,
                                       const cost::StorageMedium& medium,
                                       const std::string& name) {
  if (execution.stages.empty()) {
    return Status::InvalidArgument("execution has no stages");
  }
  plan::Plan plan(name);
  for (const auto& stage : execution.stages) {
    plan::PlanNode node;
    node.type = stage.type;
    node.label = stage.label;
    node.inputs.assign(stage.inputs.begin(), stage.inputs.end());
    node.runtime_cost = stage.seconds;
    node.materialize_cost = medium.WriteSeconds(
        static_cast<double>(stage.output_rows), stage.row_width_bytes);
    node.output_rows = static_cast<double>(stage.output_rows);
    node.row_width_bytes = stage.row_width_bytes;
    plan.AddNode(std::move(node));
  }
  XDBFT_RETURN_NOT_OK(plan.Validate());
  return plan;
}

void RecostMaterialization(plan::Plan* plan,
                           const cost::StorageMedium& medium) {
  if (plan == nullptr) return;
  for (const auto& n : plan->nodes()) {
    auto& node = plan->mutable_node(n.id);
    node.materialize_cost =
        medium.WriteSeconds(node.output_rows, node.row_width_bytes);
  }
}

plan::Plan ScaleCalibratedPlan(const plan::Plan& plan,
                               double runtime_factor,
                               double materialization_factor) {
  plan::Plan out = plan;
  for (const auto& n : out.nodes()) {
    auto& node = out.mutable_node(n.id);
    node.runtime_cost *= runtime_factor;
    node.materialize_cost *= materialization_factor;
    node.output_rows *= runtime_factor;
  }
  return out;
}

}  // namespace xdbft::engine
