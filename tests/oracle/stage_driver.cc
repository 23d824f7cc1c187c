#include "oracle/stage_driver.h"

#include <utility>
#include <vector>

#include "oracle/operators.h"

namespace xdbft::oracle {

using exec::Table;

Result<Table> RunVolcano(const exec::VecNodePtr& plan) {
  const exec::OperatorPtr op = exec::ToOperator(plan);
  return exec::Drain(op.get());
}

Result<Table> RunStagePlan(const engine::StagePlan& plan, int num_partitions,
                           const engine::PlanRunner& run_plan) {
  XDBFT_RETURN_NOT_OK(plan.Validate());
  std::vector<std::vector<Table>> outputs(
      static_cast<size_t>(plan.num_stages()));
  const auto output = [&outputs](int s, int slot) -> const Table& {
    return outputs[static_cast<size_t>(s)][static_cast<size_t>(slot)];
  };
  for (int s = 0; s < plan.num_stages(); ++s) {
    const engine::Stage& stage = plan.stage(s);
    for (int slot = 0; slot < (stage.global ? 1 : num_partitions); ++slot) {
      std::vector<Table> scratch;
      const std::vector<const Table*> inputs =
          plan.ResolveInputs(s, slot, num_partitions, output, &scratch);
      XDBFT_ASSIGN_OR_RETURN(
          Table t, stage.run(stage.global ? -1 : slot, inputs, run_plan));
      outputs[static_cast<size_t>(s)].push_back(std::move(t));
    }
  }
  std::vector<const Table*> last;
  for (const Table& t : outputs.back()) last.push_back(&t);
  return engine::GatherRows(last);
}

}  // namespace xdbft::oracle
