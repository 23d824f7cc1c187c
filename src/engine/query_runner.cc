#include "engine/query_runner.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace xdbft::engine {

using exec::Table;

namespace {

// Rough bytes/row of a table (for materialization costing).
double EstimateRowWidth(const Table& t) {
  if (t.rows.empty()) {
    return 16.0 * static_cast<double>(t.schema.num_columns());
  }
  double bytes = 0.0;
  for (const auto& v : t.rows[0]) {
    bytes += v.type() == exec::ValueType::kString
                 ? 16.0 + static_cast<double>(v.AsString().size())
                 : 8.0;
  }
  return bytes;
}

}  // namespace

QueryRunner::QueryRunner(const PartitionedDatabase* db, ExecOptions opts)
    : db_(db), opts_(opts) {
  if (opts_.num_threads > 1) {
    // num_threads - 1 workers: the pipeline's calling thread helps.
    pool_ = std::make_unique<TaskPool>(opts_.num_threads - 1);
  }
}

Result<Table> QueryRunner::RunNode(const exec::VecNodePtr& plan) const {
  exec::VecExecOptions vopts;
  vopts.num_threads = opts_.num_threads;
  vopts.morsel_rows = opts_.morsel_rows;
  vopts.pool = pool_.get();
  vopts.trace = opts_.trace;
  vopts.trace_lane_base = opts_.trace_lane_base;
  if (!opts_.profile) return exec::ExecuteVectorized(plan, vopts);

  obs::QueryProfile qp;
  qp.engine = "vectorized";
  vopts.profile = &qp.root;
  const auto start = std::chrono::steady_clock::now();
  Result<Table> result = exec::ExecuteVectorized(plan, vopts);
  qp.seconds = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  pending_profiles_.push_back(std::move(qp));
  return result;
}

void QueryRunner::FlushStageProfiles(const std::string& label,
                                     QueryExecution* out) const {
  if (!opts_.profile) return;
  std::vector<obs::QueryProfile> batch;
  batch.swap(pending_profiles_);
  if (batch.empty()) return;
  obs::QueryProfile merged = std::move(batch[0]);
  for (size_t i = 1; i < batch.size(); ++i) {
    if (!merged.MergeFrom(batch[i]).ok()) {
      // A stage ran differently-shaped plans; keep the odd one out as its
      // own labeled profile rather than dropping it.
      batch[i].label = label;
      out->stage_profiles.push_back(std::move(batch[i]));
    }
  }
  merged.label = label;
  out->stage_profiles.push_back(std::move(merged));
}

Result<QueryExecution> QueryRunner::RunStagePlan(
    StagePlan (*make)(const PartitionedDatabase&, ExecOptions)) const {
  if (db_ == nullptr) return Status::InvalidArgument("null database");
  const StagePlan plan = make(*db_, opts_);
  const int n = db_->num_nodes;
  const PlanRunner run_plan = [this](const exec::VecNodePtr& node) {
    return RunNode(node);
  };
  // outputs[s]: one table per partition (one for global stages).
  std::vector<std::vector<Table>> outputs(
      static_cast<size_t>(plan.num_stages()));
  const auto output = [&outputs](int s, int slot) -> const Table& {
    return outputs[static_cast<size_t>(s)][static_cast<size_t>(slot)];
  };
  QueryExecution out;
  for (int s = 0; s < plan.num_stages(); ++s) {
    const Stage& stage = plan.stage(s);
    std::vector<Table>& stage_out = outputs[static_cast<size_t>(s)];
    // Partitions run one after another; each plan parallelizes its own
    // morsels on pool_. The stage is charged its slowest partition.
    double secs = 0.0;
    for (int slot = 0; slot < (stage.global ? 1 : n); ++slot) {
      const auto start = std::chrono::steady_clock::now();
      std::vector<Table> scratch;
      const std::vector<const Table*> inputs =
          plan.ResolveInputs(s, slot, n, output, &scratch);
      XDBFT_ASSIGN_OR_RETURN(
          Table t, stage.run(stage.global ? -1 : slot, inputs, run_plan));
      secs = std::max(secs, std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count());
      stage_out.push_back(std::move(t));
    }
    StageTiming st;
    st.label = stage.label;
    st.type = stage.type;
    for (const StageInput& in : stage.inputs) {
      if (std::find(st.inputs.begin(), st.inputs.end(), in.stage) ==
          st.inputs.end()) {
        st.inputs.push_back(in.stage);
      }
    }
    st.seconds = secs;
    for (const Table& t : stage_out) st.output_rows += t.num_rows();
    st.row_width_bytes = EstimateRowWidth(stage_out[0]);
    out.stages.push_back(std::move(st));
    out.total_seconds += secs;
    FlushStageProfiles(stage.label, &out);
  }
  std::vector<Table>& last = outputs.back();
  if (last.size() == 1) {
    out.result = std::move(last[0]);
  } else {
    std::vector<const Table*> parts;
    for (const Table& t : last) parts.push_back(&t);
    out.result = GatherRows(parts);
  }
  return out;
}

Result<QueryExecution> QueryRunner::RunQ1() const {
  return RunStagePlan(&MakeQ1StagePlan);
}
Result<QueryExecution> QueryRunner::RunQ3() const {
  return RunStagePlan(&MakeQ3StagePlan);
}
Result<QueryExecution> QueryRunner::RunQ5() const {
  return RunStagePlan(&MakeQ5StagePlan);
}
Result<QueryExecution> QueryRunner::RunQ1C() const {
  return RunStagePlan(&MakeQ1CStagePlan);
}
Result<QueryExecution> QueryRunner::RunQ2C() const {
  return RunStagePlan(&MakeQ2CStagePlan);
}

}  // namespace xdbft::engine
