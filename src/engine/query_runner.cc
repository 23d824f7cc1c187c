#include "engine/query_runner.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>

namespace xdbft::engine {

using exec::Table;

namespace {

// Run `work(p)` for every partition, filling outputs[p]; returns the
// slowest task's wall time. Row mode runs partitions concurrently on a
// work-stealing pool bounded by the hardware. Vectorized mode runs
// partitions sequentially — parallelism lives inside each plan's morsel
// pipelines instead, and nesting the two would double-subscribe cores.
Result<double> RunStagePartitions(
    const ExecOptions& opts, int num_partitions,
    const std::function<Result<Table>(int)>& work,
    std::vector<Table>* outputs) {
  outputs->assign(static_cast<size_t>(num_partitions), Table{});
  std::vector<Status> statuses(static_cast<size_t>(num_partitions));
  std::vector<double> times(static_cast<size_t>(num_partitions), 0.0);

  const auto run_one = [&](int p) {
    const auto start = std::chrono::steady_clock::now();
    Result<Table> r = work(p);
    const auto end = std::chrono::steady_clock::now();
    times[static_cast<size_t>(p)] =
        std::chrono::duration<double>(end - start).count();
    if (r.ok()) {
      (*outputs)[static_cast<size_t>(p)] = std::move(*r);
    } else {
      statuses[static_cast<size_t>(p)] = r.status();
    }
  };

  if (opts.mode == ExecMode::kVectorized) {
    // Sequential partitions; each plan parallelizes its own morsels.
    for (int p = 0; p < num_partitions; ++p) run_one(p);
  } else {
    const unsigned hc = std::thread::hardware_concurrency();
    const int workers =
        std::min(num_partitions, hc == 0 ? 1 : static_cast<int>(hc));
    // The calling thread helps drain the queue, so one pool worker fewer.
    TaskPool pool(workers > 1 ? workers - 1 : 0);
    pool.ParallelForEach(
        static_cast<size_t>(num_partitions),
        [&](size_t i) { run_one(static_cast<int>(i)); });
  }

  double slowest = 0.0;
  for (int p = 0; p < num_partitions; ++p) {
    XDBFT_RETURN_NOT_OK(statuses[static_cast<size_t>(p)]);
    slowest = std::max(slowest, times[static_cast<size_t>(p)]);
  }
  return slowest;
}

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
  if (opts_.mode == ExecMode::kVectorized && opts_.num_threads > 1) {
    // num_threads - 1 workers: the pipeline's calling thread helps.
    pool_ = std::make_unique<TaskPool>(opts_.num_threads - 1);
  }
}

Result<Table> QueryRunner::RunNode(const exec::VecNodePtr& plan) const {
  const bool vectorized = opts_.mode == ExecMode::kVectorized;
  exec::VecExecOptions vopts;
  vopts.num_threads = opts_.num_threads;
  vopts.morsel_rows = opts_.morsel_rows;
  vopts.pool = pool_.get();
  vopts.trace = opts_.trace;
  vopts.trace_lane_base = opts_.trace_lane_base;
  if (!opts_.profile) return exec::RunPlan(plan, vectorized, vopts);

  obs::QueryProfile qp;
  qp.engine = vectorized ? "vectorized" : "row";
  const auto start = std::chrono::steady_clock::now();
  Result<Table> result = Table{};
  if (vectorized) {
    vopts.profile = &qp.root;
    result = exec::ExecuteVectorized(plan, vopts);
  } else {
    const exec::OperatorPtr op = exec::ToOperatorProfiled(plan, &qp.root);
    result = exec::Drain(op.get());
  }
  qp.seconds = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  {
    const std::lock_guard<std::mutex> lock(profile_mu_);
    pending_profiles_.push_back(std::move(qp));
  }
  return result;
}

void QueryRunner::FlushStageProfiles(const std::string& label,
                                     QueryExecution* out) const {
  if (!opts_.profile) return;
  std::vector<obs::QueryProfile> batch;
  {
    const std::lock_guard<std::mutex> lock(profile_mu_);
    batch.swap(pending_profiles_);
  }
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
    XDBFT_ASSIGN_OR_RETURN(
        const double secs,
        RunStagePartitions(
            opts_, stage.global ? 1 : n,
            [&](int slot) -> Result<Table> {
              std::vector<Table> scratch;
              const std::vector<const Table*> inputs =
                  plan.ResolveInputs(s, slot, n, output, &scratch);
              return stage.run(stage.global ? -1 : slot, inputs, run_plan);
            },
            &stage_out));
    StageTiming st;
    st.label = stage.label;
    st.type = stage.type;
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
