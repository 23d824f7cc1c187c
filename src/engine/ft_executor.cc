#include "engine/ft_executor.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/postmortem.h"

namespace xdbft::engine {

using exec::Table;

namespace {

// In-memory size estimate of a table (cells are variant values; string
// payloads are not walked — this feeds relative materialized-vs-recomputed
// accounting, not an allocator budget).
uint64_t ApproxTableBytes(const Table& t) {
  return static_cast<uint64_t>(t.num_rows()) *
         static_cast<uint64_t>(t.schema.num_columns()) * sizeof(exec::Value);
}

// Completed output of one (stage, slot) task, with the accounting the
// coordinator needs when a failure later destroys it.
struct SlotState {
  std::optional<Table> output;
  // Durable lineage-log copy of `output` (write-ahead lineage only).
  // Survives node failures; a failure restores `output` from here
  // instead of recomputing it.
  std::optional<Table> logged;
  double seconds = 0.0;  // wall time of the attempt that produced `output`
  size_t rows = 0;
  uint64_t bytes = 0;
  int attempts = 0;
};

// One task attempt of the current wave. Built by the coordinator in
// ascending (stage, slot) order; filled in by the executing thread.
struct WaveTask {
  int stage = 0;
  int slot = 0;
  int attempt = 0;
  bool killed = false;
  Status status;
  std::optional<Table> table;
  double seconds = 0.0;
  // Index of this attempt's record in FtExecutionResult::timeline.
  int record_idx = -1;
};

}  // namespace

int FaultTolerantExecutor::ResolveThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

Result<FtExecutionResult> FaultTolerantExecutor::Execute(
    const ft::MaterializationConfig& config, StageFailureInjector* injector,
    int max_attempts) const {
  if (plan_ == nullptr || db_ == nullptr) {
    return Status::InvalidArgument("null plan or database");
  }
  XDBFT_RETURN_NOT_OK(plan_->Validate());
  XDBFT_RETURN_NOT_OK(config.Validate(plan_->ToPlanSkeleton()));
  const int n = db_->num_nodes;
  const int num_stages = plan_->num_stages();

  TaskPool* pool = external_pool_;
  std::unique_ptr<TaskPool> local_pool;
  if (pool == nullptr) {
    const int threads = ResolveThreads(num_threads_);
    // One worker is pointless (the coordinator would idle); run inline.
    local_pool = std::make_unique<TaskPool>(threads <= 1 ? 0 : threads);
    pool = local_pool.get();
  }

  // state[s] has one slot per partition (one slot for global stages).
  std::vector<std::vector<SlotState>> state(static_cast<size_t>(num_stages));
  auto slots_of = [&](int s) {
    return plan_->stage(s).global ? size_t{1} : static_cast<size_t>(n);
  };
  for (int s = 0; s < num_stages; ++s) {
    state[static_cast<size_t>(s)].resize(slots_of(s));
  }

  FtExecutionResult result;
  result.stage_seconds.assign(static_cast<size_t>(num_stages), 0.0);
  // Trace lanes: tid = pool worker executing the task; the coordinator
  // (global stages, inline helping, killed-attempt markers) on the lane
  // after the workers.
  const int coordinator_tid = pool->num_threads();
  if (trace_ != nullptr) {
    trace_->SetProcessName(0, "ft_executor: " + plan_->name());
    obs::NameWorkerLanes(trace_, 0, pool->num_threads());
  }

  const auto start = std::chrono::steady_clock::now();
  const int last = num_stages - 1;
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  // last_record[s][slot]: timeline index of the attempt that produced the
  // currently held output of (s, slot), for rows_lost backfill when a
  // failure later invalidates it. -1 = none.
  std::vector<std::vector<int>> last_record(static_cast<size_t>(num_stages));
  for (int s = 0; s < num_stages; ++s) {
    last_record[static_cast<size_t>(s)].assign(slots_of(s), -1);
  }

  const auto output = [&state](int s, int slot) -> const Table& {
    return *state[static_cast<size_t>(s)][static_cast<size_t>(slot)].output;
  };
  const PlanRunner run_plan = [this](const exec::VecNodePtr& node) {
    return plan_->RunSerial(node);
  };
  // Runs one attempt: resolves inputs per edge mode from the current
  // state (read-only during a wave), executes the stage on the plan's
  // serial plan runner, records the span on the executing worker's lane.
  // Accounting is applied later by the coordinator, in deterministic
  // order, at the wave barrier.
  auto run_attempt = [&](WaveTask& t) {
    const Stage& stage = plan_->stage(t.stage);
    std::vector<Table> scratch;
    const std::vector<const Table*> input_ptrs =
        plan_->ResolveInputs(t.stage, t.slot, n, output, &scratch);

    const double span_start_us =
        trace_ != nullptr ? trace_->NowMicros() : 0.0;
    const auto task_start = std::chrono::steady_clock::now();
    Result<Table> out =
        stage.run(stage.global ? -1 : t.slot, input_ptrs, run_plan);
    t.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - task_start)
                    .count();
    if (!out.ok()) {
      t.status = out.status();
      return;
    }
    if (trace_ != nullptr) {
      const int worker = pool->CurrentWorkerId();
      trace_->AddComplete(
          stage.label, t.attempt > 0 ? "recovery" : "task", span_start_us,
          trace_->NowMicros() - span_start_us, 0,
          worker >= 0 ? worker : coordinator_tid,
          {obs::IntArg("stage", t.stage),
           obs::IntArg("partition", stage.global ? -1 : t.slot),
           obs::IntArg("attempt", t.attempt),
           obs::IntArg("rows", static_cast<int64_t>(out->num_rows()))});
    }
    t.table = std::move(*out);
  };

  // Wave loop. Each iteration: (1) demand closure of missing outputs from
  // the final stage, (2) the ready frontier (missing output, all inputs
  // present) in ascending (stage, slot) order, (3) coordinator-side
  // injection decisions, (4) parallel execution of surviving partition
  // tasks + coordinator execution of global tasks, (5) deterministic
  // completion accounting, then (6) failure invalidation at the barrier.
  // Iterative by construction: recovery depth never touches the C++
  // stack, however adversarial the injector.
  while (true) {
    // (1) Demand closure: a task is required iff its output is missing
    // and it is the final stage or feeds a required task.
    std::vector<std::vector<char>> required(
        static_cast<size_t>(num_stages));
    for (int s = 0; s < num_stages; ++s) {
      required[static_cast<size_t>(s)].assign(slots_of(s), 0);
    }
    std::vector<std::pair<int, int>> frontier;
    auto demand = [&](int s, int slot) {
      if (state[static_cast<size_t>(s)][static_cast<size_t>(slot)]
              .output.has_value()) {
        return;
      }
      char& mark =
          required[static_cast<size_t>(s)][static_cast<size_t>(slot)];
      if (mark) return;
      mark = 1;
      frontier.emplace_back(s, slot);
    };
    for (size_t slot = 0; slot < slots_of(last); ++slot) {
      demand(last, static_cast<int>(slot));
    }
    size_t scan = 0;
    while (scan < frontier.size()) {
      const auto [s, slot] = frontier[scan++];
      for (const auto& [ps, pslot] : plan_->TaskInputs(s, slot, n)) {
        demand(ps, pslot);
      }
    }
    if (frontier.empty()) break;  // every final output present

    // (2) Ready frontier in ascending (stage, slot) order.
    std::vector<WaveTask> wave;
    for (int s = 0; s < num_stages; ++s) {
      for (size_t slot = 0; slot < slots_of(s); ++slot) {
        if (!required[static_cast<size_t>(s)][slot]) continue;
        bool runnable = true;
        for (const auto& [ps, pslot] :
             plan_->TaskInputs(s, static_cast<int>(slot), n)) {
          if (!state[static_cast<size_t>(ps)][static_cast<size_t>(pslot)]
                   .output.has_value()) {
            runnable = false;
            break;
          }
        }
        if (!runnable) continue;
        WaveTask t;
        t.stage = s;
        t.slot = static_cast<int>(slot);
        wave.push_back(t);
      }
    }
    // A DAG always has a minimal missing element with all inputs present.
    if (wave.empty()) {
      return Status::Internal("executor wave deadlock: no runnable task");
    }

    // (3) Attempt charging + injection, coordinator-side, in order.
    for (WaveTask& t : wave) {
      SlotState& slot_state =
          state[static_cast<size_t>(t.stage)][static_cast<size_t>(t.slot)];
      if (slot_state.attempts >= max_attempts) {
        const std::string reason =
            StrFormat("stage %d partition %d exceeded %d attempts", t.stage,
                      t.slot, max_attempts);
        XDBFT_FLIGHT("executor", "abort: attempts exhausted", t.stage,
                     t.slot);
        std::string suffix;
        if (!postmortem_dir_.empty()) {
          obs::PostMortem pm;
          pm.tool = "ft_executor";
          pm.reason = reason;
          pm.params["plan"] = plan_->name();
          pm.params["stage"] = StrFormat("%d", t.stage);
          pm.params["partition"] = StrFormat("%d", t.slot);
          pm.params["max_attempts"] = StrFormat("%d", max_attempts);
          obs::CaptureProcessState(&pm);
          pm.timeline = result.timeline;
          Result<std::string> path =
              obs::WritePostMortem(postmortem_dir_, pm);
          if (path.ok()) suffix = " (post-mortem: " + *path + ")";
        }
        return Status::Aborted(reason + suffix);
      }
      t.attempt = slot_state.attempts++;
      const Stage& stage = plan_->stage(t.stage);
      const int injector_partition = stage.global ? -1 : t.slot;
      // A killed attempt is charged as a dispatch but does no work: the
      // failure strikes before the operator starts (see the accounting
      // contract in ft_executor.h). The work failures waste is what
      // invalidation destroys, charged to *_lost in step (6).
      ++result.task_executions;
      XDBFT_COUNTER_INC("executor.task_attempts");
      if (injector != nullptr &&
          injector->InjectFailure(t.stage, injector_partition, t.attempt)) {
        t.killed = true;
        ++result.failures_injected;
        XDBFT_COUNTER_INC("executor.failures_injected");
        XDBFT_FLIGHT("executor", "failure injected", t.stage,
                     injector_partition);
      }
      obs::AttemptRecord rec;
      rec.label = stage.label;
      rec.stage = t.stage;
      rec.node = injector_partition;
      rec.attempt = t.attempt;
      rec.dispatch_seconds = elapsed();
      rec.killed = t.killed;
      // A killed attempt dies at dispatch; successes get their real finish
      // time in step (5).
      rec.finish_seconds = rec.dispatch_seconds;
      t.record_idx = static_cast<int>(result.timeline.records.size());
      result.timeline.records.push_back(std::move(rec));
    }

    // (4) Execute survivors: partition tasks fan out onto the pool (the
    // coordinator helps drain while it waits); global tasks then run on
    // the coordinator lane.
    std::vector<size_t> parallel_idx;
    std::vector<size_t> global_idx;
    for (size_t i = 0; i < wave.size(); ++i) {
      if (wave[i].killed) continue;
      (plan_->stage(wave[i].stage).global ? global_idx : parallel_idx)
          .push_back(i);
    }
    pool->ParallelForEach(parallel_idx.size(), [&](size_t k) {
      run_attempt(wave[parallel_idx[k]]);
    });
    for (size_t i : global_idx) run_attempt(wave[i]);

    // (5) Completion accounting in ascending (stage, slot) order, so
    // float accumulation and counters are reproducible.
    for (WaveTask& t : wave) {
      if (t.killed) continue;
      XDBFT_RETURN_NOT_OK(t.status);
      const Stage& stage = plan_->stage(t.stage);
      result.stage_seconds[static_cast<size_t>(t.stage)] += t.seconds;
      XDBFT_HISTOGRAM_OBSERVE("executor.task_seconds", t.seconds);
      const size_t rows = t.table->num_rows();
      const uint64_t bytes = ApproxTableBytes(*t.table);
      // An attempt beyond a task's first is recovery work a failure-free
      // run would not have done.
      if (stage.global ||
          config.materialized(static_cast<plan::OpId>(t.stage))) {
        result.rows_materialized += rows;
        result.bytes_materialized += bytes;
        XDBFT_COUNTER_ADD("executor.rows_materialized", rows);
        XDBFT_COUNTER_ADD("executor.bytes_materialized", bytes);
      }
      if (t.attempt > 0) {
        result.rows_recomputed += rows;
        result.bytes_recomputed += bytes;
        XDBFT_COUNTER_ADD("executor.rows_recomputed", rows);
        XDBFT_COUNTER_ADD("executor.bytes_recomputed", bytes);
      }
      SlotState& slot_state =
          state[static_cast<size_t>(t.stage)][static_cast<size_t>(t.slot)];
      slot_state.output = std::move(t.table);
      slot_state.seconds = t.seconds;
      slot_state.rows = rows;
      slot_state.bytes = bytes;
      // Write-ahead lineage: append the completed output to the durable
      // log before failures can strike it. The write cost is charged
      // unconditionally — that is the scheme's up-front overhead.
      if (wal_ && !stage.global &&
          !config.materialized(static_cast<plan::OpId>(t.stage))) {
        slot_state.logged = *slot_state.output;
        result.rows_logged += rows;
        result.bytes_logged += bytes;
        XDBFT_COUNTER_ADD("executor.rows_logged", rows);
        XDBFT_COUNTER_ADD("executor.bytes_logged", bytes);
      }
      obs::AttemptRecord& rec =
          result.timeline.records[static_cast<size_t>(t.record_idx)];
      rec.finish_seconds = elapsed();
      rec.rows_out = rows;
      last_record[static_cast<size_t>(t.stage)][static_cast<size_t>(t.slot)] =
          t.record_idx;
    }

    // (6) Failures take effect at the wave barrier: node `slot` died, so
    // every non-materialized output it holds — including any produced in
    // this wave — is lost; materialized outputs live on fault-tolerant
    // storage and survive (§2.2). Global (coordinator) failures lose
    // nothing. Processed in (stage, slot) order for determinism; the
    // demand closure of the next wave re-schedules whatever is still
    // needed.
    for (const WaveTask& t : wave) {
      if (!t.killed) continue;
      const Stage& stage = plan_->stage(t.stage);
      if (trace_ != nullptr) {
        trace_->AddInstant(
            "failure", "failure", trace_->NowMicros(), 0, coordinator_tid,
            {obs::IntArg("stage", t.stage),
             obs::IntArg("partition", stage.global ? -1 : t.slot),
             obs::IntArg("attempt", t.attempt)});
      }
      if (stage.global) continue;
      for (int s2 = 0; s2 < num_stages; ++s2) {
        if (plan_->stage(s2).global) continue;
        if (config.materialized(static_cast<plan::OpId>(s2))) continue;
        SlotState& lost =
            state[static_cast<size_t>(s2)][static_cast<size_t>(t.slot)];
        if (!lost.output.has_value()) continue;
        if (wal_ && lost.logged.has_value()) {
          // The node's memory died, but the lineage log is on durable
          // storage (§2.2 applied to the log): replay it into the
          // replacement node instead of recomputing from ancestors.
          lost.output = *lost.logged;
          ++result.replay_executions;
          result.rows_replayed += lost.rows;
          result.bytes_replayed += lost.bytes;
          XDBFT_COUNTER_INC("executor.replays");
          XDBFT_COUNTER_ADD("executor.rows_replayed", lost.rows);
          if (trace_ != nullptr) {
            trace_->AddInstant(
                "replay", "recovery", trace_->NowMicros(), 0,
                coordinator_tid,
                {obs::IntArg("stage", s2), obs::IntArg("partition", t.slot),
                 obs::IntArg("rows",
                             static_cast<int64_t>(lost.rows))});
          }
          continue;
        }
        result.rows_lost += lost.rows;
        result.bytes_lost += lost.bytes;
        result.seconds_lost += lost.seconds;
        XDBFT_COUNTER_ADD("executor.rows_lost", lost.rows);
        XDBFT_COUNTER_ADD("executor.bytes_lost", lost.bytes);
        const int rec_idx =
            last_record[static_cast<size_t>(s2)][static_cast<size_t>(t.slot)];
        if (rec_idx >= 0) {
          result.timeline.records[static_cast<size_t>(rec_idx)].rows_lost +=
              lost.rows;
        }
        lost.output.reset();
      }
    }
  }

  std::vector<const Table*> finals;
  for (size_t slot = 0; slot < slots_of(last); ++slot) {
    finals.push_back(&output(last, static_cast<int>(slot)));
  }
  result.result = finals.size() == 1 ? *finals[0] : GatherRows(finals);
  const auto end = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(end - start).count();

  // Failure-free minimum: the demand closure over an empty state — a task
  // counts iff it is a final-stage task or transitively feeds one. Stages
  // the final stage never consumes are not executed (step 1), so counting
  // them here would deflate (even negate) the recovery tally.
  int minimal = 0;
  {
    std::vector<std::vector<char>> needed(static_cast<size_t>(num_stages));
    for (int s = 0; s < num_stages; ++s) {
      needed[static_cast<size_t>(s)].assign(slots_of(s), 0);
    }
    std::vector<std::pair<int, int>> work;
    auto need = [&](int s, int slot) {
      char& mark = needed[static_cast<size_t>(s)][static_cast<size_t>(slot)];
      if (mark) return;
      mark = 1;
      work.emplace_back(s, slot);
    };
    for (size_t slot = 0; slot < slots_of(last); ++slot) {
      need(last, static_cast<int>(slot));
    }
    size_t scan = 0;
    while (scan < work.size()) {
      const auto [s, slot] = work[scan++];
      for (const auto& [ps, pslot] : plan_->TaskInputs(s, slot, n)) {
        need(ps, pslot);
      }
    }
    minimal = static_cast<int>(work.size());
  }
  result.recovery_executions = result.task_executions - minimal;
  XDBFT_COUNTER_ADD("executor.recoveries", result.recovery_executions);
  XDBFT_COUNTER_INC("executor.runs");
  XDBFT_GAUGE_SET("executor.last_run_seconds", result.wall_seconds);
  return result;
}

}  // namespace xdbft::engine
