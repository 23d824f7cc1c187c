#include "cluster/simulator.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "common/string_util.h"
#include "ft/checkpointing.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace xdbft::cluster {

using ft::CollapsedPlan;
using ft::MaterializationConfig;
using ft::RecoveryMode;

std::string SimulationResult::ToString() const {
  if (aborted > 0) {
    return StrFormat(
        "SimulationResult(%s, runtime=%s, restarts=%d, aborted=%d)",
        completed ? "completed" : "ABORTED",
        HumanDuration(runtime).c_str(), restarts, aborted);
  }
  return StrFormat("SimulationResult(%s, runtime=%s, restarts=%d)",
                   completed ? "completed" : "ABORTED",
                   HumanDuration(runtime).c_str(), restarts);
}

namespace {

// Deterministic per-node skew factor in [-1, 1].
double NodeSkew(int node) {
  uint64_t state = 0xabcdef1234567890ULL + static_cast<uint64_t>(node);
  const uint64_t bits = SplitMix64(state);
  return static_cast<double>(bits >> 11) * 0x1.0p-53 * 2.0 - 1.0;
}

// Appends one attempt to the timeline (no-op for a null log). Virtual
// simulated seconds go straight into the record's timestamps.
void LogAttempt(obs::AttemptTimeline* log, const std::string& label,
                int node, int attempt, double dispatch, double finish,
                bool killed) {
  if (log == nullptr) return;
  obs::AttemptRecord rec;
  rec.label = label;
  rec.node = node;
  rec.attempt = attempt;
  rec.dispatch_seconds = dispatch;
  rec.finish_seconds = finish;
  rec.killed = killed;
  log->records.push_back(std::move(rec));
}

}  // namespace

// Simulated seconds map to trace microseconds 1:1000 (1 simulated second
// renders as 1 ms), keeping hour-long simulations navigable in the viewer.
constexpr double kTraceUsPerSimSecond = 1000.0;

void ClusterSimulator::TraceSpan(const std::string& name,
                                 const std::string& category, double start_s,
                                 double dur_s, int node_idx) const {
  if (options_.trace == nullptr) return;
  options_.trace->AddComplete(name, category,
                              start_s * kTraceUsPerSimSecond,
                              dur_s * kTraceUsPerSimSecond,
                              options_.trace_pid, node_idx);
}

template <typename FailureSource>
double ClusterSimulator::RunRetryUnit(double ready, double duration,
                                      double replay_factor,
                                      FailureSource& failures, int node,
                                      const UnitLabels& label, int* restarts,
                                      bool* aborted) const {
  const bool whole_query = node < 0;
  const int lane = whole_query ? 0 : node;
  double logged = 0.0;  // durable logged progress, in work seconds
  double start = ready;
  int attempt = 0;
  while (true) {
    // One attempt: replay the logged frontier, then run the fresh rest.
    // The span is written as duration - (1 - f)*logged rather than
    // f*logged + (duration - logged): algebraically identical, but at
    // f == 1 the subtrahend is exactly 0.0, so a recomputing unit's span
    // is `duration` to the bit.
    const double replay = replay_factor * logged;
    const double span = duration - (1.0 - replay_factor) * logged;
    const double fail = failures.NextFailureAfter(start);
    if (fail >= start + span) {
      if (whole_query) {
        TraceSpan(label.span, "query", start, span, lane);
      } else {
        TraceSpan(label.span, "subplan", start, span, lane);
        XDBFT_COUNTER_INC("simulator.subplan_runs");
      }
      LogAttempt(options_.attempt_log, label.ledger, node, attempt, start,
                 start + span, /*killed=*/false);
      return start + span;
    }
    // The failure kills the attempt. Work done past the replay phase was
    // logged before its results flowed on, so it survives; work lost
    // inside the replay phase costs nothing extra (the log is still there).
    const double elapsed = fail - start;
    if (elapsed > replay) logged += elapsed - replay;
    ++(*restarts);
    ++attempt;
    XDBFT_COUNTER_INC("simulator.failures");
    XDBFT_FLIGHT("simulator", "failure", node, attempt);
    if (options_.trace != nullptr) {
      TraceSpan(label.span + " (killed)", "killed", start, elapsed, lane);
      options_.trace->AddInstant("failure", "failure",
                                 fail * kTraceUsPerSimSecond,
                                 options_.trace_pid, lane);
    }
    LogAttempt(options_.attempt_log, label.ledger, node, attempt - 1, start,
               fail, /*killed=*/true);
    // The coordinator notices the failure at the next monitoring tick,
    // then redeploys (MTTR) and starts the unit over.
    double detected = fail;
    if (options_.monitoring_interval > 0.0) {
      const double ticks = std::ceil(fail / options_.monitoring_interval);
      detected = ticks * options_.monitoring_interval;
      TraceSpan("detect", "wait", fail, detected - fail, lane);
    }
    XDBFT_GAUGE_ADD("simulator.mttr_wait_seconds",
                    (detected - fail) + stats_.mttr_seconds);
    if (attempt >= options_.max_restarts) {
      // The unit keeps dying: give up, like the paper after 100 restarts
      // and the executor's per-task max_attempts.
      XDBFT_COUNTER_INC("simulator.aborts");
      XDBFT_FLIGHT("simulator", "abort: max restarts exhausted", node,
                   attempt);
      *aborted = true;
      return detected + stats_.mttr_seconds;
    }
    TraceSpan("mttr", "wait", detected, stats_.mttr_seconds, lane);
    start = detected + stats_.mttr_seconds;
  }
}

double ClusterSimulator::RunCollapsedDag(
    const CollapsedPlan& cp, RecoveryMode recovery,
    const std::vector<UnitLabels>& op_labels, ClusterTrace& trace,
    double start_time, int* restarts, bool* aborted) const {
  const bool wal = recovery == RecoveryMode::kWalReplay;
  const double replay_factor = wal ? options_.wal_replay_factor : 1.0;
  const UnitLabels no_label;
  std::vector<double> finish(cp.num_ops(), start_time);
  for (const auto& c : cp.ops()) {  // ascending id = topological
    const UnitLabels& label =
        op_labels.empty() ? no_label : op_labels[static_cast<size_t>(c.id)];
    double ready = start_time;
    for (ft::CollapsedId in : c.inputs) {
      ready = std::max(ready, finish[static_cast<size_t>(in)]);
    }
    // Under write-ahead lineage the log is written ahead of the pipelined
    // intermediates: the durable length pays the log-write overhead.
    double work = c.total_cost();
    if (wal) work += options_.wal_write_cost * c.lineage_volume;
    double done = ready;
    for (int k = 0; k < trace.num_nodes(); ++k) {
      const double duration =
          work * (1.0 + options_.partition_skew * NodeSkew(k));
      // Intra-operator checkpointing splits a fine-grained sub-plan into
      // segments, each its own retry unit; all but the last also write a
      // state checkpoint. A WAL sub-plan is one unit: its log already
      // keeps progress durable.
      const int segments =
          wal ? 1
              : ft::NumCheckpointSegments(duration,
                                          options_.checkpoint_interval);
      const double segment_work = duration / static_cast<double>(segments);
      double completion = ready;
      for (int s = 0; s < segments && !*aborted; ++s) {
        const double length = s + 1 < segments
                                  ? segment_work + options_.checkpoint_cost
                                  : segment_work;
        if (length <= 0.0) continue;
        UnitLabels segment_label;
        if (segments > 1 && !op_labels.empty()) {
          const std::string suffix =
              StrFormat(" [seg %d/%d]", s + 1, segments);
          if (!label.span.empty()) segment_label.span = label.span + suffix;
          if (!label.ledger.empty()) {
            segment_label.ledger = label.ledger + suffix;
          }
        }
        completion = RunRetryUnit(completion, length, replay_factor,
                                  trace.node(k), k,
                                  segments > 1 ? segment_label : label,
                                  restarts, aborted);
      }
      // A retry unit hit max_restarts: the query gives up, reporting the
      // cluster time it burned.
      if (*aborted) return completion;
      done = std::max(done, completion);
    }
    finish[static_cast<size_t>(c.id)] = done;
  }
  double end = 0.0;
  for (ft::CollapsedId sink : cp.sinks()) {
    end = std::max(end, finish[static_cast<size_t>(sink)]);
  }
  return end;
}

Result<SimulationResult> ClusterSimulator::Run(
    const plan::Plan& plan, const MaterializationConfig& config,
    RecoveryMode recovery, ClusterTrace& trace, double start_time) const {
  XDBFT_RETURN_NOT_OK(stats_.Validate());
  if (trace.num_nodes() != stats_.num_nodes) {
    return Status::InvalidArgument(
        "trace node count does not match cluster");
  }
  XDBFT_ASSIGN_OR_RETURN(
      CollapsedPlan cp,
      CollapsedPlan::Create(plan, config, options_.pipe_constant));
  SimulationResult result;
  bool aborted = false;
  double end = start_time;
  if (recovery == RecoveryMode::kFullRestart) {
    // The whole query is one retry unit against the cluster-wide trace.
    static const UnitLabels kQueryLabel = {"query", "query"};
    end = RunRetryUnit(start_time, cp.MakespanNoFailure(), 1.0, trace,
                       /*node=*/-1, kQueryLabel, &result.restarts, &aborted);
  } else {
    // Sub-plan labels for the timeline ("c<id>:<anchor>") and the attempt
    // ledger ("c<id>"), each built once per run and only for its sink.
    std::vector<UnitLabels> op_labels;
    if (options_.trace != nullptr || options_.attempt_log != nullptr) {
      op_labels.resize(cp.num_ops());
      for (const auto& c : cp.ops()) {
        UnitLabels& label = op_labels[static_cast<size_t>(c.id)];
        if (options_.trace != nullptr) {
          label.span =
              StrFormat("c%d:%s", c.id, plan.node(c.anchor).label.c_str());
        }
        if (options_.attempt_log != nullptr) {
          label.ledger = StrFormat("c%d", c.id);
        }
      }
    }
    end = RunCollapsedDag(cp, recovery, op_labels, trace, start_time,
                          &result.restarts, &aborted);
  }
  result.runtime = end - start_time;
  result.completed = !aborted;
  if (aborted) {
    result.aborted = 1;
    result.aborted_seconds = result.runtime;
  }
  result.failures_hit = result.restarts;
  result.runtime_p50 = result.runtime;
  result.runtime_p95 = result.runtime;
  XDBFT_COUNTER_INC("simulator.runs");
  XDBFT_COUNTER_ADD("simulator.restarts", result.restarts);
  XDBFT_GAUGE_SET("simulator.last_runtime_seconds", result.runtime);
  return result;
}

Result<SimulationResult> ClusterSimulator::Run(const ft::SchemePlan& scheme,
                                               ClusterTrace& trace,
                                               double start_time) const {
  return Run(scheme.plan, scheme.config, scheme.recovery, trace,
             start_time);
}

Result<SimulationResult> ClusterSimulator::RunMany(
    const ft::SchemePlan& scheme, std::vector<ClusterTrace>& traces) const {
  if (traces.empty()) {
    return Status::InvalidArgument("no traces given");
  }
  SimulationResult agg;
  agg.completed = true;
  std::vector<double> runtimes;
  std::vector<double> aborted_runtimes;
  runtimes.reserve(traces.size());
  for (auto& trace : traces) {
    XDBFT_ASSIGN_OR_RETURN(SimulationResult r, Run(scheme, trace));
    agg.restarts += r.restarts;
    agg.failures_hit += r.failures_hit;
    if (r.completed) {
      runtimes.push_back(r.runtime);
    } else {
      agg.completed = false;
      ++agg.aborted;
      aborted_runtimes.push_back(r.runtime);
    }
  }
  // Contract (see SimulationResult): runtime stats on a completed-trace
  // basis, aborted traces reported separately as a count plus the mean
  // time they burned. When every trace aborts there is no completed
  // runtime to average; report the time the aborted runs burned before
  // giving up rather than a 0.0 that would make the workload look like an
  // instant success.
  agg.aborted_seconds = Mean(aborted_runtimes);
  const std::vector<double>& basis =
      runtimes.empty() ? aborted_runtimes : runtimes;
  agg.runtime = Mean(basis);
  agg.runtime_p50 = Percentile(basis, 50.0);
  agg.runtime_p95 = Percentile(basis, 95.0);
  return agg;
}

Result<double> ClusterSimulator::BaselineRuntime(
    const plan::Plan& plan) const {
  XDBFT_ASSIGN_OR_RETURN(
      CollapsedPlan cp,
      CollapsedPlan::Create(plan, MaterializationConfig::NoMat(plan),
                            options_.pipe_constant));
  return cp.MakespanNoFailure();
}

std::string SummarizeRunMany(const SimulationResult& result, int traces,
                             double baseline, RecoveryMode recovery) {
  const std::string restarts =
      StrFormat("%d %s", result.restarts,
                recovery == RecoveryMode::kFullRestart ? "restarts"
                                                       : "sub-plan restarts");
  if (result.aborted == 0) {
    return StrFormat("mean runtime %.1fs (baseline %.1fs, overhead %.1f%%, %s)",
                     result.runtime, baseline,
                     OverheadPercent(result.runtime, baseline),
                     restarts.c_str());
  }
  const int completed = traces - result.aborted;
  const std::string completed_part =
      completed > 0
          ? StrFormat("mean runtime %.1fs over %d completed (baseline %.1fs, "
                      "overhead %.1f%%)",
                      result.runtime, completed, baseline,
                      OverheadPercent(result.runtime, baseline))
          : StrFormat("no trace completed (baseline %.1fs)", baseline);
  return StrFormat(
      "%s; %d of %d aborted at max restarts after %.1fs on average (%s)",
      completed_part.c_str(), result.aborted, traces, result.aborted_seconds,
      restarts.c_str());
}

}  // namespace xdbft::cluster
