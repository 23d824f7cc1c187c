// ClusterSimulator: discrete-event execution of a fault-tolerant plan
// [P, M_P] on a simulated shared-nothing cluster with injected failures.
//
// This substitutes for the paper's physical 10-node XDB/MySQL testbed
// (§5.1): collapsed operators execute partition-parallel on every node
// (each node processes its partition in t(c) seconds), inter-operator
// parallelism follows the collapsed DAG, intermediates are written to
// fault-tolerant storage and never lost (§2.2), and a failure of node k
// while it executes a sub-plan restarts that sub-plan on that node after
// MTTR. Recovery granularity follows ft::RecoveryMode:
//   kFineGrained  - only the failed sub-plan (collapsed op x partition)
//                   restarts from its last materialized inputs; under a
//                   no-mat configuration this degenerates to lineage-style
//                   recomputation of the failed partition's full chain.
//   kFullRestart  - any failure during execution restarts the entire query
//                   (the parallel-database strategy); aborts after
//                   max_restarts attempts, as the paper aborts after 100.
//   kWalReplay    - write-ahead lineage: sub-plans log lineage ahead of
//                   their results (paying wal_write_cost up front); a
//                   failed partition replays the logged frontier at
//                   wal_replay_factor speed instead of recomputing, and
//                   logged progress survives the failure.
// All three run on one retry-unit kernel (RunRetryUnit); write-ahead lineage
// is its general case, and the other modes fix the replay factor at 1.
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "cluster/failure_trace.h"
#include "cost/cost_params.h"
#include "ft/collapsed_plan.h"
#include "ft/scheme.h"
#include "obs/attempt_log.h"
#include "obs/trace.h"

namespace xdbft::cluster {

/// \brief Simulator knobs.
struct SimulationOptions {
  /// CONST_pipe used when collapsing the plan for execution.
  double pipe_constant = 1.0;
  /// Abort the query after this many restarts (paper: 100). Full restart
  /// counts query restarts; fine-grained recovery counts the restarts of
  /// each retry unit (collapsed op x node, or checkpoint segment)
  /// separately — the same per-task cap the FaultTolerantExecutor's
  /// max_attempts enforces — so both recovery schemes share one abort
  /// semantics and can be compared fairly under extreme failure rates.
  int max_restarts = 100;
  /// Per-partition execution-time skew: node k's duration for a collapsed
  /// op is t(c) * (1 + skew * u_k) with u_k deterministic in [-1, 1].
  /// 0 = perfectly balanced partitions (paper's co-partitioned TPC-H).
  double partition_skew = 0.0;
  /// The coordinator polls sub-plans every `monitoring_interval` seconds
  /// (paper §5.1 used 2 s): a failure at time f is detected at the next
  /// monitoring tick, and redeployment (MTTR) starts then. 0 = immediate
  /// detection (the default; the paper folds the average detection delay
  /// into its MTTR=1 s).
  double monitoring_interval = 0.0;
  /// Intra-operator checkpointing (the paper's §7 extension, see
  /// ft/checkpointing.h): sub-plans longer than `checkpoint_interval`
  /// write an operator-state checkpoint every interval seconds of
  /// progress (costing `checkpoint_cost` each); a failure repeats only
  /// the current segment. 0 disables (paper behavior).
  double checkpoint_interval = 0.0;
  double checkpoint_cost = 1.0;
  /// Write-ahead lineage (used when recovery == kWalReplay): every
  /// sub-plan logs lineage ahead of its results, inflating its duration by
  /// wal_write_cost * lineage_volume; a failed partition replays the
  /// logged frontier at `wal_replay_factor` of the original speed instead
  /// of recomputing from the materialized inputs. Progress already logged
  /// survives failures. Mirrors CostModelParams::wal_*.
  double wal_write_cost = 0.0;
  double wal_replay_factor = 1.0;
  /// When set, the discrete-event timeline is exported into this recorder
  /// as Chrome trace spans on *virtual* time (1 simulated second = 1 ms in
  /// the viewer; lane = node): sub-plan runs, killed attempts, failure
  /// markers, detection and MTTR waits, and full-query restarts. The
  /// recorder must outlive the simulator calls. Null disables.
  obs::TraceRecorder* trace = nullptr;
  /// Trace process id for the emitted spans, so simulator (virtual-time)
  /// lanes can be kept apart from executor (wall-clock) lanes when both
  /// write into one recorder.
  int trace_pid = 0;
  /// When set, every simulated task attempt (killed and successful, plus
  /// full-query restarts) is appended as an AttemptRecord on *virtual*
  /// time: dispatch = attempt start, finish = completion or failure
  /// instant. The timeline must outlive the simulator calls; records
  /// accumulate across Run/RunMany invocations. Null (default) disables.
  obs::AttemptTimeline* attempt_log = nullptr;
};

/// \brief Outcome of one simulated execution (or, for RunMany, the
/// aggregate over a trace set).
struct SimulationResult {
  /// True unless the run (any trace, for RunMany) hit max_restarts.
  bool completed = false;
  /// Wall-clock runtime of the query under the injected failures. For a
  /// single aborted run this is the time burned before giving up.
  ///
  /// RunMany contract: `runtime`/`runtime_p50`/`runtime_p95` are computed
  /// on a *completed-trace basis* — the mean/percentiles over the traces
  /// that finished. Aborted traces are reported separately: `aborted` is
  /// their count and `aborted_seconds` the *mean* time they burned before
  /// giving up, so no cluster time ever silently vanishes from the
  /// aggregate. Only when every trace aborts do the runtime fields fall
  /// back to the time-spent basis of the aborted runs (an impossible
  /// workload must not look like an instant success).
  double runtime = 0.0;
  /// Number of sub-plan restarts (fine-grained) or query restarts (full).
  int restarts = 0;
  /// Failures that actually interrupted running work.
  int failures_hit = 0;
  /// Aborted executions: 1 for a single run that hit max_restarts, the
  /// aborted-trace count for RunMany.
  int aborted = 0;
  /// Time an aborted run burned before giving up (mean over the aborted
  /// traces for RunMany; equal to `runtime` for a single aborted run).
  double aborted_seconds = 0.0;
  /// RunMany only: median and 95th-percentile runtimes over the
  /// completed traces (equal to `runtime` for single runs; over the
  /// time-spent of aborted runs when nothing completed).
  double runtime_p50 = 0.0;
  double runtime_p95 = 0.0;

  std::string ToString() const;
};

/// \brief Simulated shared-nothing cluster executing fault-tolerant plans.
class ClusterSimulator {
 public:
  ClusterSimulator(cost::ClusterStats stats, SimulationOptions options = {})
      : stats_(stats), options_(options) {}

  /// \brief Execute [plan, config] under `recovery`, injecting failures
  /// from `trace`. The trace is advanced (lazily extended) as needed.
  /// `start_time` places the query on the trace's timeline (used by the
  /// workload simulator so consecutive queries share one failure
  /// history); the returned runtime is finish - start_time.
  Result<SimulationResult> Run(const plan::Plan& plan,
                               const ft::MaterializationConfig& config,
                               ft::RecoveryMode recovery,
                               ClusterTrace& trace,
                               double start_time = 0.0) const;

  /// \brief Execute a scheme-instantiated plan.
  Result<SimulationResult> Run(const ft::SchemePlan& scheme,
                               ClusterTrace& trace,
                               double start_time = 0.0) const;

  /// \brief Mean runtime over `traces` (the paper averages 10 traces).
  /// See the SimulationResult contract: `runtime`/percentiles aggregate
  /// the completed traces, aborted runs are surfaced via `aborted` (count)
  /// and `aborted_seconds` (mean time burned), and when every trace aborts
  /// the runtime fields report the mean/percentiles of the time the
  /// aborted runs consumed instead of a meaningless 0.
  Result<SimulationResult> RunMany(const ft::SchemePlan& scheme,
                                   std::vector<ClusterTrace>& traces) const;

  /// \brief Pure query runtime without failures and without any extra
  /// materialization (the paper's overhead baseline): the no-failure
  /// makespan of the plan collapsed under the no-mat configuration.
  Result<double> BaselineRuntime(const plan::Plan& plan) const;

  const cost::ClusterStats& stats() const { return stats_; }
  const SimulationOptions& options() const { return options_; }

 private:
  /// Names of one retry unit: `span` for trace spans ("c<id>:<anchor>"),
  /// `ledger` for attempt-ledger records ("c<id>", the same whichever other
  /// sinks are attached). Each is empty when its sink is not attached.
  struct UnitLabels {
    std::string span;
    std::string ledger;
  };

  /// The one recovery kernel: runs a retry unit of `duration` seconds from
  /// `ready` against `failures` (a node's FailureTrace, or the cluster-wide
  /// ClusterTrace for a whole-query unit, node == -1) and returns its
  /// completion time. Progress survives a failure as durable logged work;
  /// each attempt replays it at `replay_factor` speed before running the
  /// rest, so replay_factor == 1 recomputes everything (fine-grained and
  /// full restart) and < 1 is write-ahead lineage. A failure is detected at
  /// the next monitoring tick, then MTTR passes; after max_restarts kills
  /// `*aborted` is set and the returned time is when the query gave up.
  template <typename FailureSource>
  double RunRetryUnit(double ready, double duration, double replay_factor,
                      FailureSource& failures, int node,
                      const UnitLabels& label, int* restarts,
                      bool* aborted) const;

  /// Walks the collapsed DAG under fine-grained or WAL recovery, running
  /// each (collapsed op x node) as its retry units, and returns the query's
  /// finish time (or the abort time). `op_labels` is empty when no trace or
  /// attempt log is attached.
  double RunCollapsedDag(const ft::CollapsedPlan& cp,
                         ft::RecoveryMode recovery,
                         const std::vector<UnitLabels>& op_labels,
                         ClusterTrace& trace, double start_time,
                         int* restarts, bool* aborted) const;

  /// Virtual-time trace span (no-op when options_.trace is null).
  /// Durations/timestamps are simulated seconds.
  void TraceSpan(const std::string& name, const std::string& category,
                 double start_s, double dur_s, int node_idx) const;

  cost::ClusterStats stats_;
  SimulationOptions options_;
};

/// \brief Overhead in percent of `runtime` over `baseline` (paper §5.2:
/// "if we report that a scheme has 50% overhead, the query took 50% more
/// time than the baseline").
inline double OverheadPercent(double runtime, double baseline) {
  return (runtime / baseline - 1.0) * 100.0;
}

/// \brief One-line summary of a RunMany result over `traces` traces,
/// against the no-failure `baseline`: the mean runtime and overhead of the
/// completed traces, aborted traces as a count plus the mean time they
/// burned (never as a runtime or an overhead), and the restart count,
/// named for `recovery` ("restarts" under full restart, else "sub-plan
/// restarts").
std::string SummarizeRunMany(const SimulationResult& result, int traces,
                             double baseline, ft::RecoveryMode recovery);

}  // namespace xdbft::cluster
