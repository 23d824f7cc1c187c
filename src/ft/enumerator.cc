#include "ft/enumerator.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <thread>
#include <tuple>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace xdbft::ft {

using plan::Plan;

namespace {

/// Lower an atomic double to `v` if `v` is smaller (lock-free min).
void AtomicMin(std::atomic<double>* target, double v) {
  double cur = target->load(std::memory_order_relaxed);
  while (v < cur &&
         !target->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Status EnumerationOptions::Validate() const {
  if (max_free_operators < 0 || max_free_operators > 62) {
    return Status::InvalidArgument(
        "max_free_operators must be in [0, 62] (configuration masks are "
        "64-bit)");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "num_threads must be >= 0 (0 = hardware concurrency)");
  }
  return Status::OK();
}

void EnumerationStats::MergeFrom(const EnumerationStats& other) {
  candidate_plans += other.candidate_plans;
  total_ft_plans_unpruned += other.total_ft_plans_unpruned;
  ft_plans_enumerated += other.ft_plans_enumerated;
  rule1_ops_marked += other.rule1_ops_marked;
  rule2_ops_marked += other.rule2_ops_marked;
  rule3_early_stops += other.rule3_early_stops;
  rule3_rejections += other.rule3_rejections;
  rule3_rpt_hits += other.rule3_rpt_hits;
  rule3_tpt_hits += other.rule3_tpt_hits;
  rule3_memo_hits += other.rule3_memo_hits;
  rule3_memo_misses += other.rule3_memo_misses;
  paths_evaluated += other.paths_evaluated;
  rule3_paths_skipped += other.rule3_paths_skipped;
  tasks_executed += other.tasks_executed;
  tasks_stolen += other.tasks_stolen;
}

std::string EnumerationStats::ToString() const {
  return StrFormat(
      "EnumerationStats(plans=%llu, ft_plans=%llu/%llu, rule1_marked=%llu, "
      "rule2_marked=%llu, rule3_stops=%llu [RPt=%llu TPt=%llu memo=%llu/%llu], "
      "paths=%llu evaluated, %llu skipped, tasks=%llu (%llu stolen))",
      static_cast<unsigned long long>(candidate_plans),
      static_cast<unsigned long long>(ft_plans_enumerated),
      static_cast<unsigned long long>(total_ft_plans_unpruned),
      static_cast<unsigned long long>(rule1_ops_marked),
      static_cast<unsigned long long>(rule2_ops_marked),
      static_cast<unsigned long long>(rule3_early_stops),
      static_cast<unsigned long long>(rule3_rpt_hits),
      static_cast<unsigned long long>(rule3_tpt_hits),
      static_cast<unsigned long long>(rule3_memo_hits),
      static_cast<unsigned long long>(rule3_memo_misses),
      static_cast<unsigned long long>(paths_evaluated),
      static_cast<unsigned long long>(rule3_paths_skipped),
      static_cast<unsigned long long>(tasks_executed),
      static_cast<unsigned long long>(tasks_stolen));
}

int FtPlanEnumerator::ResolveThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

/// One candidate after the rules-1/2 pre-pass. The deterministic counters
/// (space sizes, per-rule marks) are computed here, per plan, so their
/// totals are exact regardless of how the evaluation work is scheduled.
struct FtPlanEnumerator::PreparedPlan {
  Plan plan;
  /// Per-candidate invariants of the per-mask step: the plan is valid, and
  /// a mask's configuration is `base` (bound and sink operators forced,
  /// valid for the plan) with SetFreeMask(free_ops, mask) applied.
  std::vector<plan::OpId> free_ops;
  MaterializationConfig base;
  uint64_t num_configs = 0;
  uint64_t unpruned = 0;
  uint64_t rule1_marked = 0;
  uint64_t rule2_marked = 0;
  Status status;  // OK unless this candidate is rejected
};

/// State shared by every enumeration task of one FindBest call.
struct FtPlanEnumerator::SearchState {
  /// Rule-3 cost bound (bestT). Monotonically non-increasing; stale reads
  /// only weaken pruning, never correctness. Pruning tests are strict
  /// (cost > bound), so a configuration tying the final best always
  /// survives to the deterministic tie-break below.
  std::atomic<double> bound{std::numeric_limits<double>::infinity()};
  ConcurrentDominantPathMemo owned_memo;
  /// Points at owned_memo, or at EnumerationOptions::shared_memo when the
  /// caller warm-starts rule 3 across FindBest calls of the same search.
  ConcurrentDominantPathMemo* memo = nullptr;
  std::atomic<bool> failed{false};
  const FailureParams fparams;
  /// Placement dimensions; `placed` caches pparams.active(). When false
  /// the search takes the historical scalar path — bit-identical to the
  /// pre-placement enumerator.
  const PlacementParams pparams;
  /// Write-ahead-lineage dimensions; disabled keeps every per-operator
  /// cost bit-identical to the recompute-from-inputs model.
  const WalParams wal;
  const bool placed;
  const bool use_memo;

  std::mutex mu;  // guards the candidate + error fields
  bool found = false;
  double best_cost = std::numeric_limits<double>::infinity();
  size_t best_plan = 0;
  uint64_t best_mask = 0;
  bool has_error = false;
  size_t error_plan = 0;
  uint64_t error_mask = 0;
  Status error;

  SearchState(FailureParams fp, PlacementParams pp, WalParams wp,
              bool memoize)
      : fparams(fp),
        pparams(pp),
        wal(wp),
        placed(pp.active()),
        use_memo(memoize) {}

  /// Keep the error with the smallest (plan, mask) key so the reported
  /// failure does not depend on task interleaving.
  void RecordError(size_t plan_index, uint64_t mask, Status s) {
    std::lock_guard<std::mutex> lock(mu);
    if (!has_error || std::tie(plan_index, mask) <
                          std::tie(error_plan, error_mask)) {
      has_error = true;
      error_plan = plan_index;
      error_mask = mask;
      error = std::move(s);
    }
    failed.store(true, std::memory_order_relaxed);
  }
};

FtPlanEnumerator::PreparedPlan FtPlanEnumerator::Prepare(
    const Plan& candidate, size_t plan_index) const {
  PreparedPlan out;
  out.plan = candidate;  // copy: rules 1-2 mutate constraints
  out.status = out.plan.Validate();
  if (!out.status.ok()) return out;

  const size_t free_before = EnumerableOperators(out.plan).size();
  if (free_before > 62) {
    out.status = Status::InvalidArgument("plan has too many free operators");
    return out;
  }
  out.unpruned = uint64_t{1} << free_before;

  {
    XDBFT_SCOPED_TIMER_GAUGE("enumerator.seconds.prepass");
    // Rule 2 runs first: it only consults the operator's own collapsed
    // runtime, while rule 1 quantifies over a parent's *still-free*
    // children — operators rule 2 already marked drop out of that
    // quantifier, so this order marks a superset of (never fewer ops
    // than) the reverse order. Both rules only add kNeverMaterialize
    // constraints that are provably cost-safe, so more is better.
    // Rules 1-2 are proven cost-safe for recompute-from-inputs recovery
    // only: under write-ahead lineage a skipped materialization also
    // changes the log-write volume, which their proofs do not account for.
    // WAL-enabled searches keep rule 3 (exact branch-and-bound) and skip
    // the static marks.
    const bool static_rules_safe = !model_.context().model.wal_enabled;
    if (options_.pruning.rule2 && static_rules_safe) {
      out.rule2_marked = static_cast<uint64_t>(
          ApplyPruningRule2(&out.plan, model_.context()));
    }
    if (options_.pruning.rule1 && static_rules_safe) {
      out.rule1_marked = static_cast<uint64_t>(ApplyPruningRule1(
          &out.plan, model_.context().model.pipe_constant));
    }
  }

  out.free_ops = EnumerableOperators(out.plan);
  if (static_cast<int>(out.free_ops.size()) > options_.max_free_operators) {
    out.status = Status::InvalidArgument(StrFormat(
        "plan %zu has %zu free operators after pruning (max %d); raise "
        "EnumerationOptions::max_free_operators or add constraints",
        plan_index, out.free_ops.size(), options_.max_free_operators));
    return out;
  }
  out.num_configs = uint64_t{1} << out.free_ops.size();
  out.base = MaterializationConfig::NoMat(out.plan);
  out.status = out.base.Validate(out.plan);
  return out;
}

void FtPlanEnumerator::EvaluateMaskRange(const PreparedPlan& prepared,
                                         const MaskRange& range,
                                         SearchState* state,
                                         EnumerationStats* local) const {
  const double pipe = model_.context().model.pipe_constant;
  const bool rule3 = options_.pruning.rule3;
  // Only the mask-dependent work runs per configuration: Prepare validated
  // the plan and its forced base once (pipe_constant is validated with the
  // context), and the config and the collapsed plan are rebuilt in place.
  MaterializationConfig config = prepared.base;
  CollapsedPlan cp;
  CollapsedPath dom_path;
  for (uint64_t mask = range.lo; mask < range.hi; ++mask) {
    if (state->failed.load(std::memory_order_relaxed)) return;
    config.SetFreeMask(prepared.free_ops, mask);
    cp.Collapse(prepared.plan, config, pipe);

    // Placement pass (correlated-failure extension): deterministic greedy
    // group assignment per configuration; inactive (the common case)
    // keeps the historical scalar arithmetic bit-for-bit.
    PlacementResult placement;
    if (state->placed) {
      placement = ComputePlacement(cp, state->pparams, state->fparams,
                                   state->wal);
    }
    const auto placed_t = [&](CollapsedId id) {
      return state->placed ? placement.placed_cost[static_cast<size_t>(id)]
                           : cp.op(id).total_cost();
    };
    const auto refetch = [&](CollapsedId id) {
      return state->placed ? placement.refetch_cost[static_cast<size_t>(id)]
                           : 0.0;
    };
    // Durable runtime: placed runtime plus the WAL log-write overhead.
    // This is the t the rule-3 bounds and the memo must see — per-op TPt
    // is monotone in it, which placed_t alone does not guarantee once
    // lineage volume varies per configuration.
    const auto durable_t = [&](CollapsedId id) {
      double t = placed_t(id);
      if (state->wal.enabled) {
        t += state->wal.write_cost * cp.op(id).lineage_volume;
      }
      return t;
    };

    // Path enumeration with rule-3 early stopping (Listing 1 lines 9-13
    // plus §4.3). Every test is strict (> bound, strict Eq. 9 dominance):
    // a pruned configuration provably costs more than bestT, so a
    // configuration tying the final best is never eliminated and the
    // (cost, plan, mask) tie-break stays exact at any thread count.
    double dom_cost = 0.0;
    dom_path.clear();
    bool pruned = false;
    const size_t total_paths = rule3 ? cp.CountPaths() : 0;
    const size_t visited = cp.ForEachPath([&](const CollapsedPath& path) {
      const double bound = state->bound.load(std::memory_order_relaxed);
      if (rule3) {
        // Test 1: RPt > bestT — no cost-model call needed. Placed runtime
        // (remote reads included) is still a lower bound on TPt.
        double rpt = 0.0;
        if (state->placed || state->wal.enabled) {
          for (CollapsedId id : path) rpt += durable_t(id);
        } else {
          rpt = cp.PathRuntimeNoFailure(path);
        }
        if (rpt > bound) {
          ++local->rule3_rpt_hits;
          pruned = true;
          return false;
        }
        // Extension: Eq. 9 dominance over a memoized dominant path, in
        // both cost dimensions (placed runtime, per-attempt refetch).
        if (state->use_memo && !state->memo->empty()) {
          std::vector<PathOpCost> costs;
          costs.reserve(path.size());
          for (CollapsedId id : path) {
            costs.push_back(PathOpCost{durable_t(id), refetch(id)});
          }
          if (state->memo->Dominates(std::move(costs))) {
            ++local->rule3_memo_hits;
            pruned = true;
            return false;
          }
          ++local->rule3_memo_misses;
        }
      }
      ++local->paths_evaluated;
      double tpt = 0.0;
      for (CollapsedId id : path) {
        tpt += CollapsedOpTotalRuntime(placed_t(id),
                                       cp.op(id).lineage_volume,
                                       state->fparams, state->wal,
                                       refetch(id));
      }
      if (rule3 && tpt > bound) {
        // Test 2: TPt > bestT.
        ++local->rule3_tpt_hits;
        pruned = true;
        return false;
      }
      if (tpt > dom_cost) {
        dom_cost = tpt;
        dom_path = path;
      }
      return true;
    });
    if (pruned) {
      ++local->rule3_rejections;
      // Only count as an early stop if remaining paths were actually
      // skipped; firing on the last path saves nothing (§5.5).
      if (visited < total_paths) {
        ++local->rule3_early_stops;
        local->rule3_paths_skipped +=
            static_cast<uint64_t>(total_paths - visited);
      }
      continue;
    }
    if (dom_path.empty()) {
      state->RecordError(range.plan_index, mask,
                         Status::Internal("collapsed plan produced no paths"));
      return;
    }

    // Deterministic acceptance: strictly smaller (cost, plan, mask) wins.
    const size_t plan_index = range.plan_index;
    bool accepted = false;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      if (!state->found ||
          std::tie(dom_cost, plan_index, mask) <
              std::tie(state->best_cost, state->best_plan,
                       state->best_mask)) {
        state->found = true;
        state->best_cost = dom_cost;
        state->best_plan = plan_index;
        state->best_mask = mask;
        accepted = true;
      }
    }
    if (accepted) {
      AtomicMin(&state->bound, dom_cost);
      if (rule3 && state->use_memo) {
        std::vector<PathOpCost> costs;
        costs.reserve(dom_path.size());
        for (CollapsedId id : dom_path) {
          costs.push_back(PathOpCost{durable_t(id), refetch(id)});
        }
        state->memo->Record(std::move(costs), dom_cost);
      }
    }
  }
}

Result<FtPlanChoice> FtPlanEnumerator::FindBest(
    const std::vector<Plan>& candidates) {
  if (candidates.empty()) {
    return Status::InvalidArgument("no candidate plans");
  }
  XDBFT_RETURN_NOT_OK(model_.context().Validate());
  XDBFT_RETURN_NOT_OK(options_.Validate());
  XDBFT_SCOPED_TIMER_GAUGE("enumerator.seconds.find_best");
  stats_ = EnumerationStats{};
  stats_.candidate_plans = candidates.size();

  const int threads = ResolveThreads(options_.num_threads);
  const bool parallel = threads > 1;
  if (parallel && (pool_ == nullptr || pool_->num_threads() != threads)) {
    pool_ = std::make_unique<TaskPool>(threads);
  }
  const TaskPoolStats pool_before =
      pool_ != nullptr ? pool_->stats() : TaskPoolStats{};
  obs::TraceRecorder* trace = options_.trace;
  if (trace != nullptr) {
    for (int t = 0; t < threads; ++t) {
      trace->SetThreadName(options_.trace_pid, t,
                           "enum worker " + std::to_string(t));
    }
    trace->SetThreadName(options_.trace_pid, threads, "enum caller");
  }

  // Phase 1: rules-1/2 pre-pass, one independent task per candidate.
  const size_t num_plans = candidates.size();
  std::vector<PreparedPlan> prepared(num_plans);
  if (parallel) {
    pool_->ParallelForEach(num_plans, [&](size_t i) {
      prepared[i] = Prepare(candidates[i], i);
    });
  } else {
    for (size_t i = 0; i < num_plans; ++i) {
      prepared[i] = Prepare(candidates[i], i);
    }
  }
  // Accumulate the deterministic counters in plan order; report the first
  // rejected candidate exactly like the sequential walk would.
  for (size_t i = 0; i < num_plans; ++i) {
    if (!prepared[i].status.ok()) return prepared[i].status;
    stats_.total_ft_plans_unpruned += prepared[i].unpruned;
    stats_.rule1_ops_marked += prepared[i].rule1_marked;
    stats_.rule2_ops_marked += prepared[i].rule2_marked;
    stats_.ft_plans_enumerated += prepared[i].num_configs;
  }

  // Phase 2: carve the configuration space into contiguous mask ranges —
  // within-plan subtrees of the enumeration — sized for ~8 tasks per
  // worker so stealing can rebalance skew from pruning.
  uint64_t total_configs = 0;
  for (const PreparedPlan& pp : prepared) total_configs += pp.num_configs;
  const uint64_t target_tasks =
      parallel ? static_cast<uint64_t>(threads) * 8 : 1;
  const uint64_t masks_per_task =
      std::max<uint64_t>(1, total_configs / std::max<uint64_t>(
                                                1, target_tasks));
  std::vector<MaskRange> tasks;
  for (size_t pi = 0; pi < num_plans; ++pi) {
    for (uint64_t lo = 0; lo < prepared[pi].num_configs;
         lo += masks_per_task) {
      tasks.push_back(MaskRange{
          pi, lo, std::min(prepared[pi].num_configs, lo + masks_per_task)});
    }
  }

  // Phase 3: evaluate. Each worker slot owns one stats accumulator
  // (single-writer); the slots are merged below — the per-thread snapshot
  // merge that keeps the totals exact under concurrency.
  SearchState state(model_.context().MakeFailureParams(),
                    model_.context().MakePlacementParams(),
                    model_.context().MakeWalParams(),
                    options_.pruning.memoize_dominant_paths);
  state.memo = options_.shared_memo != nullptr ? options_.shared_memo
                                               : &state.owned_memo;
  std::vector<EnumerationStats> per_slot(static_cast<size_t>(threads) + 1);
  if (parallel) {
    pool_->ParallelForEach(tasks.size(), [&](size_t i) {
      const int worker = pool_->CurrentWorkerId();
      const size_t slot =
          worker >= 0 ? static_cast<size_t>(worker)
                      : static_cast<size_t>(threads);  // helping caller
      const double ts = trace != nullptr ? trace->NowMicros() : 0.0;
      EvaluateMaskRange(prepared[tasks[i].plan_index], tasks[i], &state,
                        &per_slot[slot]);
      if (trace != nullptr) {
        trace->AddComplete(
            "enum.chunk", "enumerator", ts, trace->NowMicros() - ts,
            options_.trace_pid, static_cast<int>(slot),
            {obs::IntArg("plan", static_cast<int64_t>(tasks[i].plan_index)),
             obs::IntArg("mask_lo", static_cast<int64_t>(tasks[i].lo)),
             obs::IntArg("mask_hi", static_cast<int64_t>(tasks[i].hi))});
      }
    });
  } else {
    for (const MaskRange& task : tasks) {
      EvaluateMaskRange(prepared[task.plan_index], task, &state,
                        &per_slot[0]);
    }
  }
  for (const EnumerationStats& slot : per_slot) stats_.MergeFrom(slot);
  stats_.tasks_executed += tasks.size();
  if (pool_ != nullptr) {
    stats_.tasks_stolen +=
        pool_->stats().tasks_stolen - pool_before.tasks_stolen;
  }

  // Publish this run's counters (rules 1/2 are published at the marking
  // site in pruning.cc; everything else is accounted here).
  XDBFT_COUNTER_ADD("enumerator.plans", stats_.candidate_plans);
  XDBFT_COUNTER_ADD("enumerator.configs_unpruned",
                    stats_.total_ft_plans_unpruned);
  XDBFT_COUNTER_ADD("enumerator.configs_enumerated",
                    stats_.ft_plans_enumerated);
  XDBFT_COUNTER_ADD("enumerator.pruned_rule3", stats_.rule3_rejections);
  XDBFT_COUNTER_ADD("enumerator.rule3_paths_skipped",
                    stats_.rule3_paths_skipped);
  XDBFT_COUNTER_ADD("enumerator.memo_hits", stats_.rule3_memo_hits);
  XDBFT_COUNTER_ADD("enumerator.memo_misses", stats_.rule3_memo_misses);
  XDBFT_COUNTER_ADD("enumerator.paths_evaluated", stats_.paths_evaluated);
  XDBFT_COUNTER_ADD("enumerator.tasks", stats_.tasks_executed);
  XDBFT_COUNTER_ADD("enumerator.tasks_stolen", stats_.tasks_stolen);
  XDBFT_GAUGE_SET("enumerator.threads", threads);

  if (state.has_error) return state.error;
  if (!state.found) {
    return Status::Internal("enumeration found no fault-tolerant plan");
  }

  // Reconstruct the winner from its (plan, mask) id — cheaper than
  // copying plan + path under the candidate lock on every improvement,
  // and exactly reproducible.
  const PreparedPlan& wp = prepared[state.best_plan];
  FtPlanChoice best;
  best.plan_index = state.best_plan;
  best.plan = wp.plan;
  best.config = MaterializationConfig::FromFreeMask(wp.plan, state.best_mask);
  best.estimated_cost = state.best_cost;
  XDBFT_ASSIGN_OR_RETURN(
      CollapsedPlan cp,
      CollapsedPlan::Create(wp.plan, best.config,
                            model_.context().model.pipe_constant));
  PlacementResult placement;
  if (state.placed) {
    placement = ComputePlacement(cp, state.pparams, state.fparams,
                                 state.wal);
    best.placement_groups = placement.groups;
  }
  double dom_cost = 0.0;
  cp.ForEachPath([&](const CollapsedPath& path) {
    double tpt = 0.0;
    for (CollapsedId id : path) {
      const size_t i = static_cast<size_t>(id);
      tpt += state.placed
                 ? CollapsedOpTotalRuntime(placement.placed_cost[i],
                                           cp.op(id).lineage_volume,
                                           state.fparams, state.wal,
                                           placement.refetch_cost[i])
                 : CollapsedOpTotalRuntime(cp.op(id).total_cost(),
                                           cp.op(id).lineage_volume,
                                           state.fparams, state.wal);
    }
    if (tpt > dom_cost) {
      dom_cost = tpt;
      best.dominant_path = path;
    }
    return true;
  });
  return best;
}

Result<FtPlanChoice> FtPlanEnumerator::FindBest(const Plan& plan) {
  return FindBest(std::vector<Plan>{plan});
}

Result<std::vector<std::pair<MaterializationConfig, double>>>
FtPlanEnumerator::EnumerateAll(const Plan& plan) const {
  XDBFT_RETURN_NOT_OK(plan.Validate());
  XDBFT_RETURN_NOT_OK(model_.context().Validate());
  const std::vector<plan::OpId> free_ops = EnumerableOperators(plan);
  if (free_ops.size() > 20) {
    return Status::InvalidArgument(
        "EnumerateAll supports at most 20 free operators");
  }
  std::vector<std::pair<MaterializationConfig, double>> out;
  const uint64_t num_configs = uint64_t{1} << free_ops.size();
  out.reserve(num_configs);
  for (uint64_t mask = 0; mask < num_configs; ++mask) {
    const MaterializationConfig config =
        MaterializationConfig::FromFreeMask(plan, mask);
    XDBFT_ASSIGN_OR_RETURN(FtPlanEstimate est,
                           model_.Estimate(plan, config));
    out.emplace_back(config, est.dominant_cost);
  }
  return out;
}

}  // namespace xdbft::ft
