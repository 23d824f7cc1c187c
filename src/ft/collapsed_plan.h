// CollapsedPlan: P^c construction from a fault-tolerant plan [P, M_P]
// (paper §3.3). A collapsed operator represents the unit of re-execution: a
// maximal sub-plan of non-materialized operators pipelined into one
// materializing anchor. Once a collapsed operator has materialized its
// output it never re-executes.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "ft/mat_config.h"
#include "plan/plan.h"

namespace xdbft::ft {

/// \brief Index of a collapsed operator within a CollapsedPlan.
using CollapsedId = int32_t;

/// \brief One collapsed operator c of P^c.
struct CollapsedOp {
  CollapsedId id = -1;
  /// coll(c): ids of the original operators collapsed into this one. A
  /// non-materialized operator feeding several materializing consumers is
  /// duplicated into each (its work is re-done per consumer on recovery).
  std::vector<plan::OpId> members;
  /// The materializing operator anchoring this collapsed op.
  plan::OpId anchor = plan::kInvalidOpId;
  /// dom(c): the member ids on the longest (by tr) internal execution path
  /// ending at the anchor, in execution order.
  std::vector<plan::OpId> dominant_members;
  /// tr(c) per Eq. 1: sum of tr over dom(c), discounted by CONST_pipe when
  /// the dominant path pipelines more than one operator.
  double runtime_cost = 0.0;
  /// tm(c): materialization cost of the anchor.
  double materialize_cost = 0.0;
  /// Sum of tm over coll(c) \ {anchor}: the volume of intermediate results
  /// flowing *inside* this collapsed op. Under write-ahead lineage this is
  /// the volume whose lineage must be logged before results flow on.
  double lineage_volume = 0.0;
  /// Collapsed operators whose (materialized) output this one reads.
  std::vector<CollapsedId> inputs;

  /// \brief t(c) = tr(c) + tm(c) (paper §3.3).
  double total_cost() const { return runtime_cost + materialize_cost; }
};

/// \brief An execution path through P^c: source -> ... -> sink (§3.4).
using CollapsedPath = std::vector<CollapsedId>;

/// \brief The collapsed plan P^c.
class CollapsedPlan {
 public:
  /// \brief Build P^c from [plan, config]. `pipe_constant` is CONST_pipe of
  /// Eq. 1. Checks that the plan is valid, the config valid for it and
  /// CONST_pipe in (0, 1], then runs Collapse.
  static Result<CollapsedPlan> Create(const plan::Plan& plan,
                                      const MaterializationConfig& config,
                                      double pipe_constant = 1.0);

  /// \brief Rebuild this P^c from [plan, config] in place, reusing the
  /// storage of the previous collapse. The inputs must pass Create's
  /// checks (not repeated here): the enumerator checks once per candidate
  /// plan and collapses every configuration into one object.
  void Collapse(const plan::Plan& plan, const MaterializationConfig& config,
                double pipe_constant);

  size_t num_ops() const { return num_ops_; }
  const CollapsedOp& op(CollapsedId id) const {
    return ops_[static_cast<size_t>(id)];
  }
  std::span<const CollapsedOp> ops() const { return {ops_.data(), num_ops_}; }

  /// \brief Collapsed ops with no inputs / no consumers.
  const std::vector<CollapsedId>& sources() const { return sources_; }
  const std::vector<CollapsedId>& sinks() const { return sinks_; }

  /// \brief Consumers of a collapsed op, ascending.
  std::span<const CollapsedId> Consumers(CollapsedId id) const {
    const size_t i = static_cast<size_t>(id);
    return {consumer_ids_.data() + consumer_begin_[i],
            consumer_begin_[i + 1] - consumer_begin_[i]};
  }

  /// \brief Enumerate every source->sink execution path: sources in id
  /// order, each depth first through consumers in ascending id order. The
  /// visitor (bool(const CollapsedPath&)) returns false to stop the
  /// enumeration early (pruning rule 3). Returns the number of paths
  /// visited.
  template <typename Visit>
  size_t ForEachPath(Visit&& visit) const;

  /// \brief All execution paths (convenience; may be exponential).
  std::vector<CollapsedPath> AllPaths() const;

  /// \brief Number of source->sink paths, computed by DP during the
  /// collapse without materializing them (used by rule-3 accounting).
  size_t CountPaths() const { return num_paths_; }

  /// \brief Sum of t(c) along a path: RPt, the path runtime without
  /// mid-query failures (§4.3).
  double PathRuntimeNoFailure(const CollapsedPath& path) const;

  /// \brief Critical-path makespan of P^c without failures, respecting
  /// inter-operator parallelism (used as simulation baseline).
  double MakespanNoFailure() const;

  std::string Explain() const;

 private:
  /// ops_[0, num_ops_) is P^c; entries past it are kept from earlier,
  /// larger collapses so their vectors' storage is reused.
  std::vector<CollapsedOp> ops_;
  size_t num_ops_ = 0;
  std::vector<CollapsedId> sources_;
  std::vector<CollapsedId> sinks_;
  /// Consumer adjacency: the consumers of op i are
  /// consumer_ids_[consumer_begin_[i], consumer_begin_[i + 1]).
  std::vector<size_t> consumer_begin_;
  std::vector<CollapsedId> consumer_ids_;
  size_t num_paths_ = 0;

  /// Collapse scratch, indexed by OpId: the collapsed op anchored at a
  /// materialized operator (-1 otherwise), the collapsed op whose members
  /// were last marked, and the longest internal path ending at a member
  /// with its predecessor on that path; plus the member-search stack.
  std::vector<CollapsedId> anchor_of_;
  std::vector<CollapsedId> member_of_;
  std::vector<double> longest_;
  std::vector<plan::OpId> pred_;
  std::vector<plan::OpId> stack_;
  /// Source->op path counts, indexed by CollapsedId.
  std::vector<size_t> paths_to_;
};

template <typename Visit>
size_t CollapsedPlan::ForEachPath(Visit&& visit) const {
  size_t visited = 0;
  CollapsedPath path;
  // next[k]: position in consumer_ids_ of the next consumer of path[k] to
  // descend into.
  std::vector<size_t> next;
  for (CollapsedId source : sources_) {
    path.assign(1, source);
    next.assign(1, consumer_begin_[static_cast<size_t>(source)]);
    while (!path.empty()) {
      const size_t end = consumer_begin_[static_cast<size_t>(path.back()) + 1];
      if (consumer_begin_[static_cast<size_t>(path.back())] == end) {
        ++visited;  // a sink: one complete path
        if (!visit(std::as_const(path))) return visited;
      } else if (next.back() < end) {
        const CollapsedId consumer = consumer_ids_[next.back()++];
        path.push_back(consumer);
        next.push_back(consumer_begin_[static_cast<size_t>(consumer)]);
        continue;
      }
      path.pop_back();
      next.pop_back();
    }
  }
  return visited;
}

}  // namespace xdbft::ft
