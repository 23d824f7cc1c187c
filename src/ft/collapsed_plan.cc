#include "ft/collapsed_plan.h"

#include <algorithm>
#include <sstream>

#include "common/string_util.h"

namespace xdbft::ft {

using plan::OpId;
using plan::Plan;

Result<CollapsedPlan> CollapsedPlan::Create(
    const Plan& plan, const MaterializationConfig& config,
    double pipe_constant) {
  XDBFT_RETURN_NOT_OK(plan.Validate());
  XDBFT_RETURN_NOT_OK(config.Validate(plan));
  if (!(pipe_constant > 0.0) || pipe_constant > 1.0) {
    return Status::InvalidArgument("pipe_constant must be in (0, 1]");
  }

  CollapsedPlan cp;
  cp.Collapse(plan, config, pipe_constant);
  return cp;
}

void CollapsedPlan::Collapse(const Plan& plan,
                             const MaterializationConfig& config,
                             double pipe_constant) {
  const size_t num_nodes = plan.num_nodes();
  anchor_of_.assign(num_nodes, -1);
  member_of_.assign(num_nodes, -1);
  longest_.resize(num_nodes);
  pred_.resize(num_nodes);

  // Anchors in ascending (= topological) order so that input collapsed ops
  // exist before their consumers.
  num_ops_ = 0;
  for (const auto& node : plan.nodes()) {
    if (config.materialized(node.id)) {
      anchor_of_[static_cast<size_t>(node.id)] =
          static_cast<CollapsedId>(num_ops_++);
    }
  }
  if (ops_.size() < num_ops_) ops_.resize(num_ops_);

  for (const auto& node : plan.nodes()) {
    const CollapsedId id = anchor_of_[static_cast<size_t>(node.id)];
    if (id < 0) continue;
    CollapsedOp& c = ops_[static_cast<size_t>(id)];
    c.id = id;
    c.anchor = node.id;

    // Collect coll(c): the anchor plus all non-materialized ancestors
    // reachable without crossing a materialized operator. member_of_
    // marks them with c's id, so no per-op reset is needed.
    c.members.clear();
    c.inputs.clear();
    stack_.assign(1, node.id);
    while (!stack_.empty()) {
      const OpId o = stack_.back();
      stack_.pop_back();
      if (member_of_[static_cast<size_t>(o)] == id) continue;
      member_of_[static_cast<size_t>(o)] = id;
      c.members.push_back(o);
      for (OpId in : plan.node(o).inputs) {
        const CollapsedId input = anchor_of_[static_cast<size_t>(in)];
        if (input >= 0) {
          c.inputs.push_back(input);
        } else {
          stack_.push_back(in);
        }
      }
    }
    std::sort(c.members.begin(), c.members.end());
    std::sort(c.inputs.begin(), c.inputs.end());
    c.inputs.erase(std::unique(c.inputs.begin(), c.inputs.end()),
                   c.inputs.end());

    // Dominant internal path dom(c): the max-tr path over coll(c)'s
    // internal edges ending at the anchor (Eq. 1). Members ascend (=
    // topological order); the anchor, the largest, adds no lineage.
    c.lineage_volume = 0.0;
    for (OpId o : c.members) {
      double best_in = 0.0;
      OpId best_pred = plan::kInvalidOpId;
      for (OpId in : plan.node(o).inputs) {
        if (member_of_[static_cast<size_t>(in)] != id) continue;
        if (longest_[static_cast<size_t>(in)] > best_in) {
          best_in = longest_[static_cast<size_t>(in)];
          best_pred = in;
        }
      }
      longest_[static_cast<size_t>(o)] = plan.node(o).runtime_cost + best_in;
      pred_[static_cast<size_t>(o)] = best_pred;
      if (o != node.id) c.lineage_volume += plan.node(o).materialize_cost;
    }
    c.dominant_members.clear();
    for (OpId o = node.id; o != plan::kInvalidOpId;
         o = pred_[static_cast<size_t>(o)]) {
      c.dominant_members.push_back(o);
    }
    std::reverse(c.dominant_members.begin(), c.dominant_members.end());

    const double factor =
        c.dominant_members.size() > 1 ? pipe_constant : 1.0;
    c.runtime_cost = longest_[static_cast<size_t>(node.id)] * factor;
    c.materialize_cost = node.materialize_cost;
  }

  // Consumer adjacency: count, prefix-sum, then fill in ascending
  // consumer id order (ops are visited by id), which leaves every
  // consumer_begin_[i] at the end of op i's list; shift back by one.
  consumer_begin_.assign(num_ops_ + 1, 0);
  for (const CollapsedOp& c : ops()) {
    for (CollapsedId in : c.inputs) {
      ++consumer_begin_[static_cast<size_t>(in) + 1];
    }
  }
  for (size_t i = 0; i < num_ops_; ++i) {
    consumer_begin_[i + 1] += consumer_begin_[i];
  }
  consumer_ids_.resize(consumer_begin_[num_ops_]);
  for (const CollapsedOp& c : ops()) {
    for (CollapsedId in : c.inputs) {
      consumer_ids_[consumer_begin_[static_cast<size_t>(in)]++] = c.id;
    }
  }
  for (size_t i = num_ops_; i > 0; --i) {
    consumer_begin_[i] = consumer_begin_[i - 1];
  }
  consumer_begin_[0] = 0;

  // Sources, sinks and the source->sink path count (DP over ascending =
  // topological ids).
  sources_.clear();
  sinks_.clear();
  paths_to_.resize(num_ops_);
  num_paths_ = 0;
  for (const CollapsedOp& c : ops()) {
    const size_t i = static_cast<size_t>(c.id);
    size_t paths = 0;
    if (c.inputs.empty()) {
      sources_.push_back(c.id);
      paths = 1;
    }
    for (CollapsedId in : c.inputs) paths += paths_to_[static_cast<size_t>(in)];
    paths_to_[i] = paths;
    if (consumer_begin_[i] == consumer_begin_[i + 1]) {
      sinks_.push_back(c.id);
      num_paths_ += paths;
    }
  }
}

std::vector<CollapsedPath> CollapsedPlan::AllPaths() const {
  std::vector<CollapsedPath> out;
  ForEachPath([&](const CollapsedPath& p) {
    out.push_back(p);
    return true;
  });
  return out;
}

double CollapsedPlan::PathRuntimeNoFailure(const CollapsedPath& path) const {
  double total = 0.0;
  for (CollapsedId id : path) total += op(id).total_cost();
  return total;
}

double CollapsedPlan::MakespanNoFailure() const {
  std::vector<double> finish(num_ops_, 0.0);
  double makespan = 0.0;
  for (const auto& c : ops()) {  // ascending id = topological
    double ready = 0.0;
    for (CollapsedId in : c.inputs) {
      ready = std::max(ready, finish[static_cast<size_t>(in)]);
    }
    finish[static_cast<size_t>(c.id)] = ready + c.total_cost();
    makespan = std::max(makespan, finish[static_cast<size_t>(c.id)]);
  }
  return makespan;
}

std::string CollapsedPlan::Explain() const {
  std::ostringstream os;
  os << "CollapsedPlan (" << num_ops_ << " collapsed operators)\n";
  for (const auto& c : ops()) {
    std::vector<std::string> mems;
    mems.reserve(c.members.size());
    for (OpId m : c.members) mems.push_back(std::to_string(m));
    os << StrFormat("  c%-3d {%s} anchor=%d tr=%.3f tm=%.3f t=%.3f", c.id,
                    Join(mems, ",").c_str(), c.anchor, c.runtime_cost,
                    c.materialize_cost, c.total_cost());
    if (!c.inputs.empty()) {
      os << "  <- {";
      for (size_t i = 0; i < c.inputs.size(); ++i) {
        if (i) os << ",";
        os << "c" << c.inputs[i];
      }
      os << "}";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace xdbft::ft
