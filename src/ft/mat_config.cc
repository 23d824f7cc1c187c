#include "ft/mat_config.h"

#include <algorithm>

#include "common/string_util.h"

namespace xdbft::ft {

using plan::MatConstraint;
using plan::OpId;
using plan::Plan;

namespace {

// is_sink[o]: no operator consumes o's output.
std::vector<bool> SinkMask(const Plan& plan) {
  std::vector<bool> is_sink(plan.num_nodes(), true);
  for (const auto& n : plan.nodes()) {
    for (OpId in : n.inputs) is_sink[static_cast<size_t>(in)] = false;
  }
  return is_sink;
}

// Applies forced values: bound operators and sinks.
void ApplyConstraints(const Plan& plan, MaterializationConfig* config) {
  const std::vector<bool> is_sink = SinkMask(plan);
  for (const auto& n : plan.nodes()) {
    if (n.constraint == MatConstraint::kAlwaysMaterialize) {
      config->set_materialized(n.id, true);
    } else if (n.constraint == MatConstraint::kNeverMaterialize) {
      config->set_materialized(n.id, false);
    }
    if (is_sink[static_cast<size_t>(n.id)]) {
      // Query results are always produced, regardless of constraint.
      config->set_materialized(n.id, true);
    }
  }
}

}  // namespace

size_t MaterializationConfig::NumMaterialized() const {
  return static_cast<size_t>(std::count(mat_.begin(), mat_.end(), true));
}

MaterializationConfig MaterializationConfig::NoMat(const Plan& plan) {
  MaterializationConfig c(plan.num_nodes());
  ApplyConstraints(plan, &c);
  return c;
}

MaterializationConfig MaterializationConfig::AllMat(const Plan& plan) {
  MaterializationConfig c(plan.num_nodes());
  for (const auto& n : plan.nodes()) c.set_materialized(n.id, true);
  ApplyConstraints(plan, &c);
  return c;
}

MaterializationConfig MaterializationConfig::FromFreeMask(const Plan& plan,
                                                          uint64_t mask) {
  // Free operators are neither bound nor sinks, so setting their bits
  // after the forced ones equals forcing after setting them.
  MaterializationConfig c = NoMat(plan);
  c.SetFreeMask(EnumerableOperators(plan), mask);
  return c;
}

void MaterializationConfig::SetFreeMask(const std::vector<OpId>& free_ops,
                                        uint64_t mask) {
  for (size_t i = 0; i < free_ops.size(); ++i) {
    set_materialized(free_ops[i], i < 64 && ((mask >> i) & 1));
  }
}

Status MaterializationConfig::Validate(const Plan& plan) const {
  if (mat_.size() != plan.num_nodes()) {
    return Status::InvalidArgument("config size does not match plan");
  }
  const std::vector<bool> is_sink = SinkMask(plan);
  for (const auto& n : plan.nodes()) {
    const bool m = materialized(n.id);
    if (is_sink[static_cast<size_t>(n.id)] && !m) {
      return Status::InvalidArgument(
          StrFormat("sink operator %d must be materialized", n.id));
    }
    if (n.constraint == MatConstraint::kNeverMaterialize && m &&
        !is_sink[static_cast<size_t>(n.id)]) {
      return Status::InvalidArgument(
          StrFormat("bound operator %d (m=0) is materialized", n.id));
    }
    if (n.constraint == MatConstraint::kAlwaysMaterialize && !m) {
      return Status::InvalidArgument(
          StrFormat("bound operator %d (m=1) is not materialized", n.id));
    }
  }
  return Status::OK();
}

std::string MaterializationConfig::ToString() const {
  std::string out = "{m:";
  bool first = true;
  for (size_t i = 0; i < mat_.size(); ++i) {
    if (mat_[i]) {
      out += first ? " " : ",";
      out += std::to_string(i);
      first = false;
    }
  }
  out += "}";
  return out;
}

std::vector<OpId> EnumerableOperators(const Plan& plan) {
  const std::vector<bool> is_sink = SinkMask(plan);
  std::vector<OpId> out;
  for (const auto& n : plan.nodes()) {
    if (n.is_free() && !is_sink[static_cast<size_t>(n.id)]) {
      out.push_back(n.id);
    }
  }
  return out;
}

}  // namespace xdbft::ft
