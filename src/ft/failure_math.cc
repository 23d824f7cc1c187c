#include "ft/failure_math.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace xdbft::ft {

double FailureParams::effective_mtbf_cost() const {
  const double hazard = burst_hazard();
  // Exact identity when bursts are off: returning mtbf_cost directly (not
  // 1/(1/mtbf)) keeps the correlated-off path bit-for-bit identical.
  if (!(hazard > 0.0)) return mtbf_cost;
  return 1.0 / (1.0 / mtbf_cost + hazard);
}

double FailureParams::burst_failure_share() const {
  const double hazard = burst_hazard();
  if (!(hazard > 0.0)) return 0.0;
  return hazard / (1.0 / mtbf_cost + hazard);
}

Status FailureParams::Validate() const {
  if (!(mtbf_cost > 0.0) || !std::isfinite(mtbf_cost)) {
    return Status::InvalidArgument("mtbf_cost must be positive and finite");
  }
  if (mttr_cost < 0.0 || !std::isfinite(mttr_cost)) {
    return Status::InvalidArgument("mttr_cost must be non-negative");
  }
  if (!(success_target > 0.0) || !(success_target < 1.0)) {
    return Status::InvalidArgument("success_target must be in (0, 1)");
  }
  if (burst_rate_cost < 0.0 || !std::isfinite(burst_rate_cost)) {
    return Status::InvalidArgument(
        "burst_rate_cost must be non-negative and finite");
  }
  if (!(burst_hit_fraction > 0.0) || burst_hit_fraction > 1.0) {
    return Status::InvalidArgument("burst_hit_fraction must be in (0, 1]");
  }
  return Status::OK();
}

double SuccessProbability(double t, double mtbf_cost) {
  if (t <= 0.0) return 1.0;
  if (!(mtbf_cost > 0.0)) return 0.0;
  return std::exp(-t / mtbf_cost);
}

double FailureProbability(double t, double mtbf_cost) {
  if (t <= 0.0) return 0.0;
  if (!(mtbf_cost > 0.0)) return 1.0;
  // 1 - e^{-x} computed stably.
  return -std::expm1(-t / mtbf_cost);
}

double WastedTimeExact(double t, double mtbf_cost) {
  if (t <= 0.0) return 0.0;
  if (!(mtbf_cost > 0.0) || !std::isfinite(mtbf_cost)) return 0.0;
  const double x = t / mtbf_cost;
  if (x < 1e-9) {
    // Series expansion of MTBF - t/(e^x - 1) = t/2 - t*x/12 + O(x^3).
    return t * (0.5 - x / 12.0);
  }
  if (x > 700.0) {
    // e^x overflows (and for t = inf the quotient would be inf/inf = NaN);
    // the exact value has already converged to its asymptote, MTBF.
    return mtbf_cost;
  }
  return mtbf_cost - t / std::expm1(x);
}

double WastedTimeApprox(double t) { return std::max(t, 0.0) / 2.0; }

double WastedTime(double t, const FailureParams& params) {
  return params.exact_wasted_time
             ? WastedTimeExact(t, params.effective_mtbf_cost())
             : WastedTimeApprox(t);
}

double ExpectedAttempts(double t, double mtbf_cost, double success_target) {
  if (t <= 0.0) return 0.0;
  if (!(success_target > 0.0)) return 0.0;
  // S == 1.0 would give log1p(-1) = -inf (and -inf / -inf = NaN when eta
  // also rounds to 1). Clamp one ulp below 1: the caller asked for
  // "practically certain", which the largest-representable S delivers
  // without poisoning downstream arithmetic with NaN/inf.
  const double s = std::min(success_target, 0x1.fffffffffffffp-1);
  const double x = t / mtbf_cost;
  // log(eta) = log(1 - e^{-x}) without forming eta: for x > ~36 the
  // subtraction rounds eta to exactly 1 and log(eta) to 0, turning a(c)
  // into a spurious infinity while the true value (~ -log(1-S) e^x) is
  // still comfortably representable up to x ~ 700.
  const double log_eta = std::log1p(-std::exp(-x));
  if (!(log_eta < 0.0)) {
    // e^{-x} underflowed: the true a(c) overflows double anyway.
    return std::numeric_limits<double>::infinity();
  }
  const double a = std::log1p(-s) / log_eta - 1.0;
  return std::max(a, 0.0);
}

double OperatorTotalRuntime(double t, const FailureParams& params,
                            double extra_cost_per_attempt,
                            double replay_factor) {
  if (t <= 0.0) return 0.0;
  const double a = ExpectedAttempts(t, params.effective_mtbf_cost(),
                                    params.success_target);
  const double w = WastedTime(t, params);
  // Keep the historical summation order: replay_factor == 1.0 multiplies
  // w exactly, and the extra term is only added when present (also avoids
  // inf * 0 = NaN when a(c) overflows), so the defaults stay bit-identical
  // to plain Eq. 8.
  const double base = t + a * (replay_factor * w) + a * params.mttr_cost;
  if (!(extra_cost_per_attempt > 0.0)) return base;
  return base + a * extra_cost_per_attempt;
}

double QuerySuccessProbability(double t, double mtbf_per_node,
                               int num_nodes) {
  if (t <= 0.0) return 1.0;
  if (num_nodes <= 0) return 1.0;  // no nodes -> nothing can fail
  if (!(mtbf_per_node > 0.0)) return 0.0;  // failures are certain
  return std::exp(-t * static_cast<double>(num_nodes) / mtbf_per_node);
}

double QuerySuccessProbabilityCorrelated(double t, double mtbf_per_node,
                                         int num_nodes,
                                         double total_burst_rate) {
  if (!(total_burst_rate > 0.0)) {
    return QuerySuccessProbability(t, mtbf_per_node, num_nodes);
  }
  if (t <= 0.0) return 1.0;
  double independent_rate = 0.0;
  if (num_nodes > 0) {
    if (!(mtbf_per_node > 0.0)) return 0.0;
    independent_rate = static_cast<double>(num_nodes) / mtbf_per_node;
  }
  return std::exp(-t * (independent_rate + total_burst_rate));
}

double SuccessWithinAttempts(double t, double mtbf_cost, double attempts) {
  const double eta = FailureProbability(t, mtbf_cost);
  if (eta <= 0.0) return 1.0;
  // N = -1 means zero total attempts: success is impossible (P = 0), and
  // anything below -1 is nonsensical — clamp rather than return a negative
  // "probability" (eta^{N+1} > 1 for N < -1).
  const double n = std::max(attempts, -1.0);
  return 1.0 - std::pow(eta, n + 1.0);
}

}  // namespace xdbft::ft
