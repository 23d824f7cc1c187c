// replay_grid: the simulator. Set-up instantiates every grid point —
// {Q5, Q1C, Q2C, pipelined} x the five schemes x three MTBF regimes, plus
// Q5 under correlated bursts — with ApplyScheme and BaselineRuntime. Each
// op generates a fresh seeded trace set for the next point of a
// seed-permuted round-robin and replays it with ClusterSimulator::RunMany,
// so the fine-grained, full-restart and WAL-replay kernels all run.
#include <bit>
#include <cstring>

#include "cluster/simulator.h"
#include "cluster/workload.h"
#include "common/rng.h"
#include "ft/scheme.h"
#include "harness.h"
#include "tpch/queries.h"

namespace perfbench {
namespace {

using namespace xdbft;

constexpr int kNodes = 10;
constexpr int kTracesPerOp = 10;
/// Trace sets per point cycle through this many seeds, so verification
/// can replay every distinct (point, seed) pair once.
constexpr uint64_t kSeedsPerPoint = 256;
constexpr double kMtbfs[] = {600.0, 3600.0, 86400.0};
constexpr double kBurstMtbf = 1800.0;
/// Traced ops per second of requested run length.
constexpr uint64_t kTracedOpsPerSecond = 2000;
/// Round-robin cycles of untimed warm-up ops in set-up.
constexpr uint64_t kWarmupCycles = 40;

const ft::SchemeKind kSchemes[] = {
    ft::SchemeKind::kAllMat, ft::SchemeKind::kNoMatLineage,
    ft::SchemeKind::kNoMatRestart, ft::SchemeKind::kCostBased,
    ft::SchemeKind::kWriteAheadLineage};

struct Point {
  ft::SchemePlan scheme;
  cost::ClusterStats cluster;
  double baseline = 0.0;
  cluster::SimulationOptions sim;
};

/// Bit-exact summary of one RunMany.
struct Outcome {
  uint64_t runtime_bits = 0;
  int64_t restarts = 0;
  int64_t failures_hit = 0;
  int64_t aborted = 0;
  bool operator==(const Outcome& o) const {
    return std::memcmp(this, &o, sizeof(Outcome)) == 0;
  }
};

/// Outcomes of one (point, seed slot). A replay is deterministic, so only
/// the first outcome is kept and every later one is compared with it;
/// memory stays bounded by the grid, not by the op count.
struct SlotRecord {
  bool replayed = false;
  Outcome first;
  uint64_t ops = 0;
  uint64_t differing = 0;
};

const char* RunManySpan(ft::RecoveryMode mode) {
  switch (mode) {
    case ft::RecoveryMode::kFineGrained:
      return "cluster.RunMany.fine_grained";
    case ft::RecoveryMode::kFullRestart:
      return "cluster.RunMany.full_restart";
    case ft::RecoveryMode::kWalReplay:
      return "cluster.RunMany.wal_replay";
  }
  return "cluster.RunMany";
}

class ReplayGrid final : public Workload {
 public:
  explicit ReplayGrid(uint64_t seed) : seed_(seed) {}

  int threads() const override { return 1; }
  uint64_t TracedOps(int seconds) const override {
    return kTracedOpsPerSecond * static_cast<uint64_t>(seconds);
  }
  uint64_t OpsPerCycle() const override { return points_.size(); }

  Status Setup(Tracer* tracer) override {
    tpch::TpchPlanConfig cfg;
    cfg.scale_factor = 100.0;
    cfg.num_nodes = kNodes;
    std::vector<plan::Plan> plans;
    for (const tpch::TpchQuery q :
         {tpch::TpchQuery::kQ5, tpch::TpchQuery::kQ1C,
          tpch::TpchQuery::kQ2C}) {
      XDBFT_ASSIGN_OR_RETURN(plan::Plan p, tpch::BuildQuery(q, cfg));
      plans.push_back(std::move(p));
    }
    plans.push_back(cluster::MakePipelinedQuery(6, 10.0));

    points_.clear();
    for (const plan::Plan& p : plans) {
      for (const double mtbf : kMtbfs) {
        for (const ft::SchemeKind kind : kSchemes) {
          XDBFT_RETURN_NOT_OK(
              AddPoint(p, cost::MakeCluster(kNodes, mtbf, 1.0), kind, tracer));
        }
      }
    }
    cost::ClusterStats burst = cost::MakeCluster(kNodes, 86400.0, 1.0);
    burst.burst_mtbf_seconds = kBurstMtbf;
    burst.burst_fanout = 0.5;
    for (const ft::SchemeKind kind : kSchemes) {
      XDBFT_RETURN_NOT_OK(AddPoint(plans.front(), burst, kind, tracer));
    }

    order_.resize(points_.size());
    for (size_t i = 0; i < order_.size(); ++i) {
      order_[i] = static_cast<uint32_t>(i);
    }
    Rng rng(Mix(seed_, 31));
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.NextBounded(i)]);
    }
    // Warm-up: a fixed number of round-robin cycles.
    for (uint64_t i = 0; i < kWarmupCycles * points_.size(); ++i) {
      XDBFT_RETURN_NOT_OK(RunOp(i, nullptr));
    }
    return Reset(false);
  }

  Status Reset(bool traced) override {
    traced_ = traced;
    slots_.assign(points_.size() * kSeedsPerPoint, SlotRecord{});
    restarts_ = failures_hit_ = aborted_ = 0;
    return Status::OK();
  }

  Status RunOp(uint64_t i, Tracer* tracer) override {
    const uint32_t point = order_[i % order_.size()];
    const uint64_t slot = (i / order_.size()) % kSeedsPerPoint;
    last_point_ = point;
    last_slot_ = static_cast<uint32_t>(slot);
    XDBFT_ASSIGN_OR_RETURN(last_, Replay(point, TraceSeed(point, slot), tracer));
    return Status::OK();
  }

  void RecordOp(uint64_t, const Status& status) override {
    if (!status.ok()) return;  // counted by the runner
    SlotRecord& r = slots_[last_point_ * kSeedsPerPoint + last_slot_];
    const Outcome o = Pack(last_);
    if (!r.replayed) {
      r.replayed = true;
      r.first = o;
    } else if (!(o == r.first)) {
      ++r.differing;
    }
    ++r.ops;
    if (traced_) {
      restarts_ += last_.restarts;
      failures_hit_ += last_.failures_hit;
      aborted_ += last_.aborted;
    }
  }

  Verification Verify(bool corrupt) override {
    Verification v;
    if (corrupt) {
      for (SlotRecord& r : slots_) {
        if (r.replayed) {
          r.first.runtime_bits ^= 1;
          break;
        }
      }
    }
    // A failure-free replay of the plan without extra materialization
    // must reproduce BaselineRuntime exactly.
    std::vector<bool> point_ok(points_.size(), true);
    for (size_t p = 0; p < points_.size(); ++p) {
      const Point& pt = points_[p];
      cluster::ClusterSimulator sim(pt.cluster, pt.sim);
      cluster::ClusterTrace never = cluster::ClusterTrace::FromScheduled(
          std::vector<std::vector<double>>(kNodes));
      auto r = sim.Run(pt.scheme.plan,
                       ft::MaterializationConfig::NoMat(pt.scheme.plan),
                       ft::RecoveryMode::kFineGrained, never);
      if (!r.ok() || r->runtime != pt.baseline) {
        point_ok[p] = false;
        if (v.errors.size() < 5) {
          v.errors.push_back("replay_grid: failure-free replay of point " +
                             std::to_string(p) + " differs from baseline");
        }
      }
    }
    // Every recorded RunMany must repeat bit-exactly.
    for (size_t i = 0; i < slots_.size(); ++i) {
      const SlotRecord& r = slots_[i];
      if (!r.replayed) continue;
      const auto point = static_cast<uint32_t>(i / kSeedsPerPoint);
      auto again = Replay(point, TraceSeed(point, i % kSeedsPerPoint), nullptr);
      if (point_ok[point] && again.ok() && Pack(*again) == r.first) {
        v.ok_ops += r.ops - r.differing;
        if (r.differing == 0) continue;
      }
      if (v.errors.size() < 5) {
        v.errors.push_back("replay_grid: RunMany of point " +
                           std::to_string(point) + " did not repeat");
      }
    }
    return v;
  }

  Status EndToEnd(MetricSink* out) override {
    // Mean simulated overhead of the cost-based points over their
    // baselines, on fixed traces (seeds 0-9).
    double sum = 0.0;
    int n = 0;
    for (size_t p = 0; p < points_.size(); ++p) {
      if (points_[p].scheme.kind != ft::SchemeKind::kCostBased) continue;
      XDBFT_ASSIGN_OR_RETURN(cluster::SimulationResult r,
                             Replay(static_cast<uint32_t>(p), 0, nullptr));
      sum += r.runtime / points_[p].baseline - 1.0;
      ++n;
    }
    out->Set("cost_based_overhead_pct", 100.0 * sum / n);
    return Status::OK();
  }

  Status PerLayer(const std::vector<Span>& spans, MetricSink* out) override {
    const auto setup = SummarizeSpans(spans, false);
    const auto timed = SummarizeSpans(spans, true);
    const auto get = [](const std::map<std::string, SpanTotals>& m,
                        const char* name) {
      const auto it = m.find(name);
      return it == m.end() ? SpanTotals{} : it->second;
    };
    out->Set("ft.apply_scheme_us", get(setup, "ft.ApplyScheme").mean_us());
    out->Set("cluster.baseline_us",
             get(setup, "cluster.BaselineRuntime").mean_us());
    out->Set("cluster.trace_gen_us",
             get(timed, "cluster.GenerateTraceSet").mean_us());
    double run_s = 0.0;
    uint64_t runs = 0;
    const std::pair<const char*, const char*> kernels[] = {
        {"cluster.run_many_us.fine_grained", "cluster.RunMany.fine_grained"},
        {"cluster.run_many_us.full_restart", "cluster.RunMany.full_restart"},
        {"cluster.run_many_us.wal_replay", "cluster.RunMany.wal_replay"}};
    for (const auto& [metric, span] : kernels) {
      const SpanTotals t = get(timed, span);
      out->Set(metric, t.mean_us());
      run_s += t.total_s;
      runs += t.calls * kTracesPerOp;
    }
    out->Set("cluster.sim_runs_per_s",
             run_s > 0.0 ? static_cast<double>(runs) / run_s : 0.0);
    out->Set("cluster.restarts", static_cast<double>(restarts_));
    out->Set("cluster.failures_hit", static_cast<double>(failures_hit_));
    out->Set("cluster.aborted", static_cast<double>(aborted_));
    return Status::OK();
  }

 private:
  Status AddPoint(const plan::Plan& plan, const cost::ClusterStats& stats,
                  ft::SchemeKind kind, Tracer* tracer) {
    Point pt;
    pt.cluster = stats;
    const ft::FtCostContext ctx{stats, cost::CostModelParams{}};
    pt.sim.pipe_constant = ctx.model.pipe_constant;
    pt.sim.wal_write_cost = ctx.model.wal_write_cost;
    pt.sim.wal_replay_factor = ctx.model.wal_replay_factor;
    {
      ScopedSpan span(tracer, "ft.ApplyScheme");
      XDBFT_ASSIGN_OR_RETURN(pt.scheme, ft::ApplyScheme(kind, plan, ctx));
    }
    cluster::ClusterSimulator sim(stats, pt.sim);
    {
      ScopedSpan span(tracer, "cluster.BaselineRuntime");
      XDBFT_ASSIGN_OR_RETURN(pt.baseline, sim.BaselineRuntime(plan));
    }
    points_.push_back(std::move(pt));
    return Status::OK();
  }

  uint64_t TraceSeed(uint32_t point, uint64_t slot) const {
    return Mix(Mix(seed_, 32 + point), slot);
  }

  Result<cluster::SimulationResult> Replay(uint32_t point, uint64_t seed,
                                           Tracer* tracer) const {
    const Point& pt = points_[point];
    std::vector<cluster::ClusterTrace> traces;
    {
      ScopedSpan span(tracer, "cluster.GenerateTraceSet");
      if (pt.cluster.has_bursts()) {
        cluster::BurstOptions burst;
        burst.mean_interval = pt.cluster.burst_mtbf_seconds;
        burst.background_mtbf = pt.cluster.mtbf_seconds;
        traces = cluster::GenerateBurstTraceSet(pt.cluster, burst,
                                                kTracesPerOp, seed);
      } else {
        traces = cluster::GenerateTraceSet(pt.cluster, kTracesPerOp, seed);
      }
    }
    cluster::ClusterSimulator sim(pt.cluster, pt.sim);
    ScopedSpan span(tracer, RunManySpan(pt.scheme.recovery));
    return sim.RunMany(pt.scheme, traces);
  }

  static Outcome Pack(const cluster::SimulationResult& r) {
    Outcome o;
    o.runtime_bits = std::bit_cast<uint64_t>(r.runtime);
    o.restarts = r.restarts;
    o.failures_hit = r.failures_hit;
    o.aborted = r.aborted;
    return o;
  }

  uint64_t seed_;
  std::vector<Point> points_;
  std::vector<uint32_t> order_;
  bool traced_ = false;
  uint32_t last_point_ = 0;
  uint32_t last_slot_ = 0;
  cluster::SimulationResult last_;
  std::vector<SlotRecord> slots_;
  int64_t restarts_ = 0;
  int64_t failures_hit_ = 0;
  int64_t aborted_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeReplayGrid(uint64_t seed) {
  return std::make_unique<ReplayGrid>(seed);
}

}  // namespace perfbench
