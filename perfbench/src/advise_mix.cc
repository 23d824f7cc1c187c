// advise_mix: the advise path. One client asks an AdvisorService for the
// best FT plan of one query after another and feeds each query's execution
// back with RecordObservation, the loop the service documents. The cache
// holds fewer entries than the key population.
//
// Keys are plan classes (TPC-H plans parsed from plan text, and the
// optimizer's top-k join orders of Q5) crossed with cluster regimes (MTBF
// 10 min - 1 week, correlated bursts, placement groups) and with write-ahead
// lineage off and on. The traffic is the repository's advisor load model
// (xdbft_advisor --serve, bench/perf_advisor): key i is class i mod C, the
// first 4 keys form the hot set, and 90% of requests pick a hot key, the
// rest a uniform cold key. The seed draws the request stream and the
// observed failures; which keys are hot is fixed.
//
// Observations come from the cluster the service was configured for (10
// nodes, per-node MTBF 10 min): a query that runs for its plan's estimated
// runtime sees Poisson failures at that rate. Requests that assume another
// MTBF therefore drift past the service's default drift threshold and are
// evicted by the next observation, so drift invalidations keep coming.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <optional>

#include "api/advisor_service.h"
#include "cluster/simulator.h"
#include "common/rng.h"
#include "ft/scheme.h"
#include "harness.h"
#include "optimizer/join_enumerator.h"
#include "plan/plan_text.h"
#include "tpch/q5_join_graph.h"
#include "tpch/queries.h"

namespace perfbench {
namespace {

using namespace xdbft;

constexpr int kNodes = 10;
constexpr double kScaleFactor = 100.0;
/// The advisor load model of xdbft_advisor --serve and perf_advisor.
constexpr size_t kHotSet = 4;
constexpr double kHotFraction = 0.9;
/// Below the 42 keys whose regime matches the observed MTBF (the keys
/// drift never evicts), so LRU evictions and memo warm starts happen.
constexpr size_t kCacheCapacity = 32;
/// Traced ops per second of requested run length.
constexpr uint64_t kTracedOpsPerSecond = 1000;

const tpch::TpchQuery kTextQueries[] = {
    tpch::TpchQuery::kQ1, tpch::TpchQuery::kQ3, tpch::TpchQuery::kQ5,
    tpch::TpchQuery::kQ1C, tpch::TpchQuery::kQ2C};
const int kTopK[] = {8, 32};
/// The first is the MTBF of the service's cluster, which observations
/// report; the key regimes start with it, so the hot keys never drift.
const double kMtbfs[] = {600.0, 3600.0, 86400.0, 604800.0};

struct Regime {
  cost::ClusterStats cluster;
  cost::CostModelParams model;
};

std::vector<Regime> MakeRegimes() {
  std::vector<Regime> out;
  for (const double mtbf : kMtbfs) {
    for (int variant = 0; variant < 3; ++variant) {
      for (const bool wal : {false, true}) {
        Regime r;
        r.cluster = cost::MakeCluster(kNodes, mtbf, 1.0);
        if (variant >= 1) {  // correlated bursts
          r.cluster.burst_mtbf_seconds = 4.0 * mtbf;
          r.cluster.burst_fanout = 0.5;
        }
        if (variant == 2) {  // placement-aware enumeration
          r.cluster.num_placement_groups = 4;
        }
        r.model.wal_enabled = wal;
        out.push_back(r);
      }
    }
  }
  return out;
}

/// One served (or reference) answer, packed for bit comparison.
struct Answer {
  uint64_t plan_index = 0;
  uint64_t cost_bits = 0;
  uint64_t config_bits[2] = {0, 0};
  uint64_t config_size = 0;

  bool operator==(const Answer& o) const {
    return std::memcmp(this, &o, sizeof(Answer)) == 0;
  }
};

Answer Pack(const ft::SchemePlan& p) {
  Answer a;
  a.plan_index = p.plan_index;
  a.cost_bits = std::bit_cast<uint64_t>(p.estimated_cost);
  a.config_size = p.config.size();
  for (size_t i = 0; i < p.config.size() && i < 128; ++i) {
    if (p.config.materialized(static_cast<plan::OpId>(i))) {
      a.config_bits[i / 64] |= uint64_t{1} << (i % 64);
    }
  }
  return a;
}

/// Served answers of one key. A key's answer never changes, so only the
/// first is kept and every later one is compared with it; memory stays
/// bounded by the population, not by the op count.
struct KeyRecord {
  bool served = false;
  Answer first;
  uint64_t ops = 0;
  uint64_t differing = 0;  ///< later answers unequal to `first`
};

class AdviseMix final : public Workload {
 public:
  explicit AdviseMix(uint64_t seed) : seed_(seed), regimes_(MakeRegimes()) {
    // Inputs: plan text as `xdbft_advisor --plan` reads it.
    tpch::TpchPlanConfig cfg;
    cfg.scale_factor = kScaleFactor;
    cfg.num_nodes = kNodes;
    for (const tpch::TpchQuery q : kTextQueries) {
      plan_texts_.push_back(plan::PlanToText(*tpch::BuildQuery(q, cfg)));
    }
  }

  int threads() const override { return 1; }
  uint64_t TracedOps(int seconds) const override {
    return kTracedOpsPerSecond * static_cast<uint64_t>(seconds);
  }

  Status Setup(Tracer* tracer) override {
    std::vector<std::vector<plan::Plan>> classes;
    for (const std::string& text : plan_texts_) {
      ScopedSpan span(tracer, "plan.PlanFromText");
      XDBFT_ASSIGN_OR_RETURN(plan::Plan p, plan::PlanFromText(text));
      classes.push_back({std::move(p)});
    }
    tpch::TpchPlanConfig cfg;
    cfg.scale_factor = kScaleFactor;
    cfg.num_nodes = kNodes;
    for (const int k : kTopK) {
      ScopedSpan span(tracer, "optimizer.TopK");
      XDBFT_ASSIGN_OR_RETURN(optimizer::JoinGraph graph,
                             tpch::MakeQ5JoinGraph(cfg));
      const optimizer::PhysicalCostParams params =
          tpch::MakePhysicalCostParams(cfg);
      optimizer::JoinTreeArena arena;
      XDBFT_ASSIGN_OR_RETURN(
          std::vector<int> roots,
          optimizer::EnumerateTopKJoinTrees(graph, k, params, &arena));
      std::vector<plan::Plan> candidates;
      for (const int root : roots) {
        XDBFT_ASSIGN_OR_RETURN(
            plan::Plan p, optimizer::EmitPlan(arena, root, graph, params));
        candidates.push_back(std::move(p));
      }
      classes.push_back(std::move(candidates));
    }
    // Population: key i = class i % C under regime i / C, so the hot set
    // [0, kHotSet) holds different plans under the service's own cluster.
    population_.clear();
    for (const Regime& r : regimes_) {
      for (const auto& candidates : classes) {
        api::AdvisorRequest req;
        req.candidates = candidates;
        req.cluster = r.cluster;
        req.model = r.model;
        population_.push_back(std::move(req));
      }
    }
    for (const auto& req : population_) {
      for (const auto& p : req.candidates) {
        if (p.num_nodes() > 128) {
          return Status::InvalidArgument("plan too large to pack");
        }
      }
    }

    return Reset(false);
  }

  Status Reset(bool traced) override {
    traced_ = traced;
    api::AdvisorServiceOptions opts;
    opts.cache_capacity = kCacheCapacity;
    opts.server_threads = 0;
    opts.enumeration.num_threads = 1;
    service_ = std::make_unique<api::AdvisorService>(
        regimes_.front().cluster, cost::CostModelParams{}, opts);
    // Warm-up: one query per key, cold keys first, so the hot keys end up
    // resident. The same keys for every seed.
    op_rng_.Seed(Mix(seed_, 12));
    for (size_t key = population_.size(); key-- > 0;) {
      XDBFT_RETURN_NOT_OK(Query(key, nullptr).status());
    }
    keys_.assign(population_.size(), KeyRecord{});
    hit_.clear();
    missed_.assign(population_.size(), false);
    prev_hits_ = service_->stats().hits;
    base_stats_ = service_->stats();
    return Status::OK();
  }

  Status RunOp(uint64_t, Tracer* tracer) override {
    const size_t key =
        op_rng_.NextDouble() < kHotFraction
            ? op_rng_.NextBounded(kHotSet)
            : kHotSet + op_rng_.NextBounded(population_.size() - kHotSet);
    last_key_ = static_cast<uint32_t>(key);
    last_ = Query(key, tracer);
    return last_.status();
  }

  void RecordOp(uint64_t, const Status& status) override {
    if (traced_) {
      const uint64_t hits = service_->stats().hits;
      hit_.push_back(hits > prev_hits_);
      if (!hit_.back()) missed_[last_key_] = true;
      prev_hits_ = hits;
    }
    if (!status.ok()) return;  // counted by the runner
    KeyRecord& k = keys_[last_key_];
    const Answer a = Pack(*last_);
    if (!k.served) {
      k.served = true;
      k.first = a;
    } else if (!(a == k.first)) {
      ++k.differing;
    }
    ++k.ops;
  }

  Verification Verify(bool corrupt) override {
    Verification v;
    if (corrupt) {
      for (KeyRecord& k : keys_) {
        if (k.served) {
          k.first.cost_bits ^= 1;
          break;
        }
      }
    }
    for (size_t key = 0; key < keys_.size(); ++key) {
      const KeyRecord& k = keys_[key];
      if (!k.served) continue;
      const ft::SchemePlan* ref = ReferencePlan(key);
      if (ref != nullptr && k.first == Pack(*ref)) {
        v.ok_ops += k.ops - k.differing;
        if (k.differing == 0) continue;
      }
      if (v.errors.size() < 5) {
        v.errors.push_back("advise_mix: key " + std::to_string(key) +
                           " served an answer that differs from "
                           "ApplyCostBasedScheme");
      }
    }
    const api::AdvisorServiceStats s = service_->stats();
    if (s.bypassed != base_stats_.bypassed ||
        s.coalesced != base_stats_.coalesced) {
      v.errors.push_back("advise_mix: single client bypassed or coalesced");
    }
    return v;
  }

  Status EndToEnd(MetricSink* out) override {
    // Mean simulated overhead of every key's cost-based plan over its
    // failure-free baseline, on fixed traces (seeds 0-9).
    double sum = 0.0;
    for (size_t key = 0; key < population_.size(); ++key) {
      const ft::SchemePlan* ref = ReferencePlan(key);
      if (ref == nullptr) return Status::Internal("no reference plan");
      const ft::SchemePlan& p = *ref;
      const api::AdvisorRequest& req = population_[key];
      cluster::SimulationOptions sim;
      sim.wal_write_cost = req.model.wal_write_cost;
      sim.wal_replay_factor = req.model.wal_replay_factor;
      cluster::ClusterSimulator simulator(req.cluster, sim);
      XDBFT_ASSIGN_OR_RETURN(double baseline,
                             simulator.BaselineRuntime(p.plan));
      std::vector<cluster::ClusterTrace> traces;
      if (req.cluster.has_bursts()) {
        cluster::BurstOptions burst;
        burst.mean_interval = req.cluster.burst_mtbf_seconds;
        burst.background_mtbf = req.cluster.mtbf_seconds;
        traces = cluster::GenerateBurstTraceSet(req.cluster, burst, 10, 0);
      } else {
        traces = cluster::GenerateTraceSet(req.cluster, 10, 0);
      }
      XDBFT_ASSIGN_OR_RETURN(cluster::SimulationResult sr,
                             simulator.RunMany(p, traces));
      sum += sr.runtime / baseline - 1.0;
    }
    out->Set("cost_based_overhead_pct",
             100.0 * sum / static_cast<double>(population_.size()));
    return Status::OK();
  }

  Status PerLayer(const std::vector<Span>& spans, MetricSink* out) override {
    const auto setup = SummarizeSpans(spans, false);
    const auto get = [](const std::map<std::string, SpanTotals>& m,
                        const char* name) {
      const auto it = m.find(name);
      return it == m.end() ? SpanTotals{} : it->second;
    };
    out->Set("plan.parse_us", get(setup, "plan.PlanFromText").mean_us());
    out->Set("optimizer.topk_us", get(setup, "optimizer.TopK").mean_us());

    SpanTotals hit, miss;
    for (const Span& s : spans) {
      if (s.op < 0 || std::strcmp(s.name, "api.Advise") != 0) continue;
      SpanTotals& t = hit_[static_cast<size_t>(s.op)] ? hit : miss;
      ++t.calls;
      t.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
    const auto timed = SummarizeSpans(spans, true);
    out->Set("api.advise_hit_us", hit.mean_us());
    out->Set("api.advise_miss_us", miss.mean_us());
    out->Set("api.record_observation_us",
             get(timed, "api.RecordObservation").mean_us());
    const api::AdvisorServiceStats s = service_->stats();
    const auto delta = [&](uint64_t now, uint64_t base) {
      return static_cast<double>(now - base);
    };
    const double requests = delta(s.requests, base_stats_.requests);
    out->Set("api.hit_rate",
             requests == 0 ? 0.0 : delta(s.hits, base_stats_.hits) / requests);
    out->Set("api.evictions", delta(s.evictions, base_stats_.evictions));
    out->Set("api.memo_warm_starts",
             delta(s.memo_warm_starts, base_stats_.memo_warm_starts));
    out->Set("api.drift_invalidations",
             delta(s.drift_invalidations, base_stats_.drift_invalidations));
    out->Set("api.bypassed", delta(s.bypassed, base_stats_.bypassed));
    out->Set("api.coalesced", delta(s.coalesced, base_stats_.coalesced));

    // ft: one-shot FindBest on every key that missed in the traced pass.
    ft::EnumerationStats total;
    double find_s = 0.0;
    uint64_t calls = 0;
    for (size_t key = 0; key < population_.size(); ++key) {
      if (!missed_[key]) continue;
      const api::AdvisorRequest& req = population_[key];
      ft::FtCostContext ctx{req.cluster, req.model};
      ft::FtPlanEnumerator enumerator(ctx, SerialEnumeration());
      const int64_t t0 = NowNs();
      XDBFT_RETURN_NOT_OK(enumerator.FindBest(req.candidates).status());
      find_s += SecondsSince(t0);
      ++calls;
      total.MergeFrom(enumerator.stats());
    }
    out->Set("ft.find_best_us",
             calls == 0 ? 0.0 : find_s * 1e6 / static_cast<double>(calls));
    out->Set("ft.configs_enumerated",
             static_cast<double>(total.ft_plans_enumerated));
    out->Set("ft.paths_evaluated", static_cast<double>(total.paths_evaluated));
    out->Set("ft.rule1_ops", static_cast<double>(total.rule1_ops_marked));
    out->Set("ft.rule2_ops", static_cast<double>(total.rule2_ops_marked));
    out->Set("ft.rule3_rejections",
             static_cast<double>(total.rule3_rejections));
    const double memo_lookups = static_cast<double>(total.rule3_memo_hits +
                                                    total.rule3_memo_misses);
    out->Set("ft.memo_hit_ratio",
             memo_lookups == 0.0
                 ? 0.0
                 : static_cast<double>(total.rule3_memo_hits) / memo_lookups);
    const double unpruned = static_cast<double>(total.total_ft_plans_unpruned);
    const double fully_evaluated = static_cast<double>(
        total.ft_plans_enumerated - total.rule3_rejections);
    out->Set("ft.prune_ratio",
             unpruned == 0.0 ? 0.0 : 1.0 - fully_evaluated / unpruned);
    return Status::OK();
  }

 private:
  static ft::EnumerationOptions SerialEnumeration() {
    ft::EnumerationOptions o;
    o.num_threads = 1;
    return o;
  }

  /// One-shot ApplyCostBasedScheme of `key`, computed once; null on error.
  const ft::SchemePlan* ReferencePlan(size_t key) {
    references_.resize(population_.size());
    if (!references_[key].has_value()) {
      const api::AdvisorRequest& req = population_[key];
      auto ref = ft::ApplyCostBasedScheme(
          req.candidates, ft::FtCostContext{req.cluster, req.model},
          SerialEnumeration());
      if (!ref.ok()) return nullptr;
      references_[key] = std::move(*ref);
    }
    return &*references_[key];
  }

  /// One query's round trip: Advise, then RecordObservation of the
  /// query's execution on the service's cluster.
  Result<ft::SchemePlan> Query(size_t key, Tracer* tracer) {
    Result<ft::SchemePlan> plan = ft::SchemePlan{};
    {
      ScopedSpan span(tracer, "api.Advise");
      plan = service_->Advise(population_[key]);
    }
    if (!plan.ok()) return plan;
    // Failures of a run of the plan's estimated runtime on kNodes nodes
    // at the service's per-node MTBF: a Poisson count.
    ft::ObservedExecution obs;
    obs.source = "ft_executor";
    obs.runtime_seconds = plan->estimated_cost;
    const double mean =
        obs.runtime_seconds * kNodes / regimes_.front().cluster.mtbf_seconds;
    for (double t = -std::log(op_rng_.NextDoubleOpenZero()); t < mean;
         t -= std::log(op_rng_.NextDoubleOpenZero())) {
      ++obs.failures;
    }
    obs.recovery_executions = obs.failures;
    ScopedSpan span(tracer, "api.RecordObservation");
    service_->RecordObservation(obs, kNodes);
    return plan;
  }

  uint64_t seed_;
  std::vector<Regime> regimes_;
  std::vector<std::string> plan_texts_;
  std::vector<api::AdvisorRequest> population_;

  std::unique_ptr<api::AdvisorService> service_;
  Rng op_rng_;
  bool traced_ = false;
  uint64_t prev_hits_ = 0;
  api::AdvisorServiceStats base_stats_;

  Result<ft::SchemePlan> last_ = ft::SchemePlan{};
  uint32_t last_key_ = 0;
  std::vector<KeyRecord> keys_;
  std::vector<bool> hit_;     // traced pass: op i was a cache hit
  std::vector<bool> missed_;  // traced pass: key missed at least once
  std::vector<std::optional<ft::SchemePlan>> references_;
};

}  // namespace

std::unique_ptr<Workload> MakeAdviseMix(uint64_t seed) {
  return std::make_unique<AdviseMix>(seed);
}

}  // namespace perfbench
