// validate_tpch: the validate path. Set-up generates TPC-H data and
// distributes it over 8 nodes; each op is the next job of a fixed
// round-robin deck: vectorized QueryRunner queries (Q1, Q3, Q5, Q1C, Q2C)
// and FaultTolerantExecutor runs (Q5 no-mat clean and with a seeded
// injector, Q5 under the analytic cost-based configuration, the shuffle
// plan, and the filter chain with write-ahead lineage off and on).
//
// The engine runs at 2 threads: the QueryRunner's morsel pool and the FT
// executor's shared pool each have one worker, and the calling thread
// helps. The workers run on one CPU and the calling thread on another. The cost-based configuration comes from the analytic Q5 plan
// (tpch::BuildQuery), never from measured times.
#include <algorithm>
#include <cstring>
#include <tuple>

#include "cluster/simulator.h"
#include "common/rng.h"
#include "common/task_pool.h"
#include "datagen/tpch_gen.h"
#include "engine/ft_executor.h"
#include "engine/query_runner.h"
#include "engine/stage_plan.h"
#include "ft/scheme.h"
#include "harness.h"
#include "tpch/queries.h"

namespace perfbench {
namespace {

using namespace xdbft;

constexpr int kNodes = 8;
constexpr int kEngineThreads = 2;
constexpr double kScaleFactor = 0.02;
constexpr int kChainDepth = 4;
/// Each injector victim (one partition per partitioned stage) fails this
/// many times before succeeding.
constexpr int kVictimFailures = 2;
/// Analytic model the cost-based Q5 configuration is chosen under.
constexpr double kAnalyticScaleFactor = 100.0;
constexpr double kAnalyticMtbf = 3600.0;
/// Traced deck passes per second of requested run length.
constexpr uint64_t kTracedOpsPerSecond = 5;

enum class Query { kQ1, kQ3, kQ5, kQ1C, kQ2C };

struct Job {
  const char* name;
  const char* span;  ///< static: spans keep the pointer
  bool is_query = false;
  Query query = Query::kQ1;
  const engine::StagePlan* plan = nullptr;
  ft::MaterializationConfig config;
  std::vector<std::pair<int, int>> victims;  // empty = failure-free
  bool wal = false;
};

/// Counters an FT job must repeat exactly.
struct Counters {
  int64_t v[9] = {0, 0, 0, 0, 0, 0, 0, 0, 0};
  bool operator==(const Counters& o) const {
    return std::memcmp(v, o.v, sizeof(v)) == 0;
  }
};

Counters CountersOf(const engine::FtExecutionResult& r) {
  Counters c;
  c.v[0] = r.failures_injected;
  c.v[1] = r.recovery_executions;
  c.v[2] = r.task_executions;
  c.v[3] = static_cast<int64_t>(r.rows_lost);
  c.v[4] = static_cast<int64_t>(r.rows_recomputed);
  c.v[5] = static_cast<int64_t>(r.rows_materialized);
  c.v[6] = static_cast<int64_t>(r.rows_logged);
  c.v[7] = static_cast<int64_t>(r.rows_replayed);
  c.v[8] = r.replay_executions;
  return c;
}

/// Order-sensitive digest of a result table: schema, then every value's
/// type and exact bits.
uint64_t Digest(const exec::Table& t) {
  uint64_t h = 1469598103934665603ULL;
  const auto feed = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ b[i]) * 1099511628211ULL;
    }
  };
  const size_t cols = t.schema.num_columns();
  feed(&cols, sizeof(cols));
  for (const exec::Row& row : t.rows) {
    for (const exec::Value& v : row) {
      const int type = static_cast<int>(v.type());
      feed(&type, sizeof(type));
      switch (v.type()) {
        case exec::ValueType::kInt64: {
          const int64_t x = v.AsInt64();
          feed(&x, sizeof(x));
          break;
        }
        case exec::ValueType::kDouble: {
          const double x = v.AsDouble();
          feed(&x, sizeof(x));
          break;
        }
        case exec::ValueType::kString:
          feed(v.AsString().data(), v.AsString().size());
          break;
        case exec::ValueType::kNull:
          break;
      }
    }
  }
  return h;
}

struct OpRecord {
  int job = 0;
  bool ok = false;
  uint64_t digest = 0;
  Counters counters;
};

/// Self seconds per operator kind of one profile tree.
void AddSelfTimes(const obs::OperatorProfile& op,
                  std::map<std::string, double>* out) {
  double child = 0.0;
  for (const auto& c : op.children) {
    child += c.seconds;
    AddSelfTimes(c, out);
  }
  static const char* const kKinds[] = {"Scan",          "Filter", "Project",
                                       "HashJoin",      "HashAggregate",
                                       "Sort"};
  std::string kind = "other";
  for (const char* k : kKinds) {
    if (op.name == k) kind = k;
  }
  (*out)[kind] += std::max(0.0, op.seconds - child);
}

class ValidateTpch final : public Workload {
 public:
  explicit ValidateTpch(uint64_t seed) : seed_(seed) {}

  int threads() const override { return kEngineThreads; }
  uint64_t TracedOps(int seconds) const override {
    return kTracedOpsPerSecond * static_cast<uint64_t>(seconds);
  }
  uint64_t OpsPerCycle() const override { return jobs_.size(); }

  Status Setup(Tracer* tracer) override {
    {
      datagen::TpchGenOptions gen;
      gen.scale_factor = kScaleFactor;
      gen.seed = Mix(seed_, 21);
      datagen::TpchDatabase db;
      {
        ScopedSpan span(tracer, "datagen.GenerateTpch");
        XDBFT_ASSIGN_OR_RETURN(db, datagen::GenerateTpch(gen));
      }
      generated_rows_ = 0;
      for (const auto* t : {&db.region, &db.nation, &db.supplier,
                            &db.customer, &db.part, &db.partsupp,
                            &db.orders, &db.lineitem}) {
        generated_rows_ += t->num_rows();
      }
      ScopedSpan span(tracer, "engine.DistributeTpch");
      XDBFT_ASSIGN_OR_RETURN(pd_, engine::DistributeTpch(db, kNodes));
    }

    engine::ExecOptions stage_opts;
    stage_opts.mode = engine::ExecMode::kVectorized;
    q5_ = std::make_unique<engine::StagePlan>(
        engine::MakeQ5StagePlan(pd_, stage_opts));
    custrev_ = std::make_unique<engine::StagePlan>(
        engine::MakeCustomerRevenueStagePlan(pd_, stage_opts));
    chain_ = std::make_unique<engine::StagePlan>(
        engine::MakeFilterChainStagePlan(pd_, kChainDepth, stage_opts));
    XDBFT_ASSIGN_OR_RETURN(ft::MaterializationConfig cost_based,
                           CostBasedQ5Config());

    jobs_.clear();
    const std::tuple<const char*, const char*, Query> queries[] = {
        {"q1", "engine.query.q1", Query::kQ1},
        {"q3", "engine.query.q3", Query::kQ3},
        {"q5", "engine.query.q5", Query::kQ5},
        {"q1c", "engine.query.q1c", Query::kQ1C},
        {"q2c", "engine.query.q2c", Query::kQ2C}};
    for (const auto& [name, span, q] : queries) {
      Job j;
      j.name = name;
      j.span = span;
      j.is_query = true;
      j.query = q;
      jobs_.push_back(std::move(j));
    }
    const auto ft_job = [&](const char* name, const char* span,
                            const engine::StagePlan* plan,
                            ft::MaterializationConfig config, bool inject,
                            bool wal) {
      Job j;
      j.name = name;
      j.span = span;
      j.plan = plan;
      j.config = std::move(config);
      j.wal = wal;
      if (inject) j.victims = Victims(*plan, jobs_.size());
      jobs_.push_back(std::move(j));
    };
    const auto no_mat = [](const engine::StagePlan& p) {
      return ft::MaterializationConfig::NoMat(p.ToPlanSkeleton());
    };
    ft_job("q5_clean", "engine.ft_execute.q5_clean", q5_.get(), no_mat(*q5_),
           false, false);
    ft_job("q5_inject", "engine.ft_execute.q5_inject", q5_.get(),
           no_mat(*q5_), true, false);
    ft_job("q5_costbased", "engine.ft_execute.q5_costbased", q5_.get(),
           cost_based, true, false);
    ft_job("custrev", "engine.ft_execute.custrev", custrev_.get(),
           no_mat(*custrev_), true, false);
    ft_job("chain", "engine.ft_execute.chain", chain_.get(), no_mat(*chain_),
           true, false);
    ft_job("chain_wal", "engine.ft_execute.chain_wal", chain_.get(),
           no_mat(*chain_), true, true);

    // Warm-up: one single-threaded pass over the deck.
    engine::ExecOptions serial;
    serial.mode = engine::ExecMode::kVectorized;
    serial.num_threads = 1;
    engine::QueryRunner runner(&pd_, serial);
    for (size_t j = 0; j < jobs_.size(); ++j) {
      XDBFT_RETURN_NOT_OK(RunJob(jobs_[j], runner, nullptr, nullptr));
    }
    return Reset(false);
  }

  Status Reset(bool traced) override {
    traced_ = traced;
    engine::ExecOptions opts;
    opts.mode = engine::ExecMode::kVectorized;
    opts.num_threads = kEngineThreads;
    opts.profile = traced;
    StartWorkersOnOwnCpu([&] {
      runner_ = std::make_unique<engine::QueryRunner>(&pd_, opts);
      ft_pool_ = std::make_unique<TaskPool>(kEngineThreads - 1);
    });
    records_.clear();
    op_self_s_.clear();
    query_ops_ = 0;
    ft_totals_ = engine::FtExecutionResult{};
    return Status::OK();
  }

  Status RunOp(uint64_t i, Tracer* tracer) override {
    const Job& job = jobs_[i % jobs_.size()];
    ScopedSpan span(tracer, job.span);
    return RunJob(job, *runner_, ft_pool_.get(), &last_);
  }

  void RecordOp(uint64_t i, const Status& status) override {
    OpRecord rec;
    rec.job = static_cast<int>(i % jobs_.size());
    rec.ok = status.ok();
    if (rec.ok) {
      rec.digest = Digest(last_.table);
      rec.counters = CountersOf(last_.ft);
    }
    if (traced_ && rec.ok) {
      if (jobs_[static_cast<size_t>(rec.job)].is_query) {
        ++query_ops_;
        for (const auto& p : last_.profiles) AddSelfTimes(p.root, &op_self_s_);
      } else {
        AddFt(last_.ft);
      }
    }
    records_.push_back(rec);
  }

  Verification Verify(bool corrupt) override {
    Verification v;
    if (corrupt && !records_.empty()) records_.front().digest ^= 1;
    // References: each job failure-free at one thread (digest) and as
    // configured at one thread (counters).
    engine::ExecOptions serial;
    serial.mode = engine::ExecMode::kVectorized;
    serial.num_threads = 1;
    engine::QueryRunner runner(&pd_, serial);
    std::vector<uint64_t> ref_digest(jobs_.size(), 0);
    std::vector<Counters> ref_counters(jobs_.size());
    std::vector<bool> ref_ok(jobs_.size(), false);
    for (size_t j = 0; j < jobs_.size(); ++j) {
      Job clean = jobs_[j];
      clean.victims.clear();
      JobOutput out;
      if (!RunJob(clean, runner, nullptr, &out).ok()) continue;
      ref_digest[j] = Digest(out.table);
      if (!RunJob(jobs_[j], runner, nullptr, &out).ok()) continue;
      ref_counters[j] = CountersOf(out.ft);
      ref_ok[j] = true;
    }
    for (const OpRecord& r : records_) {
      const size_t j = static_cast<size_t>(r.job);
      if (r.ok && ref_ok[j] && r.digest == ref_digest[j] &&
          r.counters == ref_counters[j]) {
        ++v.ok_ops;
      } else if (v.errors.size() < 5) {
        v.errors.push_back(std::string("validate_tpch: job ") +
                           jobs_[j].name +
                           " result digest or counters differ from its "
                           "single-thread reference");
      }
    }
    return v;
  }

  Status EndToEnd(MetricSink* out) override {
    // Simulated overhead of the cost-based Q5 plan this workload executes,
    // over its failure-free baseline, on fixed traces (seeds 0-9).
    XDBFT_ASSIGN_OR_RETURN(plan::Plan q5, AnalyticQ5());
    const ft::FtCostContext ctx = AnalyticContext();
    XDBFT_ASSIGN_OR_RETURN(ft::SchemePlan p,
                           ft::ApplyScheme(ft::SchemeKind::kCostBased, q5, ctx));
    cluster::ClusterSimulator simulator(ctx.cluster);
    XDBFT_ASSIGN_OR_RETURN(double baseline, simulator.BaselineRuntime(q5));
    auto traces = cluster::GenerateTraceSet(ctx.cluster, 10, 0);
    XDBFT_ASSIGN_OR_RETURN(cluster::SimulationResult sr,
                           simulator.RunMany(p, traces));
    out->Set("cost_based_overhead_pct",
             100.0 * (sr.runtime / baseline - 1.0));
    return Status::OK();
  }

  Status PerLayer(const std::vector<Span>& spans, MetricSink* out) override {
    const auto setup = SummarizeSpans(spans, false);
    const auto timed = SummarizeSpans(spans, true);
    const auto total = [](const std::map<std::string, SpanTotals>& m,
                          const std::string& name) {
      const auto it = m.find(name);
      return it == m.end() ? SpanTotals{} : it->second;
    };
    const double gen_s = total(setup, "datagen.GenerateTpch").total_s;
    out->Set("datagen.generate_s", gen_s);
    out->Set("datagen.rows_per_s",
             gen_s > 0.0 ? static_cast<double>(generated_rows_) / gen_s : 0.0);
    out->Set("engine.distribute_s",
             total(setup, "engine.DistributeTpch").total_s);
    for (const Job& j : jobs_) {
      const std::string metric = std::string(j.is_query ? "engine.query_us."
                                                         : "engine.ft_execute_us.") +
                                 j.name;
      out->Set(metric, total(timed, j.span).mean_us());
    }
    const auto& f = ft_totals_;
    out->Set("engine.failures_injected", f.failures_injected);
    out->Set("engine.recovery_executions", f.recovery_executions);
    out->Set("engine.task_executions", f.task_executions);
    out->Set("engine.useful_task_ratio",
             f.task_executions == 0
                 ? 0.0
                 : static_cast<double>(f.task_executions -
                                       f.recovery_executions) /
                       static_cast<double>(f.task_executions));
    out->Set("engine.rows_lost", static_cast<double>(f.rows_lost));
    out->Set("engine.rows_recomputed", static_cast<double>(f.rows_recomputed));
    out->Set("engine.rows_materialized",
             static_cast<double>(f.rows_materialized));
    out->Set("engine.rows_logged", static_cast<double>(f.rows_logged));
    out->Set("engine.rows_replayed", static_cast<double>(f.rows_replayed));
    for (const auto& [kind, secs] : op_self_s_) {
      out->Set("exec.op_us." + kind,
               query_ops_ == 0 ? 0.0
                               : secs * 1e6 / static_cast<double>(query_ops_));
    }
    return Status::OK();
  }

 private:
  struct JobOutput {
    exec::Table table;
    engine::FtExecutionResult ft;  // default for queries: zero counters
    std::vector<obs::QueryProfile> profiles;
  };

  static ft::FtCostContext AnalyticContext() {
    ft::FtCostContext ctx;
    ctx.cluster = cost::MakeCluster(kNodes, kAnalyticMtbf, 1.0);
    return ctx;
  }

  static Result<plan::Plan> AnalyticQ5() {
    tpch::TpchPlanConfig cfg;
    cfg.scale_factor = kAnalyticScaleFactor;
    cfg.num_nodes = kNodes;
    return tpch::BuildQuery(tpch::TpchQuery::kQ5, cfg);
  }

  /// The analytic cost-based Q5 configuration mapped onto the Q5 stage
  /// plan by operator label (Join1..Join5).
  Result<ft::MaterializationConfig> CostBasedQ5Config() const {
    XDBFT_ASSIGN_OR_RETURN(plan::Plan q5, AnalyticQ5());
    XDBFT_ASSIGN_OR_RETURN(
        ft::SchemePlan p,
        ft::ApplyScheme(ft::SchemeKind::kCostBased, q5, AnalyticContext()));
    const plan::Plan skeleton = q5_->ToPlanSkeleton();
    ft::MaterializationConfig config =
        ft::MaterializationConfig::NoMat(skeleton);
    for (const plan::OpId free : skeleton.FreeOperators()) {
      for (size_t a = 0; a < q5.num_nodes(); ++a) {
        const auto id = static_cast<plan::OpId>(a);
        if (q5.node(id).label == skeleton.node(free).label &&
            p.config.materialized(id)) {
          config.set_materialized(free, true);
        }
      }
    }
    XDBFT_RETURN_NOT_OK(config.Validate(skeleton));
    return config;
  }

  /// One victim partition per partitioned stage, drawn from the seed.
  std::vector<std::pair<int, int>> Victims(const engine::StagePlan& plan,
                                           size_t job) const {
    Rng rng(Mix(seed_, 100 + job));
    std::vector<std::pair<int, int>> victims;
    for (int s = 0; s < plan.num_stages(); ++s) {
      if (plan.stage(s).global) continue;
      victims.emplace_back(s, static_cast<int>(rng.NextBounded(kNodes)));
    }
    return victims;
  }

  Status RunJob(const Job& job, const engine::QueryRunner& runner,
                TaskPool* pool, JobOutput* out) const {
    if (job.is_query) {
      const auto run = [&]() -> Result<engine::QueryExecution> {
        switch (job.query) {
          case Query::kQ1: return runner.RunQ1();
          case Query::kQ3: return runner.RunQ3();
          case Query::kQ5: return runner.RunQ5();
          case Query::kQ1C: return runner.RunQ1C();
          case Query::kQ2C: return runner.RunQ2C();
        }
        return Status::Internal("unknown query");
      };
      XDBFT_ASSIGN_OR_RETURN(engine::QueryExecution r, run());
      if (out != nullptr) {
        out->table = std::move(r.result);
        out->ft = engine::FtExecutionResult{};
        out->profiles = std::move(r.stage_profiles);
      }
      return Status::OK();
    }
    engine::FaultTolerantExecutor executor(job.plan, &pd_);
    executor.set_num_threads(1);
    executor.set_task_pool(pool);
    executor.set_wal(job.wal);
    engine::ScriptedInjector injector(job.victims, kVictimFailures);
    XDBFT_ASSIGN_OR_RETURN(
        engine::FtExecutionResult r,
        executor.Execute(job.config,
                         job.victims.empty() ? nullptr : &injector));
    if (out != nullptr) {
      out->table = std::move(r.result);
      out->ft = std::move(r);
    }
    return Status::OK();
  }

  void AddFt(const engine::FtExecutionResult& r) {
    auto& t = ft_totals_;
    t.failures_injected += r.failures_injected;
    t.recovery_executions += r.recovery_executions;
    t.task_executions += r.task_executions;
    t.rows_lost += r.rows_lost;
    t.rows_recomputed += r.rows_recomputed;
    t.rows_materialized += r.rows_materialized;
    t.rows_logged += r.rows_logged;
    t.rows_replayed += r.rows_replayed;
  }

  uint64_t seed_;
  engine::PartitionedDatabase pd_;
  size_t generated_rows_ = 0;
  std::unique_ptr<engine::StagePlan> q5_, custrev_, chain_;
  std::vector<Job> jobs_;

  std::unique_ptr<engine::QueryRunner> runner_;
  std::unique_ptr<TaskPool> ft_pool_;
  bool traced_ = false;
  JobOutput last_;
  std::vector<OpRecord> records_;
  std::map<std::string, double> op_self_s_;
  uint64_t query_ops_ = 0;
  engine::FtExecutionResult ft_totals_;
};

}  // namespace

std::unique_ptr<Workload> MakeValidateTpch(uint64_t seed) {
  return std::make_unique<ValidateTpch>(seed);
}

}  // namespace perfbench
