// xdbft_advisor — command-line front end of the fault-tolerance advisor.
//
// Reads an execution plan in the plan-text format (see plan/plan_text.h),
// runs the cost-based fault-tolerance scheme for the given cluster, prints
// the chosen materialization configuration and a scheme comparison, and
// optionally validates the choice by simulating execution under injected
// failures.
//
// Usage:
//   xdbft_advisor --plan plan.txt [--nodes N] [--mtbf SECONDS]
//                 [--mttr SECONDS] [--success-target S]
//                 [--pipe-constant C] [--scale-success-with-cluster]
//                 [--scheme NAME] [--wal-write-cost C]
//                 [--threads N] [--exec-threads N] [--simulate TRACES]
//                 [--emit-q5 SF] [--metrics-json PATH] [--trace-out PATH]
//
// --scheme NAME forces one fixed fault-tolerance scheme instead of the
// cost-based search: all-mat, no-mat-lineage, no-mat-restart, cost-based
// or wal (write-ahead lineage). Forcing wal enables the WAL cost terms;
// --wal-write-cost C sets the per-unit lineage log-write cost, 0 included
// (and likewise enables WAL in the model, so the cost-based search may
// pick a WAL-shaped plan when the log tax beats materialization); a
// negative C is rejected.
//
// --burst-mtbf S / --burst-fanout F enable the correlated-failure model:
// S is the mean seconds between correlated bursts, F the fraction of the
// cluster each burst takes down (0 disables it — the independent model).
// --placement-groups G / --remote-read-penalty P turn on placement-aware
// enumeration (see DESIGN.md §13). --drift-threshold D sets the relative
// observed-vs-assumed cluster drift past which --serve invalidates cached
// plans (default 0.5). Non-finite or non-positive cluster/model inputs
// are rejected up front with an InvalidArgument.
//
// --threads N runs the FT-plan enumeration on N worker threads (default 0
// = one per hardware thread; the chosen plan is identical at any value).
//
// --exec-threads N runs the validation execution's partition tasks on N
// TaskPool workers (default 0 = one per hardware thread; the query result
// and failure/recovery counts are identical at any value).
//
// --emit-q5 SF prints the built-in TPC-H Q5 plan at the given scale factor
// in plan-text format (a quick way to get a realistic input file);
// --storage-mibps overrides the emitted plan's materialization-store
// bandwidth (slower stores raise tm relative to tr, which is what pruning
// rules 1/2 key on — see bench/fig13_pruning.cc for the calibration).
//
// Observability (see DESIGN.md "Observability"):
//   --metrics-json PATH  write a RunReport (params + metrics snapshot) as
//                        JSON. Also runs a small in-process validation
//                        execution (tiny TPC-H + Q5 stage plan + scripted
//                        failures) so executor.* metrics and the
//                        predicted-vs-observed accuracy report are
//                        populated.
//   --trace-out PATH     write a Chrome trace-event JSON timeline (load in
//                        chrome://tracing or https://ui.perfetto.dev):
//                        wall-clock spans from the validation execution and
//                        virtual-time spans from one simulated run.
//   --profile            run TPC-H Q1/Q3/Q5 over a tiny generated database
//                        with per-operator profiling and print one
//                        EXPLAIN ANALYZE tree per stage (also
//                        embedded in --metrics-json under "profiles").
//                        Works standalone, without --plan.
//   --postmortem-dir DIR if the validation execution aborts, write a
//                        post-mortem bundle (flight-recorder tail, metrics
//                        snapshot, attempt timeline) into DIR.
//
// Serving (see README "Serving" and DESIGN.md §12):
//   --serve --requests N drive N requests through a long-lived
//                        AdvisorService from --clients concurrent client
//                        threads (default 2) and print throughput, latency
//                        percentiles, cache-hit rate and the per-entry hot
//                        list. --hot-fraction F (default 0.9) sets the
//                        share of requests drawn from the 4-key hot set;
//                        --cache-capacity C bounds the result cache.
//                        Without --plan the request population is the
//                        built-in TPC-H Q1/Q3/Q5 mix; with --plan it is
//                        that plan under varying MTBF. Composable with
//                        --metrics-json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "common/rng.h"

#include "api/xdbft.h"
#include "engine/ft_executor.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "plan/plan_text.h"

using namespace xdbft;

namespace {

struct Args {
  std::string plan_path;
  int nodes = 10;
  double mtbf = cost::kSecondsPerDay;
  double mttr = 1.0;
  // Correlated failures / placement (0 bursts = independent model).
  double burst_mtbf = 0.0;
  double burst_fanout = 1.0;
  int placement_groups = 1;
  double remote_read_penalty = 0.25;
  double success_target = 0.95;
  double pipe_constant = 1.0;
  bool scale_success = false;
  bool greedy = false;
  // --scheme: force one fixed scheme ("" = cost-based search).
  std::string scheme;
  // --wal-write-cost: per-unit lineage log-write cost (unset = model
  // default; any value also enables the WAL cost terms).
  std::optional<double> wal_write_cost;
  int threads = 0;       // 0 = hardware concurrency
  int exec_threads = 0;  // 0 = hardware concurrency
  int simulate_traces = 0;
  double emit_q5_sf = 0.0;
  double storage_mibps = 0.0;  // 0 = TpchPlanConfig default
  std::string metrics_json;
  std::string trace_out;
  bool profile = false;
  std::string postmortem_dir;
  // --serve mode
  bool serve = false;
  int requests = 1000;
  int clients = 2;
  double hot_fraction = 0.9;
  int cache_capacity = 4096;
  double drift_threshold = 0.5;
};

// All clusters the advisor reasons about carry the burst/placement
// parameters, so the one MakeCluster call site that forgets them cannot
// silently fall back to the independent model.
// Maps the --scheme spelling onto SchemeKind. Accepts the hyphenated
// names printed by SchemeKindName plus the short "wal" alias.
bool ParseSchemeKind(const std::string& name, ft::SchemeKind* out) {
  if (name == "all-mat") {
    *out = ft::SchemeKind::kAllMat;
  } else if (name == "no-mat-lineage") {
    *out = ft::SchemeKind::kNoMatLineage;
  } else if (name == "no-mat-restart") {
    *out = ft::SchemeKind::kNoMatRestart;
  } else if (name == "cost-based") {
    *out = ft::SchemeKind::kCostBased;
  } else if (name == "wal" || name == "write-ahead-lineage") {
    *out = ft::SchemeKind::kWriteAheadLineage;
  } else {
    return false;
  }
  return true;
}

// Folds the WAL CLI knobs into the cost model: a given --wal-write-cost
// or a forced wal scheme switches the WAL terms on. ValidateParams then
// rejects a negative cost.
void ApplyWalArgs(const Args& args, cost::CostModelParams* model) {
  if (args.wal_write_cost.has_value()) {
    model->wal_enabled = true;
    model->wal_write_cost = *args.wal_write_cost;
  }
  if (args.scheme == "wal" || args.scheme == "write-ahead-lineage") {
    model->wal_enabled = true;
  }
}

cost::ClusterStats MakeStats(const Args& args, double mtbf) {
  cost::ClusterStats stats = cost::MakeCluster(args.nodes, mtbf, args.mttr);
  stats.burst_mtbf_seconds = args.burst_mtbf;
  stats.burst_fanout = args.burst_fanout;
  stats.num_placement_groups = args.placement_groups;
  stats.remote_read_penalty = args.remote_read_penalty;
  return stats;
}

// Rejects non-finite / non-positive cluster or model parameters up front
// with an InvalidArgument instead of letting NaNs reach the enumerator.
bool ValidateParams(const cost::ClusterStats& stats,
                    const cost::CostModelParams& model) {
  ft::FtCostContext context;
  context.cluster = stats;
  context.model = model;
  const Status s = context.Validate();
  if (!s.ok()) {
    std::fprintf(stderr, "invalid parameters: %s\n", s.ToString().c_str());
    return false;
  }
  return true;
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --plan FILE [--nodes N] [--mtbf S] [--mttr S]\n"
      "          [--burst-mtbf S] [--burst-fanout F]\n"
      "          [--placement-groups G] [--remote-read-penalty P]\n"
      "          [--success-target S] [--pipe-constant C]\n"
      "          [--scheme all-mat|no-mat-lineage|no-mat-restart|"
      "cost-based|wal]\n"
      "          [--wal-write-cost C]\n"
      "          [--scale-success-with-cluster] [--greedy]\n"
      "          [--threads N] [--exec-threads N] [--simulate TRACES]\n"
      "          [--metrics-json PATH] [--trace-out PATH]\n"
      "          [--profile] [--postmortem-dir DIR]\n"
      "       %s --profile [--metrics-json PATH]\n"
      "       %s --emit-q5 SF [--storage-mibps MIB]\n"
      "       %s --serve --requests N [--clients K] [--hot-fraction F]\n"
      "          [--cache-capacity C] [--drift-threshold D]\n"
      "          [--plan FILE] [--metrics-json PATH]\n",
      argv0, argv0, argv0, argv0);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](double* out) {
      if (i + 1 >= argc) return false;
      *out = std::strtod(argv[++i], nullptr);
      return true;
    };
    double v = 0;
    if (a == "--plan" && i + 1 < argc) {
      args->plan_path = argv[++i];
    } else if (a == "--nodes" && next(&v)) {
      args->nodes = static_cast<int>(v);
    } else if (a == "--mtbf" && next(&v)) {
      args->mtbf = v;
    } else if (a == "--mttr" && next(&v)) {
      args->mttr = v;
    } else if (a == "--burst-mtbf" && next(&v)) {
      args->burst_mtbf = v;
    } else if (a == "--burst-fanout" && next(&v)) {
      args->burst_fanout = v;
    } else if (a == "--placement-groups" && next(&v)) {
      args->placement_groups = static_cast<int>(v);
    } else if (a == "--remote-read-penalty" && next(&v)) {
      args->remote_read_penalty = v;
    } else if (a == "--drift-threshold" && next(&v)) {
      args->drift_threshold = v;
    } else if (a == "--success-target" && next(&v)) {
      args->success_target = v;
    } else if (a == "--pipe-constant" && next(&v)) {
      args->pipe_constant = v;
    } else if (a == "--scheme" && i + 1 < argc) {
      args->scheme = argv[++i];
    } else if (a == "--wal-write-cost" && next(&v)) {
      args->wal_write_cost = v;
    } else if (a == "--scale-success-with-cluster") {
      args->scale_success = true;
    } else if (a == "--greedy") {
      args->greedy = true;
    } else if (a == "--threads" && next(&v)) {
      args->threads = static_cast<int>(v);
    } else if (a == "--exec-threads" && next(&v)) {
      args->exec_threads = static_cast<int>(v);
    } else if (a == "--simulate" && next(&v)) {
      args->simulate_traces = static_cast<int>(v);
    } else if (a == "--emit-q5" && next(&v)) {
      args->emit_q5_sf = v;
    } else if (a == "--storage-mibps" && next(&v)) {
      args->storage_mibps = v;
    } else if (a == "--metrics-json" && i + 1 < argc) {
      args->metrics_json = argv[++i];
    } else if (a == "--trace-out" && i + 1 < argc) {
      args->trace_out = argv[++i];
    } else if (a == "--profile") {
      args->profile = true;
    } else if (a == "--postmortem-dir" && i + 1 < argc) {
      args->postmortem_dir = argv[++i];
    } else if (a == "--serve") {
      args->serve = true;
    } else if (a == "--requests" && next(&v)) {
      args->requests = static_cast<int>(v);
    } else if (a == "--clients" && next(&v)) {
      args->clients = static_cast<int>(v);
    } else if (a == "--hot-fraction" && next(&v)) {
      args->hot_fraction = v;
    } else if (a == "--cache-capacity" && next(&v)) {
      args->cache_capacity = static_cast<int>(v);
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n",
                   a.c_str());
      return false;
    }
  }
  return true;
}

// Runs the built-in Q5 stage plan over a tiny generated TPC-H database
// with scripted failures on the first two partition-parallel stages. This
// populates the executor.* metrics behind `--metrics-json` with real
// recovery work and yields an observed row for the accuracy report.
// Wall-clock spans go into `trace` when non-null.
Result<ft::ObservedExecution> RunValidationExecution(
    obs::TraceRecorder* trace, int exec_threads,
    const std::string& postmortem_dir) {
  datagen::TpchGenOptions opts;
  opts.scale_factor = 0.002;
  opts.seed = 7;
  XDBFT_ASSIGN_OR_RETURN(datagen::TpchDatabase db,
                         datagen::GenerateTpch(opts));
  XDBFT_ASSIGN_OR_RETURN(engine::PartitionedDatabase pd,
                         engine::DistributeTpch(db, 3));
  const engine::StagePlan q5 = engine::MakeQ5StagePlan(pd);
  const ft::MaterializationConfig config =
      ft::MaterializationConfig::AllMat(q5.ToPlanSkeleton());
  std::vector<std::pair<int, int>> victims;
  for (int s = 0; s < q5.num_stages() && victims.size() < 2; ++s) {
    if (!q5.stage(s).global) {
      victims.emplace_back(s, static_cast<int>(victims.size()));
    }
  }
  engine::ScriptedInjector injector(std::move(victims));
  engine::FaultTolerantExecutor executor(&q5, &pd);
  executor.set_trace(trace);
  executor.set_num_threads(exec_threads);
  if (!postmortem_dir.empty()) executor.set_postmortem_dir(postmortem_dir);
  XDBFT_ASSIGN_OR_RETURN(engine::FtExecutionResult r,
                         executor.Execute(config, &injector));
  ft::ObservedExecution observed;
  observed.source = "ft_executor (validation: tiny TPC-H Q5)";
  observed.failures = r.failures_injected;
  observed.recovery_executions = r.recovery_executions;
  observed.task_executions = r.task_executions;
  observed.runtime_seconds = r.wall_seconds;
  return observed;
}

// --profile: run Q1/Q3/Q5 over a tiny generated TPC-H database with
// per-operator profiling on and print one EXPLAIN ANALYZE tree per stage.
// The collected profiles (labels prefixed with the query name) are
// appended to *profiles for --metrics-json.
Status RunProfileDemo(std::vector<obs::QueryProfile>* profiles) {
  datagen::TpchGenOptions opts;
  opts.scale_factor = 0.01;
  opts.seed = 7;
  XDBFT_ASSIGN_OR_RETURN(datagen::TpchDatabase db,
                         datagen::GenerateTpch(opts));
  XDBFT_ASSIGN_OR_RETURN(engine::PartitionedDatabase pd,
                         engine::DistributeTpch(db, 3));
  struct Query {
    const char* name;
    Result<engine::QueryExecution> (engine::QueryRunner::*run)() const;
  };
  const Query kQueries[] = {{"Q1", &engine::QueryRunner::RunQ1},
                            {"Q3", &engine::QueryRunner::RunQ3},
                            {"Q5", &engine::QueryRunner::RunQ5}};
  engine::ExecOptions eopts;
  eopts.num_threads = 2;
  eopts.profile = true;
  engine::QueryRunner runner(&pd, eopts);
  for (const Query& q : kQueries) {
    XDBFT_ASSIGN_OR_RETURN(engine::QueryExecution exec, (runner.*q.run)());
    std::printf("\nEXPLAIN ANALYZE %s (tiny TPC-H sf=0.01, 2 threads):\n",
                q.name);
    for (obs::QueryProfile& p : exec.stage_profiles) {
      std::printf("%s", p.ToText().c_str());
      p.label = std::string(q.name) + "/" + p.label;
      profiles->push_back(std::move(p));
    }
  }
  return Status::OK();
}

// --serve: sustained-load driver over a long-lived AdvisorService. The
// population is either the built-in TPC-H Q1/Q3/Q5 mix or (with --plan)
// the given plan under varying MTBF; the first 4 keys form the hot set.
int RunServe(const Args& args) {
  constexpr size_t kPopulation = 64;
  constexpr size_t kHotSet = 4;
  std::vector<plan::Plan> base_plans;
  if (!args.plan_path.empty()) {
    std::ifstream in(args.plan_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open '%s'\n",
                   args.plan_path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    auto plan = plan::PlanFromText(buf.str());
    if (!plan.ok()) {
      std::fprintf(stderr, "error parsing plan: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    base_plans.push_back(std::move(*plan));
  } else {
    for (const tpch::TpchQuery q : {tpch::TpchQuery::kQ1,
                                    tpch::TpchQuery::kQ3,
                                    tpch::TpchQuery::kQ5}) {
      tpch::TpchPlanConfig cfg;
      cfg.scale_factor = 10.0;
      auto plan = tpch::BuildQuery(q, cfg);
      if (!plan.ok()) {
        std::fprintf(stderr, "error building %s: %s\n", tpch::TpchQueryName(q),
                     plan.status().ToString().c_str());
        return 1;
      }
      base_plans.push_back(std::move(*plan));
    }
  }
  cost::CostModelParams model;
  model.success_target = args.success_target;
  model.pipe_constant = args.pipe_constant;
  model.scale_success_target_with_cluster = args.scale_success;
  ApplyWalArgs(args, &model);
  if (!ValidateParams(MakeStats(args, args.mtbf), model)) return 1;
  std::vector<api::AdvisorRequest> population;
  population.reserve(kPopulation);
  for (size_t i = 0; i < kPopulation; ++i) {
    api::AdvisorRequest request;
    request.candidates.push_back(base_plans[i % base_plans.size()]);
    request.cluster =
        MakeStats(args, args.mtbf + 60.0 * static_cast<double>(i));
    request.model = model;
    population.push_back(std::move(request));
  }

  api::AdvisorServiceOptions options;
  options.cache_capacity =
      static_cast<size_t>(std::max(args.cache_capacity, 1));
  options.enumeration.num_threads =
      args.threads == 0 ? 1 : args.threads;  // clients provide parallelism
  options.drift_threshold = args.drift_threshold;
  api::AdvisorService service(MakeStats(args, args.mtbf), model, options);

  const int clients = std::max(args.clients, 1);
  const int total_requests = std::max(args.requests, 1);
  const double hot_fraction =
      std::min(1.0, std::max(0.0, args.hot_fraction));
  std::printf("Serving %d requests from %d client thread(s), %.0f%% hot "
              "(population %zu, cache capacity %zu)\n",
              total_requests, clients, hot_fraction * 100.0,
              population.size(), options.cache_capacity);

  std::vector<std::vector<double>> latencies(static_cast<size_t>(clients));
  std::vector<uint64_t> failures(static_cast<size_t>(clients), 0);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x5e47eULL + static_cast<uint64_t>(t) * 1031);
      const int n = total_requests / clients +
                    (t < total_requests % clients ? 1 : 0);
      auto& lat = latencies[static_cast<size_t>(t)];
      lat.reserve(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        const size_t idx =
            rng.NextDouble() < hot_fraction
                ? rng.NextBounded(kHotSet)
                : kHotSet + rng.NextBounded(population.size() - kHotSet);
        const auto r0 = std::chrono::steady_clock::now();
        auto result = service.Advise(population[idx]);
        const auto r1 = std::chrono::steady_clock::now();
        if (!result.ok()) ++failures[static_cast<size_t>(t)];
        lat.push_back(
            std::chrono::duration<double, std::micro>(r1 - r0).count());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<double> all;
  uint64_t failed = 0;
  for (int t = 0; t < clients; ++t) {
    all.insert(all.end(), latencies[static_cast<size_t>(t)].begin(),
               latencies[static_cast<size_t>(t)].end());
    failed += failures[static_cast<size_t>(t)];
  }
  std::sort(all.begin(), all.end());
  auto pct = [&](double p) {
    if (all.empty()) return 0.0;
    const double rank = p / 100.0 * static_cast<double>(all.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, all.size() - 1);
    return all[lo] + (all[hi] - all[lo]) * (rank - static_cast<double>(lo));
  };

  const api::AdvisorServiceStats stats = service.stats();
  std::printf("\n  qps        %10.0f\n", wall > 0.0
                                             ? static_cast<double>(all.size()) / wall
                                             : 0.0);
  std::printf("  p50 / p95 / p99   %.1f / %.1f / %.1f us\n", pct(50.0),
              pct(95.0), pct(99.0));
  std::printf("  hit rate   %10.3f\n", stats.hit_rate());
  std::printf("  hits %llu  misses %llu  coalesced %llu  evictions %llu  "
              "bypassed %llu  warm starts %llu  errors %llu\n",
              (unsigned long long)stats.hits,
              (unsigned long long)stats.misses,
              (unsigned long long)stats.coalesced,
              (unsigned long long)stats.evictions,
              (unsigned long long)stats.bypassed,
              (unsigned long long)stats.memo_warm_starts,
              (unsigned long long)stats.errors);
  const auto entries = service.EntrySnapshot();
  std::printf("\nHottest cache entries (%llu resident):\n",
              (unsigned long long)stats.entries);
  for (size_t i = 0; i < entries.size() && i < 5; ++i) {
    std::printf("  %s  hits %llu  coalesced %llu\n",
                entries[i].fingerprint.c_str(),
                (unsigned long long)entries[i].hits,
                (unsigned long long)entries[i].coalesced);
  }
  if (failed > 0) {
    std::fprintf(stderr, "error: %llu request(s) failed\n",
                 (unsigned long long)failed);
  }

  if (!args.metrics_json.empty()) {
    obs::RunReport report;
    report.tool = "xdbft_advisor --serve";
    report.params["requests"] = std::to_string(total_requests);
    report.params["clients"] = std::to_string(clients);
    report.params["hot_fraction"] = std::to_string(hot_fraction);
    report.params["cache_capacity"] = std::to_string(options.cache_capacity);
    report.params["hit_rate"] = std::to_string(stats.hit_rate());
    report.metrics = obs::MetricsRegistry::Default().Snapshot();
    const Status s = report.WriteFile(args.metrics_json);
    if (!s.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n",
                   args.metrics_json.c_str(), s.ToString().c_str());
      return 1;
    }
    std::printf("\nWrote metrics report to %s\n", args.metrics_json.c_str());
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }

  if (args.emit_q5_sf > 0.0) {
    tpch::TpchPlanConfig cfg;
    cfg.scale_factor = args.emit_q5_sf;
    if (args.storage_mibps > 0.0) {
      cfg.storage_bandwidth_bps = args.storage_mibps * 1024 * 1024;
    }
    auto plan = tpch::BuildQuery(tpch::TpchQuery::kQ5, cfg);
    if (!plan.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", plan::PlanToText(*plan).c_str());
    return 0;
  }

  if (args.serve) return RunServe(args);

  std::vector<obs::QueryProfile> profiles;
  if (args.profile) {
    const Status s = RunProfileDemo(&profiles);
    if (!s.ok()) {
      std::fprintf(stderr, "profile run failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }

  if (args.plan_path.empty()) {
    if (args.profile) {
      // Standalone --profile: no plan to advise on; optionally persist the
      // profile trees (plus whatever metrics the runs produced).
      if (!args.metrics_json.empty()) {
        obs::RunReport report;
        report.tool = "xdbft_advisor";
        report.profiles = std::move(profiles);
        report.metrics = obs::MetricsRegistry::Default().Snapshot();
        const Status s = report.WriteFile(args.metrics_json);
        if (!s.ok()) {
          std::fprintf(stderr, "error writing %s: %s\n",
                       args.metrics_json.c_str(), s.ToString().c_str());
          return 1;
        }
        std::printf("\nWrote metrics report to %s\n",
                    args.metrics_json.c_str());
      }
      return 0;
    }
    Usage(argv[0]);
    return 2;
  }
  std::ifstream in(args.plan_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n",
                 args.plan_path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto plan = plan::PlanFromText(buf.str());
  if (!plan.ok()) {
    std::fprintf(stderr, "error parsing plan: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }

  const cost::ClusterStats stats = MakeStats(args, args.mtbf);
  cost::CostModelParams model;
  model.success_target = args.success_target;
  model.pipe_constant = args.pipe_constant;
  model.scale_success_target_with_cluster = args.scale_success;
  ApplyWalArgs(args, &model);
  if (!ValidateParams(stats, model)) return 1;

  ft::SchemeKind forced_kind = ft::SchemeKind::kCostBased;
  const bool forced_scheme = !args.scheme.empty();
  if (forced_scheme && !ParseSchemeKind(args.scheme, &forced_kind)) {
    std::fprintf(stderr,
                 "unknown --scheme '%s' (expected all-mat, no-mat-lineage, "
                 "no-mat-restart, cost-based or wal)\n",
                 args.scheme.c_str());
    return 2;
  }

  obs::TraceRecorder trace;
  obs::TraceRecorder* trace_ptr =
      args.trace_out.empty() ? nullptr : &trace;

  ft::EnumerationOptions eopts;
  eopts.num_threads = args.threads;
  eopts.trace = trace_ptr;  // pid 2: per-worker lanes of the enumeration
  eopts.trace_pid = 2;
  if (trace_ptr != nullptr) {
    trace.SetProcessName(2, "ft-plan enumeration (wall clock)");
  }
  api::FaultToleranceAdvisor advisor(stats, model, eopts);
  Result<ft::SchemePlan> chosen = [&]() -> Result<ft::SchemePlan> {
    if (forced_scheme) {
      return ft::ApplyScheme(forced_kind, *plan, advisor.context(), eopts);
    }
    if (!args.greedy) return advisor.ChooseBestPlan(*plan);
    // Greedy hill climbing for plans too wide to enumerate.
    XDBFT_ASSIGN_OR_RETURN(ft::GreedyResult g,
                           ft::GreedyMaterialization(*plan,
                                                     advisor.context()));
    ft::SchemePlan sp;
    sp.kind = ft::SchemeKind::kCostBased;
    sp.recovery = ft::RecoveryMode::kFineGrained;
    sp.plan = *plan;
    sp.config = std::move(g.config);
    sp.estimated_cost = g.estimated_cost;
    return sp;
  }();
  if (!chosen.ok()) {
    std::fprintf(stderr, "advisor error: %s\n",
                 chosen.status().ToString().c_str());
    return 1;
  }
  std::cout << advisor.Explain(*chosen);

  const bool observability = !args.metrics_json.empty() || trace_ptr;

  if (observability) {
    auto report = ft::BuildAccuracyReport(*plan, chosen->config,
                                          advisor.context());
    auto observed = RunValidationExecution(trace_ptr, args.exec_threads,
                                           args.postmortem_dir);
    if (report.ok()) {
      if (observed.ok()) report->observed.push_back(*observed);
      std::printf("\n%s", report->ToString().c_str());
    }
    if (!observed.ok()) {
      std::fprintf(stderr, "validation execution failed: %s\n",
                   observed.status().ToString().c_str());
    }
  }

  auto comparison = advisor.CompareSchemes(*plan);
  if (comparison.ok()) {
    std::printf("\nScheme comparison (estimated runtime under failures):\n");
    for (const auto& est : comparison->estimates) {
      std::printf("  %-18s %12.1fs  (%zu materialized)\n",
                  ft::SchemeKindName(est.kind), est.estimated_runtime,
                  est.num_materialized);
    }
  }

  if (args.simulate_traces > 0) {
    // Simulate under the model being checked: its CONST_pipe and its
    // write-ahead-lineage log-write cost and replay factor.
    cluster::SimulationOptions sim_options;
    sim_options.pipe_constant = model.pipe_constant;
    sim_options.wal_write_cost = model.wal_write_cost;
    sim_options.wal_replay_factor = model.wal_replay_factor;
    cluster::ClusterSimulator simulator(stats, sim_options);
    auto baseline = simulator.BaselineRuntime(*plan);
    auto traces = cluster::GenerateTraceSet(
        stats, args.simulate_traces, /*base_seed=*/42);
    auto result = simulator.RunMany(*chosen, traces);
    if (!baseline.ok() || !result.ok()) {
      std::fprintf(stderr, "simulation failed: %s\n",
                   (baseline.ok() ? result.status() : baseline.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    std::printf("\nSimulated over %d failure traces: %s\n",
                args.simulate_traces,
                cluster::SummarizeRunMany(*result, args.simulate_traces,
                                          *baseline, chosen->recovery)
                    .c_str());
    if (trace_ptr != nullptr) {
      // One extra single run exports the discrete-event timeline (virtual
      // time: 1 simulated second = 1 ms) into the trace on its own pid.
      sim_options.trace = trace_ptr;
      sim_options.trace_pid = 1;
      trace.SetProcessName(1, "simulator (virtual time: 1 sim s = 1 ms)");
      for (int k = 0; k < stats.num_nodes; ++k) {
        trace.SetThreadName(1, k, "node " + std::to_string(k));
      }
      cluster::ClusterSimulator traced(stats, sim_options);
      auto single = cluster::GenerateTraceSet(stats, 1, /*base_seed=*/43);
      auto r = traced.Run(*chosen, single[0]);
      if (!r.ok()) {
        std::fprintf(stderr, "traced simulation failed: %s\n",
                     r.status().ToString().c_str());
      }
    }
  }

  if (trace_ptr != nullptr) {
    const Status s = trace.WriteFile(args.trace_out);
    if (!s.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", args.trace_out.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    std::printf("\nWrote Chrome trace (%zu events) to %s\n",
                trace.num_events(), args.trace_out.c_str());
  }
  if (!args.metrics_json.empty()) {
    obs::RunReport report;
    report.tool = "xdbft_advisor";
    report.plan_name = plan->name();
    report.config_summary = chosen->config.ToString();
    report.params["nodes"] = std::to_string(args.nodes);
    report.params["mtbf_seconds"] = std::to_string(args.mtbf);
    report.params["mttr_seconds"] = std::to_string(args.mttr);
    report.params["success_target"] = std::to_string(args.success_target);
    report.params["pipe_constant"] = std::to_string(args.pipe_constant);
    report.params["simulate_traces"] = std::to_string(args.simulate_traces);
    report.params["greedy"] = args.greedy ? "true" : "false";
    if (forced_scheme) report.params["scheme"] = args.scheme;
    if (model.wal_enabled) {
      report.params["wal_write_cost"] = std::to_string(model.wal_write_cost);
    }
    report.params["threads"] =
        std::to_string(ft::FtPlanEnumerator::ResolveThreads(args.threads));
    report.params["exec_threads"] = std::to_string(
        engine::FaultTolerantExecutor::ResolveThreads(args.exec_threads));
    report.profiles = std::move(profiles);
    report.metrics = obs::MetricsRegistry::Default().Snapshot();
    const Status s = report.WriteFile(args.metrics_json);
    if (!s.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n",
                   args.metrics_json.c_str(), s.ToString().c_str());
      return 1;
    }
    std::printf("Wrote metrics report to %s\n", args.metrics_json.c_str());
  }
  return 0;
}
