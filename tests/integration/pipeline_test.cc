// Integration tests spanning the full pipeline: TPC-H data generation →
// partition-parallel execution → cost calibration → plan serialization →
// cost-based fault-tolerant plan selection → failure-injected simulation.
#include <gtest/gtest.h>

#include "api/xdbft.h"
#include "engine/cost_calibrator.h"
#include "engine/query_runner.h"
#include "plan/plan_text.h"

namespace xdbft {
namespace {

TEST(PipelineTest, GenerateExecuteCalibrateChooseSimulate) {
  // 1. Generate and distribute.
  datagen::TpchGenOptions gen;
  gen.scale_factor = 0.01;
  gen.seed = 31337;
  auto db = datagen::GenerateTpch(gen);
  ASSERT_TRUE(db.ok()) << db.status();
  auto pd = engine::DistributeTpch(*db, 4);
  ASSERT_TRUE(pd.ok()) << pd.status();

  // 2. Execute Q5 for real.
  engine::QueryRunner runner(&*pd);
  auto execution = runner.RunQ5();
  ASSERT_TRUE(execution.ok()) << execution.status();
  ASSERT_EQ(execution->stages.size(), 7u);  // Fig. 9 + Broadcast(RNC)
  EXPECT_GT(execution->total_seconds, 0.0);
  EXPECT_GT(execution->result.num_rows(), 0u);

  // 3. Calibrate a plan from the measured statistics.
  auto calibrated = engine::BuildCalibratedPlan(
      *execution, cost::ExternalIscsiStorage(), "q5-measured");
  ASSERT_TRUE(calibrated.ok()) << calibrated.status();
  EXPECT_TRUE(calibrated->Validate().ok());

  // 4. Serialize and re-parse the calibrated plan (tooling path).
  auto reparsed = plan::PlanFromText(plan::PlanToText(*calibrated));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();

  // 5. Extrapolate to deployment scale and choose the FT plan.
  plan::Plan production =
      engine::ScaleCalibratedPlan(*reparsed, 100.0 / gen.scale_factor, 1.0);
  engine::RecostMaterialization(&production, cost::ExternalIscsiStorage());
  const auto stats = cost::MakeCluster(4, cost::kSecondsPerHour, 2.0);
  api::FaultToleranceAdvisor advisor(stats);
  auto chosen = advisor.ChooseBestPlan(production);
  ASSERT_TRUE(chosen.ok()) << chosen.status();
  EXPECT_TRUE(chosen->config.Validate(chosen->plan).ok());

  // 6. Validate in the simulator: the chosen plan completes and its mean
  // runtime is at least the baseline.
  cluster::ClusterSimulator simulator(stats);
  auto baseline = simulator.BaselineRuntime(production);
  ASSERT_TRUE(baseline.ok());
  auto traces = cluster::GenerateTraceSet(stats, 10, 1);
  auto simulated = simulator.RunMany(*chosen, traces);
  ASSERT_TRUE(simulated.ok());
  EXPECT_TRUE(simulated->completed);
  EXPECT_GE(simulated->runtime, *baseline * 0.999);
}

TEST(PipelineTest, CalibratedChoiceBeatsFixedSchemesUnderSimulation) {
  // The cost-based choice on the calibrated plan must simulate no worse
  // than ~15% above the best fixed scheme across failure regimes.
  datagen::TpchGenOptions gen;
  gen.scale_factor = 0.01;
  auto db = datagen::GenerateTpch(gen);
  auto pd = engine::DistributeTpch(*db, 4);
  engine::QueryRunner runner(&*pd);
  auto execution = runner.RunQ3();
  ASSERT_TRUE(execution.ok());
  auto calibrated = engine::BuildCalibratedPlan(
      *execution, cost::ExternalIscsiStorage(), "q3-measured");
  ASSERT_TRUE(calibrated.ok());
  plan::Plan production =
      engine::ScaleCalibratedPlan(*calibrated, 10000.0, 1.0);
  engine::RecostMaterialization(&production, cost::ExternalIscsiStorage());

  for (double mtbf : {cost::kSecondsPerHour, cost::kSecondsPerDay}) {
    const auto stats = cost::MakeCluster(4, mtbf, 2.0);
    auto result = cluster::RunSchemeComparison(production, stats, {},
                                               /*num_traces=*/10);
    ASSERT_TRUE(result.ok()) << result.status();
    double best_fixed = 1e300;
    for (const auto& s : result->schemes) {
      // The write-ahead-lineage row is excluded from the bound: under the
      // default model (wal_enabled == false) the cost-based search never
      // considers WAL, so it can't be held to a discipline it wasn't
      // allowed to pick.
      if (s.kind != ft::SchemeKind::kCostBased &&
          s.kind != ft::SchemeKind::kWriteAheadLineage && s.completed) {
        best_fixed = std::min(best_fixed, s.mean_runtime);
      }
    }
    const auto& cb = result->outcome(ft::SchemeKind::kCostBased);
    ASSERT_TRUE(cb.completed);
    EXPECT_LE(cb.mean_runtime, best_fixed * 1.15) << "mtbf=" << mtbf;
  }
}

TEST(PipelineTest, AllTpchPlansSerializeAndAdvise) {
  // Every built-in TPC-H plan survives serialization and produces a valid
  // advisor choice.
  for (tpch::TpchQuery q : tpch::AllQueries()) {
    tpch::TpchPlanConfig cfg;
    cfg.scale_factor = 100.0;
    auto plan = tpch::BuildQuery(q, cfg);
    ASSERT_TRUE(plan.ok()) << tpch::TpchQueryName(q);
    auto reparsed = plan::PlanFromText(plan::PlanToText(*plan));
    ASSERT_TRUE(reparsed.ok()) << tpch::TpchQueryName(q);
    api::FaultToleranceAdvisor advisor(
        cost::MakeCluster(10, cost::kSecondsPerHour, 1.0));
    auto chosen = advisor.ChooseBestPlan(*reparsed);
    ASSERT_TRUE(chosen.ok()) << tpch::TpchQueryName(q);
    EXPECT_GT(chosen->estimated_cost, 0.0) << tpch::TpchQueryName(q);
  }
}

TEST(PipelineTest, JoinOrderPipelineFeedsAdvisor) {
  // Optimizer top-k -> emitted plans -> advisor over candidates.
  tpch::TpchPlanConfig cfg;
  cfg.scale_factor = 10.0;
  auto graph = tpch::MakeQ5JoinGraph(cfg);
  ASSERT_TRUE(graph.ok());
  optimizer::JoinTreeArena arena;
  auto roots = optimizer::EnumerateTopKJoinTrees(
      *graph, 4, tpch::MakePhysicalCostParams(cfg), &arena);
  ASSERT_TRUE(roots.ok());
  std::vector<plan::Plan> candidates;
  for (int root : *roots) {
    auto p = optimizer::EmitPlan(arena, root, *graph,
                                 tpch::MakePhysicalCostParams(cfg));
    ASSERT_TRUE(p.ok());
    candidates.push_back(std::move(*p));
  }
  api::FaultToleranceAdvisor advisor(
      cost::MakeCluster(10, cost::kSecondsPerHour, 1.0));
  auto chosen = advisor.ChooseBestPlan(candidates);
  ASSERT_TRUE(chosen.ok()) << chosen.status();
  EXPECT_TRUE(chosen->config.Validate(chosen->plan).ok());
}

}  // namespace
}  // namespace xdbft
