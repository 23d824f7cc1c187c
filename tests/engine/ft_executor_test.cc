// Tests of real fault-tolerant execution: injected mid-query failures with
// actual recomputation, asserting result correctness (recovery
// transparency) under every materialization configuration.
#include <gtest/gtest.h>

#include "engine/ft_executor.h"
#include "engine/query_runner.h"
#include "tpch_reference.h"

namespace xdbft::engine {
namespace {

struct Fixture {
  datagen::TpchDatabase db;
  PartitionedDatabase pd;
};

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    datagen::TpchGenOptions opts;
    opts.scale_factor = 0.005;
    opts.seed = 99;
    auto db = datagen::GenerateTpch(opts);
    auto pd = DistributeTpch(*db, 3);
    return new Fixture{std::move(*db), std::move(*pd)};
  }();
  return *fixture;
}

bool TablesEqual(const exec::Table& a, const exec::Table& b) {
  if (a.num_rows() != b.num_rows()) return false;
  for (size_t i = 0; i < a.num_rows(); ++i) {
    if (a.rows[i].size() != b.rows[i].size()) return false;
    for (size_t j = 0; j < a.rows[i].size(); ++j) {
      // Doubles recomputed over the same data in the same order are
      // bit-identical.
      if (!(a.rows[i][j] == b.rows[i][j])) return false;
    }
  }
  return true;
}

TEST(StagePlanTest, ValidatesAndBuildsSkeleton) {
  const Fixture& f = GetFixture();
  const StagePlan q5 = MakeQ5StagePlan(f.pd);
  EXPECT_TRUE(q5.Validate().ok());
  EXPECT_EQ(q5.num_stages(), 7);
  const plan::Plan skeleton = q5.ToPlanSkeleton();
  EXPECT_TRUE(skeleton.Validate().ok());
  // Global stages (Join1, Broadcast, Agg) are bound always-materialize.
  int bound = 0;
  for (const auto& n : skeleton.nodes()) {
    if (n.constraint == plan::MatConstraint::kAlwaysMaterialize) ++bound;
  }
  EXPECT_EQ(bound, 3);
}

// The failure-free executor against the single-node reference loops (an
// oracle independent of the stage plans both drivers run).
TEST(FtExecutorTest, FailureFreeMatchesReferenceQ1) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ1StagePlan(f.pd);
  FaultTolerantExecutor executor(&plan, &f.pd);
  auto r = executor.Execute(
      ft::MaterializationConfig::AllMat(plan.ToPlanSkeleton()));
  ASSERT_TRUE(r.ok()) << r.status();
  ExpectMatchesReferenceQ1(r->result, f.db);
  EXPECT_EQ(r->failures_injected, 0);
  EXPECT_EQ(r->recovery_executions, 0);
}

TEST(FtExecutorTest, FailureFreeMatchesReferenceQ5) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ5StagePlan(f.pd);
  FaultTolerantExecutor executor(&plan, &f.pd);
  auto r = executor.Execute(
      ft::MaterializationConfig::AllMat(plan.ToPlanSkeleton()));
  ASSERT_TRUE(r.ok()) << r.status();
  ExpectMatchesReferenceQ5(r->result, f.db);
}

// Inject one failure into a mid-plan partitioned stage on one partition
// and check the result is identical for every materialization
// configuration.
void ExpectRecoversFromSingleFailure(
    StagePlan (*make)(const PartitionedDatabase&, ExecOptions),
    int victim_stage) {
  const Fixture& f = GetFixture();
  const StagePlan plan = make(f.pd, ExecOptions{});
  ASSERT_FALSE(plan.stage(victim_stage).global) << plan.name();
  const plan::Plan skeleton = plan.ToPlanSkeleton();
  FaultTolerantExecutor executor(&plan, &f.pd);
  auto clean = executor.Execute(ft::MaterializationConfig::AllMat(skeleton));
  ASSERT_TRUE(clean.ok());

  const auto free_ops = ft::EnumerableOperators(skeleton);
  const uint64_t num_configs = uint64_t{1} << free_ops.size();
  for (uint64_t mask = 0; mask < num_configs; ++mask) {
    const auto config =
        ft::MaterializationConfig::FromFreeMask(skeleton, mask);
    ScriptedInjector injector({{victim_stage, 1}});
    auto r = executor.Execute(config, &injector);
    ASSERT_TRUE(r.ok()) << "mask=" << mask << ": " << r.status();
    EXPECT_TRUE(TablesEqual(r->result, clean->result)) << "mask=" << mask;
    EXPECT_EQ(r->failures_injected, 1) << "mask=" << mask;
    EXPECT_GE(r->recovery_executions, 1) << "mask=" << mask;
  }
}

TEST(FtExecutorTest, RecoversFromSingleFailureAllConfigs) {
  ExpectRecoversFromSingleFailure(&MakeQ5StagePlan, 4);  // Join4
}

TEST(FtExecutorTest, RecoversFromSingleFailureAllConfigsQ3) {
  ExpectRecoversFromSingleFailure(&MakeQ3StagePlan, 1);  // Join(CO,L)
}

TEST(FtExecutorTest, RecoversFromSingleFailureAllConfigsQ1C) {
  ExpectRecoversFromSingleFailure(&MakeQ1CStagePlan, 2);  // Join(L,avg)
}

TEST(FtExecutorTest, RecoversFromSingleFailureAllConfigsQ2C) {
  ExpectRecoversFromSingleFailure(&MakeQ2CStagePlan, 3);  // Outer2Join
}

TEST(FtExecutorTest, MaterializationLimitsRecoveryWork) {
  // A failure late in the plan forces recomputation back to the last
  // materialized stage: with everything materialized, recovery re-runs
  // one task; with nothing materialized, it re-runs the partition's whole
  // chain.
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ5StagePlan(f.pd);
  const plan::Plan skeleton = plan.ToPlanSkeleton();
  FaultTolerantExecutor executor(&plan, &f.pd);

  ScriptedInjector inj_allmat({{5, 0}});
  auto all_mat = executor.Execute(
      ft::MaterializationConfig::AllMat(skeleton), &inj_allmat);
  ASSERT_TRUE(all_mat.ok());
  ScriptedInjector inj_nomat({{5, 0}});
  auto no_mat = executor.Execute(ft::MaterializationConfig::NoMat(skeleton),
                                 &inj_nomat);
  ASSERT_TRUE(no_mat.ok());
  EXPECT_EQ(all_mat->recovery_executions, 1);
  EXPECT_GT(no_mat->recovery_executions, all_mat->recovery_executions);
  EXPECT_TRUE(TablesEqual(all_mat->result, no_mat->result));
}

TEST(FtExecutorTest, RepeatedFailuresOfSameTask) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ1StagePlan(f.pd);
  const plan::Plan skeleton = plan.ToPlanSkeleton();
  FaultTolerantExecutor executor(&plan, &f.pd);
  auto clean = executor.Execute(ft::MaterializationConfig::AllMat(skeleton));
  ASSERT_TRUE(clean.ok());
  ScriptedInjector injector({{0, 2}}, /*times=*/5);
  auto r = executor.Execute(ft::MaterializationConfig::NoMat(skeleton),
                            &injector);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->failures_injected, 5);
  EXPECT_TRUE(TablesEqual(r->result, clean->result));
}

TEST(FtExecutorTest, AbortsAfterMaxAttempts) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ1StagePlan(f.pd);
  const plan::Plan skeleton = plan.ToPlanSkeleton();
  FaultTolerantExecutor executor(&plan, &f.pd);
  ScriptedInjector injector({{0, 0}}, /*times=*/1000000);
  auto r = executor.Execute(ft::MaterializationConfig::NoMat(skeleton),
                            &injector, /*max_attempts=*/5);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsAborted());
}

TEST(FtExecutorTest, RandomFailuresStillCorrect) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ5StagePlan(f.pd);
  const plan::Plan skeleton = plan.ToPlanSkeleton();
  FaultTolerantExecutor executor(&plan, &f.pd);
  auto clean = executor.Execute(ft::MaterializationConfig::AllMat(skeleton));
  ASSERT_TRUE(clean.ok());
  int total_failures = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RandomInjector injector(0.25, seed);
    const auto config = ft::MaterializationConfig::FromFreeMask(
        skeleton, seed % 16);
    auto r = executor.Execute(config, &injector);
    ASSERT_TRUE(r.ok()) << seed << ": " << r.status();
    EXPECT_TRUE(TablesEqual(r->result, clean->result)) << seed;
    total_failures += r->failures_injected;
  }
  EXPECT_GT(total_failures, 0);  // 25% per attempt: failures must occur
}

TEST(FtExecutorTest, GlobalStageFailureRetriesWithoutDataLoss) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ5StagePlan(f.pd);
  const plan::Plan skeleton = plan.ToPlanSkeleton();
  FaultTolerantExecutor executor(&plan, &f.pd);
  auto clean = executor.Execute(ft::MaterializationConfig::AllMat(skeleton));
  ASSERT_TRUE(clean.ok());
  // Stage 6 (final aggregation) is global: partition is -1.
  ScriptedInjector injector({{6, -1}});
  auto r = executor.Execute(ft::MaterializationConfig::NoMat(skeleton),
                            &injector);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->failures_injected, 1);
  // Coordinator retry only: one extra task.
  EXPECT_EQ(r->recovery_executions, 1);
  EXPECT_TRUE(TablesEqual(r->result, clean->result));
}

TEST(FtExecutorTest, WalReplayAvoidsChainRecomputation) {
  // A failure deep in an unmaterialized pipeline chain: without WAL the
  // whole chain below the last materialization point is recomputed; with
  // WAL the chain is replayed from the lineage log and only the killed
  // attempt re-runs.
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeFilterChainStagePlan(f.pd, /*depth=*/4);
  const plan::Plan skeleton = plan.ToPlanSkeleton();
  FaultTolerantExecutor executor(&plan, &f.pd);

  ScriptedInjector inj_recompute({{4, 0}});
  auto recompute = executor.Execute(
      ft::MaterializationConfig::NoMat(skeleton), &inj_recompute);
  ASSERT_TRUE(recompute.ok()) << recompute.status();

  executor.set_wal(true);
  ScriptedInjector inj_wal({{4, 0}});
  auto wal = executor.Execute(ft::MaterializationConfig::NoMat(skeleton),
                              &inj_wal);
  ASSERT_TRUE(wal.ok()) << wal.status();

  EXPECT_TRUE(TablesEqual(wal->result, recompute->result));
  EXPECT_EQ(wal->failures_injected, 1);
  EXPECT_GT(wal->rows_logged, 0u);
  EXPECT_GT(wal->replay_executions, 0);
  EXPECT_GT(wal->rows_replayed, 0u);
  // Replay spares the ancestor chain: strictly fewer re-executions.
  EXPECT_LT(wal->recovery_executions, recompute->recovery_executions);
  EXPECT_EQ(wal->recovery_executions, 1);  // only the killed attempt
  EXPECT_EQ(wal->rows_lost, 0u);  // everything lost was in the log
}

TEST(FtExecutorTest, WalBitIdenticalAcrossThreadCounts) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeFilterChainStagePlan(f.pd, /*depth=*/4);
  const plan::Plan skeleton = plan.ToPlanSkeleton();
  std::optional<FtExecutionResult> reference;
  for (int threads : {1, 2, 4}) {
    FaultTolerantExecutor executor(&plan, &f.pd);
    executor.set_wal(true);
    executor.set_num_threads(threads);
    RandomInjector injector(0.2, /*seed=*/17);
    auto r = executor.Execute(ft::MaterializationConfig::NoMat(skeleton),
                              &injector);
    ASSERT_TRUE(r.ok()) << threads << ": " << r.status();
    if (!reference.has_value()) {
      reference = std::move(*r);
      continue;
    }
    EXPECT_TRUE(TablesEqual(r->result, reference->result)) << threads;
    EXPECT_EQ(r->failures_injected, reference->failures_injected);
    EXPECT_EQ(r->task_executions, reference->task_executions) << threads;
    EXPECT_EQ(r->replay_executions, reference->replay_executions)
        << threads;
    EXPECT_EQ(r->rows_logged, reference->rows_logged) << threads;
    EXPECT_EQ(r->rows_replayed, reference->rows_replayed) << threads;
  }
}

TEST(FtExecutorTest, WalWithoutFailuresOnlyPaysLogWrites) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeFilterChainStagePlan(f.pd, /*depth=*/3);
  const plan::Plan skeleton = plan.ToPlanSkeleton();
  FaultTolerantExecutor executor(&plan, &f.pd);
  auto clean = executor.Execute(ft::MaterializationConfig::NoMat(skeleton));
  ASSERT_TRUE(clean.ok());
  executor.set_wal(true);
  auto wal = executor.Execute(ft::MaterializationConfig::NoMat(skeleton));
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(TablesEqual(wal->result, clean->result));
  EXPECT_GT(wal->rows_logged, 0u);  // the up-front write cost
  EXPECT_EQ(wal->replay_executions, 0);
  EXPECT_EQ(wal->recovery_executions, 0);
  EXPECT_EQ(wal->task_executions, clean->task_executions);
}

TEST(FtExecutorTest, RejectsNulls) {
  FaultTolerantExecutor executor(nullptr, nullptr);
  EXPECT_FALSE(executor.Execute(ft::MaterializationConfig{}).ok());
}

}  // namespace
}  // namespace xdbft::engine
