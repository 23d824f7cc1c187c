// Vectorized engine vs the test oracle at the query level: every benchmark
// query (Q1/Q3/Q5 and the complex Q1C/Q2C) must produce bit-identical
// results — same rows, same order, same floating-point bits — from
// QueryRunner at 1, 2 and 8 threads and from the fault-tolerant stage
// executor as from the oracle stage driver, which runs the same stage plan
// on the row-at-a-time Volcano operators (tests/oracle). Bit identity (not
// approximate equality) is what lets the FT recovery path recompute a lost
// stage without detectable drift.
#include <gtest/gtest.h>

#include "engine/ft_executor.h"
#include "engine/query_runner.h"
#include "exec/batch.h"
#include "oracle/stage_driver.h"

namespace xdbft::engine {
namespace {

using exec::BitIdenticalTables;

struct Fixture {
  datagen::TpchDatabase db;
  PartitionedDatabase pd;
};

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    datagen::TpchGenOptions opts;
    opts.scale_factor = 0.01;
    opts.seed = 4242;
    auto db = datagen::GenerateTpch(opts);
    auto pd = DistributeTpch(*db, 4);
    return new Fixture{std::move(*db), std::move(*pd)};
  }();
  return *fixture;
}

using RunFn = Result<QueryExecution> (QueryRunner::*)() const;
using MakeFn = StagePlan (*)(const PartitionedDatabase&, ExecOptions);

exec::Table OracleResult(MakeFn make) {
  const Fixture& f = GetFixture();
  auto r = oracle::RunStagePlan(make(f.pd, ExecOptions{}), f.pd.num_nodes);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? std::move(*r) : exec::Table{};
}

void ExpectRunnerMatchesOracle(RunFn run, MakeFn make) {
  const Fixture& f = GetFixture();
  const exec::Table expected = OracleResult(make);
  ASSERT_GT(expected.num_rows(), 0u);
  for (const int threads : {1, 2, 8}) {
    ExecOptions opts;
    opts.num_threads = threads;
    QueryRunner runner(&f.pd, opts);
    auto vec = (runner.*run)();
    ASSERT_TRUE(vec.ok()) << vec.status() << " threads=" << threads;
    EXPECT_TRUE(BitIdenticalTables(expected, vec->result))
        << "threads=" << threads;
  }
}

TEST(RowBatchCrosscheckTest, Q1) {
  ExpectRunnerMatchesOracle(&QueryRunner::RunQ1, &MakeQ1StagePlan);
}

TEST(RowBatchCrosscheckTest, Q3) {
  ExpectRunnerMatchesOracle(&QueryRunner::RunQ3, &MakeQ3StagePlan);
}

TEST(RowBatchCrosscheckTest, Q5) {
  ExpectRunnerMatchesOracle(&QueryRunner::RunQ5, &MakeQ5StagePlan);
}

TEST(RowBatchCrosscheckTest, Q1C) {
  ExpectRunnerMatchesOracle(&QueryRunner::RunQ1C, &MakeQ1CStagePlan);
}

TEST(RowBatchCrosscheckTest, Q2C) {
  ExpectRunnerMatchesOracle(&QueryRunner::RunQ2C, &MakeQ2CStagePlan);
}

TEST(RowBatchCrosscheckTest, SmallMorselsStayBitIdentical) {
  // Tiny morsels maximize the number of sink-ordered merge points.
  const Fixture& f = GetFixture();
  const exec::Table expected = OracleResult(&MakeQ1StagePlan);
  ExecOptions opts;
  opts.num_threads = 4;
  opts.morsel_rows = 33;
  QueryRunner runner(&f.pd, opts);
  auto vec = runner.RunQ1();
  ASSERT_TRUE(vec.ok()) << vec.status();
  EXPECT_TRUE(BitIdenticalTables(expected, vec->result));
}

// ---- FT stage executor against the oracle ----

void ExpectStagePlanBitIdentical(MakeFn make) {
  const Fixture& f = GetFixture();
  const exec::Table expected = OracleResult(make);
  const StagePlan plan = make(f.pd, ExecOptions{});
  FaultTolerantExecutor executor(&plan, &f.pd);
  auto r = executor.Execute(
      ft::MaterializationConfig::AllMat(plan.ToPlanSkeleton()));
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_GT(expected.num_rows(), 0u);
  EXPECT_TRUE(BitIdenticalTables(expected, r->result));
}

TEST(RowBatchCrosscheckTest, FtExecutorQ1StagePlan) {
  ExpectStagePlanBitIdentical(&MakeQ1StagePlan);
}

TEST(RowBatchCrosscheckTest, FtExecutorQ3StagePlan) {
  ExpectStagePlanBitIdentical(&MakeQ3StagePlan);
}

TEST(RowBatchCrosscheckTest, FtExecutorQ5StagePlan) {
  ExpectStagePlanBitIdentical(&MakeQ5StagePlan);
}

TEST(RowBatchCrosscheckTest, FtExecutorQ1CStagePlan) {
  ExpectStagePlanBitIdentical(&MakeQ1CStagePlan);
}

TEST(RowBatchCrosscheckTest, FtExecutorQ2CStagePlan) {
  ExpectStagePlanBitIdentical(&MakeQ2CStagePlan);
}

}  // namespace
}  // namespace xdbft::engine
