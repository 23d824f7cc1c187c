// Row-engine vs vectorized-engine crosscheck at the query level: every
// benchmark query (Q1/Q3/Q5 and the complex Q1C/Q2C) must produce
// bit-identical results — same rows, same order, same floating-point
// bits — on the morsel-driven engine at 1, 2 and 8 threads, and the
// fault-tolerant stage executor must be engine-agnostic the same way.
// Bit identity (not approximate equality) is what lets the FT recovery
// path recompute a lost stage on either engine without detectable drift.
#include <gtest/gtest.h>

#include "engine/ft_executor.h"
#include "engine/query_runner.h"
#include "exec/batch.h"

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

void ExpectRowBatchBitIdentical(RunFn run) {
  const Fixture& f = GetFixture();
  QueryRunner row_runner(&f.pd);  // default: ExecMode::kRow
  auto row = (row_runner.*run)();
  ASSERT_TRUE(row.ok()) << row.status();
  ASSERT_GT(row->result.num_rows(), 0u);
  for (const int threads : {1, 2, 8}) {
    ExecOptions opts;
    opts.mode = ExecMode::kVectorized;
    opts.num_threads = threads;
    QueryRunner vec_runner(&f.pd, opts);
    auto vec = (vec_runner.*run)();
    ASSERT_TRUE(vec.ok()) << vec.status() << " threads=" << threads;
    EXPECT_TRUE(BitIdenticalTables(row->result, vec->result))
        << "threads=" << threads;
  }
}

TEST(RowBatchCrosscheckTest, Q1) {
  ExpectRowBatchBitIdentical(&QueryRunner::RunQ1);
}

TEST(RowBatchCrosscheckTest, Q3) {
  ExpectRowBatchBitIdentical(&QueryRunner::RunQ3);
}

TEST(RowBatchCrosscheckTest, Q5) {
  ExpectRowBatchBitIdentical(&QueryRunner::RunQ5);
}

TEST(RowBatchCrosscheckTest, Q1C) {
  ExpectRowBatchBitIdentical(&QueryRunner::RunQ1C);
}

TEST(RowBatchCrosscheckTest, Q2C) {
  ExpectRowBatchBitIdentical(&QueryRunner::RunQ2C);
}

TEST(RowBatchCrosscheckTest, SmallMorselsStayBitIdentical) {
  // Tiny morsels maximize the number of sink-ordered merge points.
  const Fixture& f = GetFixture();
  QueryRunner row_runner(&f.pd);
  auto row = row_runner.RunQ1();
  ASSERT_TRUE(row.ok()) << row.status();
  ExecOptions opts;
  opts.mode = ExecMode::kVectorized;
  opts.num_threads = 4;
  opts.morsel_rows = 33;
  QueryRunner vec_runner(&f.pd, opts);
  auto vec = vec_runner.RunQ1();
  ASSERT_TRUE(vec.ok()) << vec.status();
  EXPECT_TRUE(BitIdenticalTables(row->result, vec->result));
}

// ---- FT stage executor is engine-agnostic ----

void ExpectStagePlanBitIdentical(
    StagePlan (*make)(const PartitionedDatabase&, ExecOptions)) {
  const Fixture& f = GetFixture();
  const StagePlan row_plan = make(f.pd, ExecOptions{});
  ExecOptions vec_opts;
  vec_opts.mode = ExecMode::kVectorized;
  const StagePlan vec_plan = make(f.pd, vec_opts);

  FaultTolerantExecutor row_exec(&row_plan, &f.pd);
  auto row = row_exec.Execute(
      ft::MaterializationConfig::AllMat(row_plan.ToPlanSkeleton()));
  ASSERT_TRUE(row.ok()) << row.status();

  FaultTolerantExecutor vec_exec(&vec_plan, &f.pd);
  auto vec = vec_exec.Execute(
      ft::MaterializationConfig::AllMat(vec_plan.ToPlanSkeleton()));
  ASSERT_TRUE(vec.ok()) << vec.status();

  ASSERT_GT(row->result.num_rows(), 0u);
  EXPECT_TRUE(BitIdenticalTables(row->result, vec->result));
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
