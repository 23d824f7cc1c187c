#include "engine/query_runner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "engine/cost_calibrator.h"
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
    opts.scale_factor = 0.01;
    opts.seed = 4242;
    auto db = datagen::GenerateTpch(opts);
    auto pd = DistributeTpch(*db, 4);
    auto* f = new Fixture{std::move(*db), std::move(*pd)};
    return f;
  }();
  return *fixture;
}

TEST(QueryRunnerTest, Q1MatchesReference) {
  const Fixture& f = GetFixture();
  QueryRunner runner(&f.pd);
  auto result = runner.RunQ1();
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectMatchesReferenceQ1(result->result, f.db);
}

TEST(QueryRunnerTest, Q1RecordsStages) {
  const Fixture& f = GetFixture();
  QueryRunner runner(&f.pd);
  auto result = runner.RunQ1();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->stages.size(), 2u);
  EXPECT_EQ(result->stages[0].label, "PartialAgg(L)");
  EXPECT_GT(result->stages[0].output_rows, 0u);
  EXPECT_GT(result->total_seconds, 0.0);
}

TEST(QueryRunnerTest, Q3ReturnsTopTenByRevenue) {
  const Fixture& f = GetFixture();
  QueryRunner runner(&f.pd);
  auto result = runner.RunQ3();
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_LE(result->result.num_rows(), 10u);
  ASSERT_GT(result->result.num_rows(), 0u);
  // Sorted descending by revenue.
  const auto rev = result->result.schema.Find("revenue");
  ASSERT_TRUE(rev.ok());
  double prev = 1e300;
  for (const auto& row : result->result.rows) {
    const double r = row[static_cast<size_t>(*rev)].AsDouble();
    EXPECT_LE(r, prev);
    prev = r;
  }
  EXPECT_EQ(result->stages.size(), 4u);
  // The rows are the reference's ten highest-revenue orders, in order.
  ExpectMatchesReferenceQ3(result->result, f.db);
}

TEST(QueryRunnerTest, Q3TopRevenueMatchesReference) {
  // Reference: max revenue over qualifying orders.
  const Fixture& f = GetFixture();
  std::set<int64_t> segment_customers;
  for (const auto& row : f.db.customer.rows) {
    if (row[3].AsString() == params::kQ3Segment) {
      segment_customers.insert(row[0].AsInt64());
    }
  }
  std::map<int64_t, bool> order_ok;
  for (const auto& row : f.db.orders.rows) {
    order_ok[row[0].AsInt64()] =
        row[2].AsInt64() < params::kQ3Date &&
        segment_customers.count(row[1].AsInt64()) > 0;
  }
  std::map<int64_t, double> order_rev;
  for (const auto& row : f.db.lineitem.rows) {
    if (!order_ok[row[0].AsInt64()]) continue;
    if (row[10].AsInt64() <= params::kQ3Date) continue;
    order_rev[row[0].AsInt64()] +=
        row[5].AsDouble() * (1.0 - row[6].AsDouble());
  }
  double max_rev = 0.0;
  for (const auto& [k, v] : order_rev) max_rev = std::max(max_rev, v);

  QueryRunner runner(&f.pd);
  auto result = runner.RunQ3();
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->result.num_rows(), 0u);
  const auto rev = result->result.schema.Find("revenue");
  EXPECT_NEAR(result->result.rows[0][static_cast<size_t>(*rev)].AsDouble(),
              max_rev, max_rev * 1e-9);
}

TEST(QueryRunnerTest, Q5MatchesReference) {
  const Fixture& f = GetFixture();
  QueryRunner runner(&f.pd);
  auto result = runner.RunQ5();
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectMatchesReferenceQ5(result->result, f.db);
}

TEST(QueryRunnerTest, Q5HasFigureNineStages) {
  const Fixture& f = GetFixture();
  QueryRunner runner(&f.pd);
  auto result = runner.RunQ5();
  ASSERT_TRUE(result.ok());
  // Fig. 9's five joins and the final aggregation, with the customer side
  // broadcast (an exchange stage) before Join3.
  ASSERT_EQ(result->stages.size(), 7u);
  EXPECT_EQ(result->stages[0].label, "Join1(R,N)");
  EXPECT_EQ(result->stages[2].label, "Broadcast(RNC)");
  EXPECT_EQ(result->stages[5].label, "Join5(RNCOL,S)");
  EXPECT_EQ(result->stages[6].label, "Agg(nation)");
}

TEST(QueryRunnerTest, RejectsNullDatabase) {
  QueryRunner runner(nullptr);
  EXPECT_FALSE(runner.RunQ1().ok());
  EXPECT_FALSE(runner.RunQ3().ok());
  EXPECT_FALSE(runner.RunQ5().ok());
}

TEST(QueryRunnerTest, ResultsIndependentOfPartitionCount) {
  const Fixture& f = GetFixture();
  auto pd2 = DistributeTpch(f.db, 2);
  ASSERT_TRUE(pd2.ok());
  QueryRunner r4(&f.pd);
  QueryRunner r2(&*pd2);
  auto a = r4.RunQ5();
  auto b = r2.RunQ5();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->result.num_rows(), b->result.num_rows());
  for (size_t i = 0; i < a->result.num_rows(); ++i) {
    EXPECT_EQ(a->result.rows[i][0], b->result.rows[i][0]);
    EXPECT_NEAR(a->result.rows[i][1].AsDouble(),
                b->result.rows[i][1].AsDouble(),
                std::fabs(a->result.rows[i][1].AsDouble()) * 1e-9);
  }
}

TEST(CostCalibratorTest, BuildsChainPlanFromStages) {
  const Fixture& f = GetFixture();
  QueryRunner runner(&f.pd);
  auto result = runner.RunQ5();
  ASSERT_TRUE(result.ok());
  auto plan = BuildCalibratedPlan(*result, cost::ExternalIscsiStorage(),
                                  "q5-calibrated");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->num_nodes(), result->stages.size());
  EXPECT_TRUE(plan->Validate().ok());
  // Measured runtimes carried over.
  for (size_t i = 0; i < result->stages.size(); ++i) {
    EXPECT_DOUBLE_EQ(plan->node(static_cast<plan::OpId>(i)).runtime_cost,
                     result->stages[i].seconds);
  }
  // All but the sink are free.
  const auto free_ops = plan->FreeOperators();
  EXPECT_EQ(free_ops.size(), plan->num_nodes());
}

TEST(CostCalibratorTest, NodeTypesComeFromStagePlans) {
  // Each calibrated node takes its stage's Stage::type: Q1 and Q3 get the
  // types their labels always implied, Q5's exchange stage is a
  // repartition.
  using plan::OpType;
  const Fixture& f = GetFixture();
  QueryRunner runner(&f.pd);
  const std::pair<Result<QueryExecution> (QueryRunner::*)() const,
                  std::vector<OpType>>
      cases[] = {
          {&QueryRunner::RunQ1,
           {OpType::kHashAggregate, OpType::kHashAggregate}},
          {&QueryRunner::RunQ3,
           {OpType::kHashJoin, OpType::kHashJoin, OpType::kHashAggregate,
            OpType::kSort}},
          {&QueryRunner::RunQ5,
           {OpType::kHashJoin, OpType::kHashJoin, OpType::kRepartition,
            OpType::kHashJoin, OpType::kHashJoin, OpType::kHashJoin,
            OpType::kHashAggregate}},
      };
  for (const auto& [run, types] : cases) {
    auto execution = (runner.*run)();
    ASSERT_TRUE(execution.ok()) << execution.status();
    auto plan = BuildCalibratedPlan(*execution, cost::ExternalIscsiStorage(),
                                    "calibrated");
    ASSERT_TRUE(plan.ok()) << plan.status();
    ASSERT_EQ(plan->num_nodes(), types.size());
    for (size_t i = 0; i < types.size(); ++i) {
      EXPECT_EQ(plan->node(static_cast<plan::OpId>(i)).type, types[i])
          << plan->node(static_cast<plan::OpId>(i)).label;
    }
  }
}

TEST(CostCalibratorTest, ScalePlanMultipliesCosts) {
  plan::PlanBuilder b("p");
  auto s = b.Scan("R", 100, 10, 2.0);
  b.Unary(plan::OpType::kHashAggregate, "agg", s, 4.0, 1.0);
  plan::Plan p = std::move(b).Build();
  plan::Plan scaled = ScaleCalibratedPlan(p, 10.0, 3.0);
  EXPECT_DOUBLE_EQ(scaled.node(0).runtime_cost, 20.0);
  EXPECT_DOUBLE_EQ(scaled.node(1).runtime_cost, 40.0);
  EXPECT_DOUBLE_EQ(scaled.node(1).materialize_cost, 3.0);
}

TEST(CostCalibratorTest, RejectsEmptyExecution) {
  QueryExecution empty;
  EXPECT_FALSE(
      BuildCalibratedPlan(empty, cost::ExternalIscsiStorage(), "x").ok());
}

}  // namespace
}  // namespace xdbft::engine
