#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

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
    opts.scale_factor = 0.01;
    opts.seed = 777;
    auto db = datagen::GenerateTpch(opts);
    auto pd = DistributeTpch(*db, 3);
    return new Fixture{std::move(*db), std::move(*pd)};
  }();
  return *fixture;
}

TEST(Q1CTest, MatchesReference) {
  const Fixture& f = GetFixture();
  QueryRunner runner(&f.pd);
  auto result = runner.RunQ1C();
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectMatchesReferenceQ1C(result->result, f.db);
}

TEST(Q1CTest, HasAggregationInTheMiddle) {
  const Fixture& f = GetFixture();
  QueryRunner runner(&f.pd);
  auto result = runner.RunQ1C();
  ASSERT_TRUE(result.ok());
  // The inner aggregation is its per-partition partials plus a global
  // merge; the outer query re-joins LINEITEM and counts.
  ASSERT_EQ(result->stages.size(), 4u);
  EXPECT_EQ(result->stages[0].label, "InnerPartialAgg(L)");
  EXPECT_EQ(result->stages[1].label, "InnerAgg(avg_price)");
  EXPECT_EQ(result->stages[2].label, "Join(L,avg)");
  EXPECT_EQ(result->stages[3].label, "Agg(count_by_status)");
  // The mid-plan aggregation output is tiny — the paper's cheap
  // checkpoint.
  EXPECT_LT(result->stages[1].output_rows, 10u);
  EXPECT_GT(result->stages[2].output_rows,
            100 * result->stages[1].output_rows);
}

TEST(Q2CTest, ResultsAreMinCostPairs) {
  const Fixture& f = GetFixture();
  QueryRunner runner(&f.pd);
  auto result = runner.RunQ2C();
  ASSERT_TRUE(result.ok()) << result.status();
  const Q2CReference ref = ReferenceQ2C(f.db);
  // The CTE feeds two outer join+top-k pairs; a global union closes.
  ASSERT_EQ(result->stages.size(), 6u);
  EXPECT_EQ(result->stages[0].label, "CTE(min_supplycost)");
  EXPECT_EQ(result->stages[1].label, "Outer1Join");
  EXPECT_EQ(result->stages[2].label, "Outer1TopK");
  EXPECT_EQ(result->stages[3].label, "Outer2Join");
  EXPECT_EQ(result->stages[4].label, "Outer2TopK");
  EXPECT_EQ(result->stages[5].label, "Union(Outer1,Outer2)");
  // Outer results are capped at 100 rows each and must be subsets of the
  // reference pair sets.
  const size_t n1 = result->stages[2].output_rows;
  const size_t n2 = result->stages[4].output_rows;
  EXPECT_EQ(n1, std::min<size_t>(100, ref.outer1.size()));
  EXPECT_EQ(n2, std::min<size_t>(100, ref.outer2.size()));
  for (size_t i = 0; i < result->result.num_rows(); ++i) {
    const auto& row = result->result.rows[i];
    const std::pair<int64_t, int64_t> pair = {row[0].AsInt64(),
                                              row[1].AsInt64()};
    if (i < n1) {
      EXPECT_TRUE(ref.outer1.count(pair)) << i;
    } else {
      EXPECT_TRUE(ref.outer2.count(pair)) << i;
    }
  }
}

TEST(Q2CTest, OuterResultsSortedBySupplycost) {
  const Fixture& f = GetFixture();
  QueryRunner runner(&f.pd);
  auto result = runner.RunQ2C();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->stages.size(), 6u);
  const size_t n1 = result->stages[2].output_rows;
  double prev = -1.0;
  for (size_t i = 0; i < n1; ++i) {
    const double c = result->result.rows[i][2].AsDouble();
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(ComplexQueriesTest, ResultsIndependentOfPartitionCount) {
  const Fixture& f = GetFixture();
  auto pd1 = DistributeTpch(f.db, 1);
  ASSERT_TRUE(pd1.ok());
  QueryRunner rn(&f.pd);
  QueryRunner r1(&*pd1);
  auto an = rn.RunQ1C();
  auto a1 = r1.RunQ1C();
  ASSERT_TRUE(an.ok());
  ASSERT_TRUE(a1.ok());
  ASSERT_EQ(an->result.num_rows(), a1->result.num_rows());
  for (size_t i = 0; i < an->result.num_rows(); ++i) {
    EXPECT_TRUE(exec::RowEq{}(an->result.rows[i], a1->result.rows[i]));
  }
}

TEST(ComplexQueriesTest, RejectNullDatabase) {
  QueryRunner runner(nullptr);
  EXPECT_FALSE(runner.RunQ1C().ok());
  EXPECT_FALSE(runner.RunQ2C().ok());
}

}  // namespace
}  // namespace xdbft::engine
