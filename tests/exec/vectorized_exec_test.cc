// Tests of the morsel-driven vectorized engine (exec/pipeline.h): batch
// helpers, vectorized expression evaluation (EvalVector / EvalSelection /
// FilterRows) versus per-row Eval, and plan execution across every VecOp
// and several thread counts, bit-identical to the test oracle's Volcano
// operators (oracle/operators.h). Bit identity — not approximate
// equality — is the contract the FT executor's determinism check relies
// on: the ordered serial sink accumulates floating-point state in exact
// input-row order no matter how many workers run the morsels.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "exec/batch.h"
#include "exec/pipeline.h"
#include "oracle/operators.h"

namespace xdbft::exec {
namespace {

Table Numbers(int n, int key_mod = 5) {
  Table t;
  t.schema = {{"k", ValueType::kInt64},
              {"price", ValueType::kDouble},
              {"disc", ValueType::kDouble}};
  for (int i = 0; i < n; ++i) {
    Value disc;  // NULL every 7th row
    if (i % 7 != 0) disc = Value((i % 10) * 0.01);
    t.rows.push_back({Value(i % key_mod), Value(i * 1.25), std::move(disc)});
  }
  return t;
}

Result<Table> RunRow(const VecNodePtr& plan) {
  auto op = ToOperator(plan);
  return Drain(op.get());
}

void ExpectBitIdentical(const VecNodePtr& plan,
                        std::vector<int> thread_counts = {1, 2, 8}) {
  auto row = RunRow(plan);
  ASSERT_TRUE(row.ok()) << row.status();
  for (const int threads : thread_counts) {
    VecExecOptions opts;
    opts.num_threads = threads;
    opts.morsel_rows = 64;  // many morsels even on small inputs
    auto vec = ExecuteVectorized(plan, opts);
    ASSERT_TRUE(vec.ok()) << vec.status() << " threads=" << threads;
    EXPECT_TRUE(BitIdenticalTables(*row, *vec)) << "threads=" << threads;
  }
}

// ---- batch helpers ----

TEST(BatchTest, RoundTripThroughTable) {
  Table t = Numbers(100);
  Batch b;
  BatchFromTable(t, 10, 30, &b);
  EXPECT_EQ(b.num_rows(), 20u);
  EXPECT_EQ(b.num_columns(), 3u);
  Table out;
  out.schema = t.schema;
  AppendBatchToTable(std::move(b), &out);
  ASSERT_EQ(out.num_rows(), 20u);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(out.rows[i], t.rows[10 + i]);
  }
}

TEST(BatchTest, ResetKeepsColumnsEmpty) {
  Table t = Numbers(50);
  Batch b;
  BatchFromTable(t, 0, 50, &b);
  b.Reset(2);
  EXPECT_EQ(b.num_columns(), 2u);
  EXPECT_EQ(b.num_rows(), 0u);
}

TEST(BatchTest, AppendGrowsGeometrically) {
  // Appending many small batches must stay linear (regression: reserving
  // to exactly size+n reallocated the accumulated table per batch).
  Table t = Numbers(64);
  Table out;
  out.schema = t.schema;
  for (int i = 0; i < 200; ++i) {
    Batch b;
    BatchFromTable(t, 0, 64, &b);
    AppendBatchToTable(std::move(b), &out);
  }
  EXPECT_EQ(out.num_rows(), 200u * 64u);
}

// ---- vectorized expression evaluation vs per-row Eval ----

TEST(VectorizedExprTest, EvalVectorMatchesRowEval) {
  Table t = Numbers(200);
  Batch b;
  BatchFromTable(t, 0, t.num_rows(), &b);
  std::vector<int32_t> sel;
  for (int32_t i = 0; i < 200; i += 3) sel.push_back(i);  // sparse sel

  const std::vector<Expr::Ptr> exprs = {
      Expr::Col(1) * (Expr::Lit(Value(1.0)) - Expr::Col(2)),  // nulls flow
      Expr::Col(0) + Expr::Lit(Value(int64_t{7})),
      Lt(Expr::Col(1), Expr::Lit(Value(100.0))),
      Eq(Expr::Col(0), Expr::Col(0)),
  };
  for (const auto& e : exprs) {
    std::vector<Value> out;
    e->EvalVector(b, sel, &out);
    ASSERT_EQ(out.size(), sel.size());
    for (size_t i = 0; i < sel.size(); ++i) {
      const Value expect = e->Eval(t.rows[static_cast<size_t>(sel[i])]);
      EXPECT_TRUE(BitIdenticalValue(expect, out[i]))
          << "expr=" << e->ToString() << " pos=" << sel[i];
    }
  }
}

TEST(VectorizedExprTest, EvalSelectionMatchesEvalBool) {
  Table t = Numbers(150);
  Batch b;
  BatchFromTable(t, 0, t.num_rows(), &b);
  const std::vector<Expr::Ptr> preds = {
      Lt(Expr::Col(0), Expr::Lit(Value(int64_t{3}))),
      Gt(Expr::Col(2), Expr::Lit(Value(0.05))),  // NULL disc -> dropped
      Eq(Expr::Col(0), Expr::Lit(Value(int64_t{1}))),
  };
  for (const auto& p : preds) {
    std::vector<int32_t> sel(t.num_rows());
    for (size_t i = 0; i < sel.size(); ++i) sel[i] = static_cast<int32_t>(i);
    p->EvalSelection(b, &sel);
    std::vector<int32_t> expect;
    for (size_t i = 0; i < t.num_rows(); ++i) {
      if (p->EvalBool(t.rows[i])) expect.push_back(static_cast<int32_t>(i));
    }
    EXPECT_EQ(sel, expect) << p->ToString();
  }
}

TEST(VectorizedExprTest, FilterRowsMatchesEvalBool) {
  Table t = Numbers(120);
  const std::vector<Expr::Ptr> preds = {
      // Direct-operand comparison: the in-place fast path.
      Lt(Expr::Col(0), Expr::Lit(Value(int64_t{2}))),
      // Composite operand: the EvalBool fallback.
      Gt(Expr::Col(1) * (Expr::Lit(Value(1.0)) - Expr::Col(2)),
         Expr::Lit(Value(20.0))),
  };
  for (const auto& p : preds) {
    std::vector<int32_t> sel;
    const size_t lo = 13, hi = 97;
    p->FilterRows(t.rows, lo, hi, &sel);
    std::vector<int32_t> expect;
    for (size_t i = lo; i < hi; ++i) {
      if (p->EvalBool(t.rows[i])) {
        expect.push_back(static_cast<int32_t>(i - lo));
      }
    }
    EXPECT_EQ(sel, expect) << p->ToString();
  }
}

// ---- plan execution: every VecOp, row vs vectorized, multi-threaded ----

TEST(VectorizedPlanTest, ScanFilterProject) {
  Table t = Numbers(1000);
  ExpectBitIdentical(VProject(
      VFilter(VScan(&t), Lt(Expr::Col(0), Expr::Lit(Value(int64_t{3})))),
      {Expr::Col(1) * (Expr::Lit(Value(1.0)) - Expr::Col(2))}, {"rev"}));
}

TEST(VectorizedPlanTest, FusedScanFilterCompositePredicate) {
  // A predicate whose operands are not column/literal exercises the
  // fused scan-filter's EvalBool fallback.
  Table t = Numbers(500);
  ExpectBitIdentical(VFilter(
      VScan(&t), Gt(Expr::Col(1) * (Expr::Lit(Value(1.0)) - Expr::Col(2)),
                    Expr::Lit(Value(50.0)))));
}

TEST(VectorizedPlanTest, FilterAboveProjectUsesSelectionPath) {
  // The non-fused filter (its input is a project, not a scan) runs as a
  // selection-vector step.
  Table t = Numbers(800);
  ExpectBitIdentical(VFilter(
      VProject(VScan(&t),
               {Expr::Col(0), Expr::Col(1) + Expr::Lit(Value(1.0))},
               {"k", "p1"}),
      Gt(Expr::Col(1), Expr::Lit(Value(100.0)))));
}

TEST(VectorizedPlanTest, HashAggregate) {
  Table t = Numbers(2000, 37);
  ExpectBitIdentical(VHashAggregate(
      VFilter(VScan(&t), Lt(Expr::Col(0), Expr::Lit(Value(int64_t{25})))),
      {0},
      {{AggFunc::kSum,
        Expr::Col(1) * (Expr::Lit(Value(1.0)) - Expr::Col(2)), "rev"},
       {AggFunc::kCount, Expr::Col(2), "c_disc"},
       {AggFunc::kCount, nullptr, "c"},
       {AggFunc::kMin, Expr::Col(1), "lo"},
       {AggFunc::kMax, Expr::Col(1), "hi"},
       {AggFunc::kAvg, Expr::Col(1), "avg"}}));
}

TEST(VectorizedPlanTest, GlobalAggregateOverEmptyInput) {
  Table t = Numbers(100);
  // Filter nothing through; global aggregate must still emit one row
  // (NULL sum, zero count) in both engines.
  const auto plan = VHashAggregate(
      VFilter(VScan(&t), Lt(Expr::Col(0), Expr::Lit(Value(int64_t{-1})))),
      {}, {{AggFunc::kSum, Expr::Col(1), "s"},
           {AggFunc::kCount, nullptr, "c"}});
  ExpectBitIdentical(plan);
  auto r = RunRow(plan);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_TRUE(r->rows[0][0].is_null());
}

TEST(VectorizedPlanTest, AggregateIntKeyDemotion) {
  // Group keys that start int64 and later produce non-int64 values make
  // the aggregate sink demote its integer key index mid-stream; grouping
  // and first-occurrence order must be unaffected.
  Table t;
  t.schema = {{"k", ValueType::kNull}, {"v", ValueType::kDouble}};
  for (int i = 0; i < 300; ++i) {
    Value key = i < 150 ? Value(i % 10)
                        : (i % 2 == 0 ? Value("g" + std::to_string(i % 3))
                                      : Value(i % 10));
    t.rows.push_back({key, Value(i * 0.5)});
  }
  ExpectBitIdentical(VHashAggregate(
      VScan(&t), {0}, {{AggFunc::kSum, Expr::Col(1), "s"}}));
}

TEST(VectorizedPlanTest, HashJoin) {
  Table build = Numbers(40, 11);
  Table probe = Numbers(900, 13);
  ExpectBitIdentical(
      VHashJoin(VScan(&build), VScan(&probe), {0}, {0}));
}

TEST(VectorizedPlanTest, NestedLoopJoin) {
  Table l = Numbers(30, 4);
  Table r = Numbers(60, 4);
  ExpectBitIdentical(VNestedLoopJoin(
      VScan(&l), VScan(&r), Eq(Expr::Col(0), Expr::Col(3))));
}

TEST(VectorizedPlanTest, MergeJoin) {
  Table l = Numbers(50, 6);
  Table r = Numbers(70, 6);
  // Merge join needs sorted inputs in both engines.
  ExpectBitIdentical(VMergeJoin(VSort(VScan(&l), {0}, {true}),
                                VSort(VScan(&r), {0}, {true}), 0, 0));
}

TEST(VectorizedPlanTest, SortLimitUnion) {
  Table a = Numbers(300, 17);
  Table b = Numbers(300, 19);
  ExpectBitIdentical(VLimit(
      VSort(VUnionAll({VScan(&a), VScan(&b)}), {1, 0}, {false, true}, -1),
      25));
}

TEST(VectorizedPlanTest, SortWithTopKLimit) {
  Table t = Numbers(500, 23);
  ExpectBitIdentical(VSort(VScan(&t), {1}, {false}, 10));
}

TEST(VectorizedPlanTest, UnionSchemaMismatchIsInvalidArgument) {
  Table a = Numbers(5);
  Table narrow;
  narrow.schema = {{"k", ValueType::kInt64}};
  narrow.rows.push_back({Value(0)});
  const auto plan = VUnionAll({VScan(&a), VScan(&narrow)});
  auto vec = ExecuteVectorized(plan);
  ASSERT_FALSE(vec.ok());
  EXPECT_TRUE(vec.status().IsInvalidArgument()) << vec.status();
  auto row = RunRow(plan);
  ASSERT_FALSE(row.ok());
  EXPECT_TRUE(row.status().IsInvalidArgument()) << row.status();
}

TEST(VectorizedPlanTest, DeepPipelineBitIdentical) {
  // Aggregate over a join over a filtered union: several pipelines with
  // breakers in the middle.
  Table a = Numbers(400, 29);
  Table b = Numbers(400, 31);
  Table dim = Numbers(29, 29);
  const auto fact = VFilter(VUnionAll({VScan(&a), VScan(&b)}),
                            Gt(Expr::Col(1), Expr::Lit(Value(10.0))));
  const auto joined = VHashJoin(VScan(&dim), fact, {0}, {0});
  ExpectBitIdentical(VHashAggregate(
      joined, {0},
      {{AggFunc::kSum, Expr::Col(1) + Expr::Col(4), "s"},
       {AggFunc::kCount, nullptr, "c"}}));
}

TEST(VectorizedPlanTest, MorselSizeDoesNotChangeResults) {
  Table t = Numbers(1111, 41);
  const auto plan = VHashAggregate(
      VFilter(VScan(&t), Lt(Expr::Col(0), Expr::Lit(Value(int64_t{30})))),
      {0}, {{AggFunc::kSum, Expr::Col(1), "s"}});
  auto row = RunRow(plan);
  ASSERT_TRUE(row.ok());
  for (const size_t morsel : {1u, 7u, 256u, 4096u}) {
    VecExecOptions opts;
    opts.morsel_rows = morsel;
    auto vec = ExecuteVectorized(plan, opts);
    ASSERT_TRUE(vec.ok()) << vec.status();
    EXPECT_TRUE(BitIdenticalTables(*row, *vec)) << "morsel=" << morsel;
  }
}

TEST(VectorizedPlanTest, NullPlanAndNullScanDiagnostics) {
  EXPECT_FALSE(ExecuteVectorized(nullptr).ok());
  auto vec = ExecuteVectorized(VScan(nullptr));
  ASSERT_FALSE(vec.ok());
  EXPECT_TRUE(vec.status().IsInvalidArgument());
}

}  // namespace
}  // namespace xdbft::exec
