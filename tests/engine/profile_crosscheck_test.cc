// EXPLAIN ANALYZE crosscheck: every node of a vectorized profile must
// report exactly the rows the test oracle produces for that node's subtree
// (Drain(ToOperator(subtree)), tests/oracle). Each query's stage plan runs
// through the oracle stage driver with a plan runner that executes every
// plan profiled on 4 threads and checks its profile node by node; the
// per-stage profiles QueryRunner merges are checked for one labeled tree
// per plan-running stage.
#include <gtest/gtest.h>

#include "engine/query_runner.h"
#include "oracle/stage_driver.h"

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
    return new Fixture{std::move(*db), std::move(*pd)};
  }();
  return *fixture;
}

using RunFn = Result<QueryExecution> (QueryRunner::*)() const;
using MakeFn = StagePlan (*)(const PartitionedDatabase&, ExecOptions);

void ExpectOracleRows(const exec::VecNodePtr& plan,
                      const obs::OperatorProfile& prof,
                      const std::string& where) {
  ASSERT_EQ(prof.children.size(), plan->children.size()) << where;
#if !defined(XDBFT_DISABLE_METRICS)
  auto expected = oracle::RunVolcano(plan);
  ASSERT_TRUE(expected.ok()) << where << ": " << expected.status();
  EXPECT_EQ(prof.rows_out, expected->num_rows())
      << where << " -> " << prof.name << ": vectorized profile says "
      << prof.rows_out << " rows, the oracle produced "
      << expected->num_rows();
#endif
  for (size_t i = 0; i < prof.children.size(); ++i) {
    ExpectOracleRows(plan->children[i], prof.children[i],
                     where + "/" + prof.name);
  }
}

uint64_t TotalRows(const obs::OperatorProfile& p) {
  uint64_t total = p.rows_out;
  for (const auto& c : p.children) total += TotalRows(c);
  return total;
}

void CrosscheckQuery(RunFn run, MakeFn make, const char* name) {
  const Fixture& f = GetFixture();
  const StagePlan plan = make(f.pd, ExecOptions{});
  int plans_checked = 0;
  const PlanRunner profiled = [&](const exec::VecNodePtr& node) {
    obs::OperatorProfile profile;
    exec::VecExecOptions vopts;
    vopts.num_threads = 4;
    vopts.profile = &profile;
    Result<exec::Table> r = exec::ExecuteVectorized(node, vopts);
    if (r.ok()) ExpectOracleRows(node, profile, name);
    ++plans_checked;
    return r;
  };
  auto oracle_run = oracle::RunStagePlan(plan, f.pd.num_nodes, profiled);
  ASSERT_TRUE(oracle_run.ok()) << name << ": " << oracle_run.status();
  EXPECT_GT(plans_checked, 0) << name;

  ExecOptions opts;
  opts.num_threads = 4;
  opts.profile = true;
  QueryRunner runner(&f.pd, opts);
  auto r = (runner.*run)();
  ASSERT_TRUE(r.ok()) << name << ": " << r.status();
  // One profile per stage that runs a plan (an exchange stage such as
  // Q5's Broadcast(RNC) runs none), labeled with the stage, in stage order.
  ASSERT_FALSE(r->stage_profiles.empty()) << name;
  [[maybe_unused]] uint64_t total_rows = 0;
  int s = 0;
  for (const obs::QueryProfile& p : r->stage_profiles) {
    while (s < plan.num_stages() && plan.stage(s).label != p.label) ++s;
    ASSERT_LT(s, plan.num_stages()) << name << ": " << p.label;
    ++s;
    EXPECT_EQ(p.engine, "vectorized") << name;
    total_rows += TotalRows(p.root);
  }
#if !defined(XDBFT_DISABLE_METRICS)
  // The profiles must actually be populated, not all-zero skeletons.
  EXPECT_GT(total_rows, 0u) << name;
#endif
}

TEST(ProfileCrosscheckTest, Q1RowCountsMatchAcrossEngines) {
  CrosscheckQuery(&QueryRunner::RunQ1, &MakeQ1StagePlan, "Q1");
}

TEST(ProfileCrosscheckTest, Q3RowCountsMatchAcrossEngines) {
  CrosscheckQuery(&QueryRunner::RunQ3, &MakeQ3StagePlan, "Q3");
}

TEST(ProfileCrosscheckTest, Q5RowCountsMatchAcrossEngines) {
  CrosscheckQuery(&QueryRunner::RunQ5, &MakeQ5StagePlan, "Q5");
}

TEST(ProfileCrosscheckTest, ProfilingOffLeavesProfilesEmpty) {
  const Fixture& f = GetFixture();
  QueryRunner runner(&f.pd);  // profile defaults to false
  auto r = runner.RunQ1();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->stage_profiles.empty());
}

}  // namespace
}  // namespace xdbft::engine
