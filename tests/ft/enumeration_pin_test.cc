// Pins findBestFTPlan's outputs: for ~200 seeded random plans/clusters and
// the TPC-H Q1/Q3/Q5 plans plus Q5's top-k join orders, with placement and
// write-ahead lineage each on and off, the chosen plan index, the config
// bits, the estimated cost's bit pattern, the dominant path and every
// EnumerationStats counter fold into committed FNV-1a digests. A change to
// the enumerator's internals must keep every digest: the search, its
// summation orders and its tie-breaks are part of the contract, not just
// the winner. The search runs on one thread here: the counters are
// schedule-dependent at more, and the thread-count contract has its own
// suites (parallel_enumerator_test, scheme_determinism_test).
//
// The second suite pins the collapse itself: collapsing every mask of a
// plan in sequence into one reused CollapsedPlan gives, field by field,
// what a fresh CollapsedPlan::Create gives.
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ft/enumerator.h"
#include "optimizer/join_enumerator.h"
#include "tpch/q5_join_graph.h"
#include "tpch/queries.h"
#include "validate/generator.h"

namespace xdbft::ft {
namespace {

using plan::Plan;

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void AddDouble(double v) { Add(std::bit_cast<uint64_t>(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct PinCase {
  std::vector<Plan> candidates;
  FtCostContext context;
  EnumerationOptions options;
};

void AddChoice(const Result<FtPlanChoice>& r, Digest* d) {
  d->Add(static_cast<uint64_t>(r.status().code()));
  if (!r.ok()) return;
  d->Add(r->plan_index);
  d->Add(r->config.size());
  for (size_t i = 0; i < r->config.size(); ++i) {
    d->Add(r->config.materialized(static_cast<plan::OpId>(i)) ? 1 : 0);
  }
  d->AddDouble(r->estimated_cost);
  d->Add(r->dominant_path.size());
  for (CollapsedId id : r->dominant_path) d->Add(static_cast<uint64_t>(id));
  d->Add(r->placement_groups.size());
  for (int g : r->placement_groups) d->Add(static_cast<uint64_t>(g));
}

void AddStats(const EnumerationStats& s, Digest* d) {
  for (uint64_t v :
       {s.candidate_plans, s.total_ft_plans_unpruned, s.ft_plans_enumerated,
        s.rule1_ops_marked, s.rule2_ops_marked, s.rule3_early_stops,
        s.rule3_rejections, s.rule3_rpt_hits, s.rule3_tpt_hits,
        s.rule3_memo_hits, s.rule3_memo_misses, s.paths_evaluated,
        s.rule3_paths_skipped, s.tasks_executed, s.tasks_stolen}) {
    d->Add(v);
  }
}

struct GroupDigests {
  uint64_t choice = 0;
  uint64_t stats = 0;
};

GroupDigests RunCases(const std::vector<PinCase>& cases) {
  Digest choice, stats;
  for (const PinCase& c : cases) {
    EnumerationOptions seq = c.options;
    seq.num_threads = 1;
    FtPlanEnumerator sequential(c.context, seq);
    const auto got = sequential.FindBest(c.candidates);
    AddChoice(got, &choice);
    AddStats(sequential.stats(), &stats);

  }
  return {choice.value(), stats.value()};
}

void WithPlacement(FtCostContext* ctx) {
  ctx->cluster.num_placement_groups = 3;
  ctx->cluster.burst_mtbf_seconds = ctx->cluster.mtbf_seconds / 4.0;
  ctx->cluster.burst_fanout = 0.5;
}

void WithWal(FtCostContext* ctx) {
  ctx->model.wal_enabled = true;
  ctx->model.wal_write_cost = 0.3;
}

// 50 seeded random plans and clusters; pruning flags and CONST_pipe vary
// per case so rules 1-3 and the memo each fire in some cases and not in
// others.
std::vector<PinCase> RandomCases(bool placement, bool wal) {
  std::vector<PinCase> out;
  Rng rng(0x9157A11ULL);
  validate::PlanGenOptions gen;
  gen.max_ops = 12;
  for (int i = 0; i < 50; ++i) {
    PinCase c;
    c.candidates.push_back(validate::RandomPlan(rng, gen));
    if (rng.NextDouble() < 0.3) {
      c.candidates.push_back(validate::RandomPlan(rng, gen));
    }
    c.context.cluster = validate::RandomCluster(rng);
    // Short MTBFs too, where attempts grow and rule 3 has work to do.
    if (rng.NextDouble() < 0.5) c.context.cluster.mtbf_seconds /= 100.0;
    c.context.model.pipe_constant = rng.NextDouble() < 0.5 ? 1.0 : 0.7;
    c.options.pruning.rule1 = rng.NextDouble() < 0.8;
    c.options.pruning.rule2 = rng.NextDouble() < 0.8;
    c.options.pruning.rule3 = rng.NextDouble() < 0.9;
    c.options.pruning.memoize_dominant_paths = rng.NextDouble() < 0.7;
    if (placement) WithPlacement(&c.context);
    if (wal) WithWal(&c.context);
    out.push_back(std::move(c));
  }
  return out;
}

Plan TpchPlan(tpch::TpchQuery q) {
  tpch::TpchPlanConfig cfg;
  cfg.scale_factor = 10.0;
  auto plan = tpch::BuildQuery(q, cfg);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *plan;
}

std::vector<Plan> Q5TopKPlans(int k) {
  tpch::TpchPlanConfig cfg;
  cfg.scale_factor = 10.0;
  auto graph = tpch::MakeQ5JoinGraph(cfg);
  EXPECT_TRUE(graph.ok());
  const auto params = tpch::MakePhysicalCostParams(cfg);
  optimizer::JoinTreeArena arena;
  auto roots = optimizer::EnumerateTopKJoinTrees(*graph, k, params, &arena);
  EXPECT_TRUE(roots.ok());
  std::vector<Plan> plans;
  for (int root : *roots) {
    auto p = optimizer::EmitPlan(arena, root, *graph, params);
    if (p.ok()) plans.push_back(std::move(*p));
  }
  return plans;
}

// Q1, Q3, Q5 and Q5's top-8 / top-32 join orders at two MTBFs.
std::vector<PinCase> TpchCases(bool placement, bool wal) {
  std::vector<std::vector<Plan>> workloads = {
      {TpchPlan(tpch::TpchQuery::kQ1)},
      {TpchPlan(tpch::TpchQuery::kQ3)},
      {TpchPlan(tpch::TpchQuery::kQ5)},
      Q5TopKPlans(8),
      Q5TopKPlans(32)};
  std::vector<PinCase> out;
  for (const auto& candidates : workloads) {
    for (double mtbf : {1200.0, 86400.0}) {
      PinCase c;
      c.candidates = candidates;
      c.context.cluster = cost::MakeCluster(10, mtbf, 1.0);
      if (placement) WithPlacement(&c.context);
      if (wal) WithWal(&c.context);
      out.push_back(std::move(c));
    }
  }
  return out;
}

struct Pinned {
  const char* name;
  bool tpch;
  bool placement;
  bool wal;
  GroupDigests want;
};

// Digests of the sequential search's outputs.
constexpr Pinned kPinned[] = {
    {"random", false, false, false,
     {0x73df3e93cf9e05efULL, 0x040e5ab5036de44aULL}},
    {"random+placement", false, true, false,
     {0x3630f30c6a0c47b0ULL, 0xf0e7247c670c0ff0ULL}},
    {"random+wal", false, false, true,
     {0xf5b8aae4103aee4aULL, 0x689c0bc6e30cc107ULL}},
    {"random+placement+wal", false, true, true,
     {0x5b89988669913278ULL, 0xfd3d98462a6979cfULL}},
    {"tpch", true, false, false,
     {0xa54d11b21d3cef11ULL, 0x52b1cbda18bf00d9ULL}},
    {"tpch+placement", true, true, false,
     {0x3a1a49e90aa0d450ULL, 0xdcb39bbbc1a59cddULL}},
    {"tpch+wal", true, false, true,
     {0xbf066d3eb906bfdfULL, 0xeaa67765dad08d02ULL}},
    {"tpch+placement+wal", true, true, true,
     {0x839f2e7de83a3235ULL, 0xaf7f81f66961f971ULL}},
};

TEST(EnumerationPinTest, OutputsMatchPinnedDigests) {
  for (const Pinned& p : kPinned) {
    const std::vector<PinCase> cases = p.tpch
                                           ? TpchCases(p.placement, p.wal)
                                           : RandomCases(p.placement, p.wal);
    const GroupDigests got = RunCases(cases);
    EXPECT_EQ(got.choice, p.want.choice) << p.name;
    EXPECT_EQ(got.stats, p.want.stats) << p.name;
  }
}

void ExpectSameCollapse(const CollapsedPlan& got, const CollapsedPlan& want,
                        const std::string& where) {
  ASSERT_EQ(got.num_ops(), want.num_ops()) << where;
  for (size_t i = 0; i < want.num_ops(); ++i) {
    const CollapsedOp& g = got.op(static_cast<CollapsedId>(i));
    const CollapsedOp& w = want.op(static_cast<CollapsedId>(i));
    EXPECT_EQ(g.id, w.id) << where;
    EXPECT_EQ(g.members, w.members) << where << " c" << i;
    EXPECT_EQ(g.anchor, w.anchor) << where << " c" << i;
    EXPECT_EQ(g.dominant_members, w.dominant_members) << where << " c" << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(g.runtime_cost),
              std::bit_cast<uint64_t>(w.runtime_cost))
        << where << " c" << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(g.materialize_cost),
              std::bit_cast<uint64_t>(w.materialize_cost))
        << where << " c" << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(g.lineage_volume),
              std::bit_cast<uint64_t>(w.lineage_volume))
        << where << " c" << i;
    EXPECT_EQ(g.inputs, w.inputs) << where << " c" << i;
    const auto gc = got.Consumers(g.id);
    const auto wc = want.Consumers(w.id);
    EXPECT_EQ(std::vector<CollapsedId>(gc.begin(), gc.end()),
              std::vector<CollapsedId>(wc.begin(), wc.end()))
        << where << " c" << i;
  }
  EXPECT_EQ(got.sources(), want.sources()) << where;
  EXPECT_EQ(got.sinks(), want.sinks()) << where;
  EXPECT_EQ(got.AllPaths(), want.AllPaths()) << where;
  EXPECT_EQ(got.CountPaths(), want.CountPaths()) << where;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.MakespanNoFailure()),
            std::bit_cast<uint64_t>(want.MakespanNoFailure()))
      << where;
  EXPECT_EQ(got.Explain(), want.Explain()) << where;
}

// Diamond: one scan feeds two branches that a join merges. Unmaterialized
// branches are members of the join's collapsed op twice over (two internal
// paths to the anchor) and the scan is a shared member.
Plan DiamondPlan() {
  plan::PlanBuilder b("diamond");
  const auto scan = b.Scan("t", 1e5, 8.0, 4.0);
  const auto left = b.Unary(plan::OpType::kFilter, "l", scan, 7.0, 2.0);
  const auto right = b.Unary(plan::OpType::kProject, "r", scan, 3.0, 1.0);
  const auto join = b.Binary(plan::OpType::kHashJoin, "j", left, right, 5.0,
                             2.5);
  b.Unary(plan::OpType::kHashAggregate, "agg", join, 2.0, 0.5);
  return std::move(b).Build();
}

// Shared non-materialized work: a filter feeding two materializing
// consumers is duplicated into each consumer's collapsed op.
Plan SharedWorkPlan() {
  plan::PlanBuilder b("shared");
  const auto scan = b.Scan("t", 1e5, 8.0, 6.0);
  const auto filt = b.Unary(plan::OpType::kFilter, "f", scan, 2.0, 1.0);
  const auto a = b.Unary(plan::OpType::kHashAggregate, "a", filt, 3.0, 0.3);
  const auto s = b.Unary(plan::OpType::kSort, "s", filt, 4.0, 0.4);
  const auto scan2 = b.Scan("u", 1e5, 8.0, 1.0);
  const auto j1 = b.Binary(plan::OpType::kHashJoin, "j1", a, scan2, 2.0, 1.0);
  b.Binary(plan::OpType::kUnion, "u", j1, s, 1.0, 0.2);
  return std::move(b).Build();
}

TEST(CollapseReuseTest, ReusedCollapseEqualsFreshCreate) {
  std::vector<Plan> plans = {DiamondPlan(), SharedWorkPlan(),
                             TpchPlan(tpch::TpchQuery::kQ5)};
  Rng rng(0xC011A95EULL);
  validate::PlanGenOptions gen;
  gen.max_ops = 11;
  for (int i = 0; i < 40; ++i) plans.push_back(validate::RandomPlan(rng, gen));

  // One object across all plans and masks: shrinking and growing both
  // reuse storage left by earlier collapses.
  CollapsedPlan reused;
  for (size_t pi = 0; pi < plans.size(); ++pi) {
    const Plan& plan = plans[pi];
    const std::vector<plan::OpId> free_ops = EnumerableOperators(plan);
    ASSERT_LE(free_ops.size(), 12u);
    const MaterializationConfig base = MaterializationConfig::NoMat(plan);
    MaterializationConfig config = base;
    for (uint64_t mask = 0; mask < (uint64_t{1} << free_ops.size());
         ++mask) {
      config.SetFreeMask(free_ops, mask);
      ASSERT_TRUE(config == MaterializationConfig::FromFreeMask(plan, mask));
      for (double pipe : {1.0, 0.6}) {
        auto fresh = CollapsedPlan::Create(plan, config, pipe);
        ASSERT_TRUE(fresh.ok()) << fresh.status();
        reused.Collapse(plan, config, pipe);
        ExpectSameCollapse(reused, *fresh,
                           "plan " + std::to_string(pi) + " mask " +
                               std::to_string(mask));
        if (HasFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace xdbft::ft
