// Pins the result tables of the five benchmark queries (Q1, Q3, Q5, Q1C,
// Q2C) as FNV-1a digests over the schema (column count, names and types)
// and every value's type and exact bits, row by row. QueryRunner must hit
// the same digest on the row engine and on the vectorized engine at 1 and
// 2 threads and with odd-sized morsels; the fault-tolerant executor must
// hit it on the query's stage plan, failure-free, under both extreme
// materialization configurations. A refactor of the engine layer must
// keep every digest; only a change meant to alter a query's result may
// replace them (the failure message prints the new value).
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "engine/ft_executor.h"
#include "engine/query_runner.h"
#include "engine/stage_plan.h"

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

/// FNV-1a over the schema, then every value's type and exact bits.
uint64_t Digest(const exec::Table& t) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto feed = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ULL;
  };
  const size_t cols = t.schema.num_columns();
  feed(&cols, sizeof(cols));
  for (const exec::Column& c : t.schema.columns()) {
    feed(c.name.data(), c.name.size());
    const int type = static_cast<int>(c.type);
    feed(&type, sizeof(type));
  }
  for (const exec::Row& row : t.rows) {
    for (const exec::Value& v : row) {
      const int type = static_cast<int>(v.type());
      feed(&type, sizeof(type));
      switch (v.type()) {
        case exec::ValueType::kInt64: {
          const int64_t x = v.AsInt64();
          feed(&x, sizeof(x));
          break;
        }
        case exec::ValueType::kDouble: {
          const double x = v.AsDouble();
          feed(&x, sizeof(x));
          break;
        }
        case exec::ValueType::kString:
          feed(v.AsString().data(), v.AsString().size());
          break;
        case exec::ValueType::kNull:
          break;
      }
    }
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

using RunFn = Result<QueryExecution> (QueryRunner::*)() const;
using MakeFn = StagePlan (*)(const PartitionedDatabase&, ExecOptions);

struct QueryPin {
  const char* name;
  RunFn run;
  uint64_t digest;
};

const QueryPin kPins[] = {
    {"Q1", &QueryRunner::RunQ1, 0xd3eb3eac8b6d1c5bULL},
    {"Q3", &QueryRunner::RunQ3, 0xdf0d3280d1e37e3bULL},
    {"Q5", &QueryRunner::RunQ5, 0x308e9ba23a1acf39ULL},
    {"Q1C", &QueryRunner::RunQ1C, 0x7e8d5d3ad67d4f10ULL},
    {"Q2C", &QueryRunner::RunQ2C, 0x82c0461dd0607f82ULL},
};

uint64_t PinOf(const std::string& name) {
  for (const QueryPin& p : kPins) {
    if (name == p.name) return p.digest;
  }
  ADD_FAILURE() << "no pin for " << name;
  return 0;
}

void ExpectRunnerPins(const ExecOptions& opts, const char* config) {
  const Fixture& f = GetFixture();
  const QueryRunner runner(&f.pd, opts);
  for (const QueryPin& p : kPins) {
    auto r = (runner.*p.run)();
    ASSERT_TRUE(r.ok()) << p.name << " " << config << ": " << r.status();
    EXPECT_GT(r->result.num_rows(), 0u) << p.name << " " << config;
    EXPECT_EQ(Hex(Digest(r->result)), Hex(p.digest))
        << p.name << " " << config;
  }
}

TEST(QueryPinTest, RowEngine) { ExpectRunnerPins(ExecOptions{}, "row"); }

TEST(QueryPinTest, VectorizedOneThread) {
  ExecOptions opts;
  opts.mode = ExecMode::kVectorized;
  opts.num_threads = 1;
  ExpectRunnerPins(opts, "vectorized x1");
}

TEST(QueryPinTest, VectorizedTwoThreads) {
  ExecOptions opts;
  opts.mode = ExecMode::kVectorized;
  opts.num_threads = 2;
  ExpectRunnerPins(opts, "vectorized x2");
}

TEST(QueryPinTest, VectorizedOddMorsels) {
  ExecOptions opts;
  opts.mode = ExecMode::kVectorized;
  opts.num_threads = 2;
  opts.morsel_rows = 33;
  ExpectRunnerPins(opts, "vectorized x2, 33-row morsels");
}

struct StagePlanPin {
  const char* name;
  MakeFn make;
};

const StagePlanPin kStagePlans[] = {
    {"Q1", &MakeQ1StagePlan},   {"Q3", &MakeQ3StagePlan},
    {"Q5", &MakeQ5StagePlan},   {"Q1C", &MakeQ1CStagePlan},
    {"Q2C", &MakeQ2CStagePlan},
};

TEST(QueryPinTest, FtExecutorStagePlans) {
  const Fixture& f = GetFixture();
  for (const StagePlanPin& sp : kStagePlans) {
    for (const ExecMode mode : {ExecMode::kRow, ExecMode::kVectorized}) {
      ExecOptions opts;
      opts.mode = mode;
      const StagePlan plan = sp.make(f.pd, opts);
      const plan::Plan skeleton = plan.ToPlanSkeleton();
      FaultTolerantExecutor executor(&plan, &f.pd);
      executor.set_num_threads(2);
      for (const bool all_mat : {false, true}) {
        const auto config =
            all_mat ? ft::MaterializationConfig::AllMat(skeleton)
                    : ft::MaterializationConfig::NoMat(skeleton);
        auto r = executor.Execute(config);
        const std::string where =
            std::string(sp.name) +
            (mode == ExecMode::kRow ? " row" : " vectorized") +
            (all_mat ? " all-mat" : " no-mat");
        ASSERT_TRUE(r.ok()) << where << ": " << r.status();
        EXPECT_EQ(r->failures_injected, 0) << where;
        EXPECT_EQ(Hex(Digest(r->result)), Hex(PinOf(sp.name))) << where;
      }
    }
  }
}

}  // namespace
}  // namespace xdbft::engine
