// Unit tests of the benchmark harness: tail-percentile selection, span
// self-time arithmetic, and the metric registry / result line.
#include <gtest/gtest.h>

#include <set>

#include "harness.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so SelectTail has to sort
}

TEST(SelectTail, PicksHighestPercentileWithTenBeyond) {
  TailPercentile t = SelectTail(Ramp(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 1000u);

  t = SelectTail(Ramp(10000));
  EXPECT_EQ(t.percentile, 99.9);
  EXPECT_EQ(t.value, 9990.0);
  EXPECT_EQ(t.beyond, 10u);

  // The ladder stops at p99.9, however many samples there are.
  t = SelectTail(Ramp(100000));
  EXPECT_EQ(t.percentile, 99.9);
  EXPECT_EQ(t.beyond, 100u);
}

TEST(SelectTail, FallsBackWhenTooFewBeyond) {
  // 999 samples: p99 leaves only 9 beyond, so p95 is reported.
  TailPercentile t = SelectTail(Ramp(999));
  EXPECT_EQ(t.percentile, 95.0);
  EXPECT_EQ(t.value, 950.0);
  EXPECT_EQ(t.beyond, 49u);

  // 200 samples: p95 has exactly 10 beyond.
  t = SelectTail(Ramp(200));
  EXPECT_EQ(t.percentile, 95.0);
  EXPECT_EQ(t.beyond, 10u);

  // Too few samples for any rung: the maximum, with nothing beyond.
  t = SelectTail(Ramp(5));
  EXPECT_EQ(t.percentile, 100.0);
  EXPECT_EQ(t.value, 5.0);
  EXPECT_EQ(t.beyond, 0u);

  t = SelectTail({});
  EXPECT_EQ(t.samples, 0u);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

Span MakeSpan(const char* name, int64_t start, int64_t end, int parent,
              int64_t op) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.op = op;
  return s;
}

TEST(SummarizeSpans, SelfTimeSubtractsDirectChildren) {
  const std::vector<Span> spans = {
      MakeSpan("setup", 0, 500, -1, -1),      // 0: set-up, excluded
      MakeSpan("op", 1000, 1100, -1, 0),      // 1
      MakeSpan("a", 1010, 1040, 1, 0),        // 2
      MakeSpan("b", 1050, 1090, 1, 0),        // 3
      MakeSpan("c", 1060, 1070, 3, 0),        // 4: child of b
      MakeSpan("op", 2000, 2050, -1, 1),      // 5
      MakeSpan("a", 2000, 2050, 5, 1),        // 6: covers its parent
  };
  const auto timed = SummarizeSpans(spans, true);
  ASSERT_EQ(timed.count("setup"), 0u);
  EXPECT_EQ(timed.at("op").calls, 2u);
  EXPECT_NEAR(timed.at("op").total_s, 150e-9, 1e-15);
  EXPECT_NEAR(timed.at("op").self_s, 30e-9, 1e-15);  // 100-30-40 + 50-50
  EXPECT_NEAR(timed.at("a").self_s, 80e-9, 1e-15);
  EXPECT_NEAR(timed.at("b").self_s, 30e-9, 1e-15);
  EXPECT_NEAR(timed.at("c").self_s, 10e-9, 1e-15);
  // Self times partition the top-level spans exactly.
  double self = 0.0;
  for (const auto& [name, t] : timed) self += t.self_s;
  EXPECT_NEAR(self, timed.at("op").total_s, 1e-15);
  EXPECT_NEAR(timed.at("a").mean_us(), 0.04, 1e-12);  // (30 + 50) ns / 2

  const auto setup = SummarizeSpans(spans, false);
  ASSERT_EQ(setup.size(), 1u);
  EXPECT_NEAR(setup.at("setup").self_s, 500e-9, 1e-15);
}

TEST(Tracer, NestsByScope) {
  Tracer tracer;
  tracer.set_op(7);
  {
    ScopedSpan outer(&tracer, "outer");
    ScopedSpan inner(&tracer, "inner");
  }
  ScopedSpan untraced(nullptr, "ignored");
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[1].op, 7);
  EXPECT_LE(tracer.spans()[1].end_ns, tracer.spans()[0].end_ns);
}

TEST(MetricRegistry, NamesUniqueWithUnits) {
  std::set<std::string> names;
  bool has_setup = false;
  for (const MetricDef& m : MetricRegistry()) {
    EXPECT_TRUE(names.insert(m.name).second) << m.name;
    EXPECT_GT(std::string(m.unit).size(), 0u) << m.name;
    EXPECT_LE(std::string(m.name).size(), 64u);
    if (std::string(m.name) == "setup_s") {
      has_setup = true;
      EXPECT_STREQ(m.unit, "s");
      EXPECT_TRUE(m.end_to_end);
    }
  }
  EXPECT_TRUE(has_setup);
}

TEST(ResultJson, EveryMetricOfTheRunKindWithUnit) {
  MetricSink sink;
  sink.Set("setup_s", 1.25);
  for (const bool per_layer : {false, true}) {
    const std::string json = ResultJson(true, 10, 0, sink, per_layer);
    EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 10, "
                         "\"failed\": 0, \"metrics\": {",
                         0),
              0u);
    for (const MetricDef& m : MetricRegistry()) {
      const std::string entry = "\"" + std::string(m.name) +
                                "\": {\"value\": ";
      const bool present = json.find(entry) != std::string::npos;
      EXPECT_EQ(present, m.end_to_end != per_layer) << m.name;
      if (present) {
        EXPECT_NE(json.find(std::string("\"unit\": \"") + m.unit + "\""),
                  std::string::npos);
      }
    }
  }
  EXPECT_NE(ResultJson(true, 1, 0, sink, false).find("\"setup_s\": {\"value\": 1.25,"),
            std::string::npos);
}

TEST(ResultJson, NonFiniteMakesRunIncorrect) {
  MetricSink sink;
  sink.Set("ops_per_s", 1.0 / 0.0);
  const std::string json = ResultJson(true, 1, 0, sink, false);
  EXPECT_EQ(json.rfind("{\"correct\": false", 0), 0u);
}

}  // namespace
}  // namespace perfbench
