#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/trace.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_GIT_COMMIT
#define PERFBENCH_GIT_COMMIT "unknown"
#endif

namespace perfbench {

const std::vector<MetricDef>& MetricRegistry() {
  static const std::vector<MetricDef> kMetrics = {
      // End-to-end (untraced run).
      {"setup_s", "s", true},
      {"ops_per_s", "ops/s", true},
      {"op_p50_us", "us", true},
      {"op_tail_us", "us", true},
      {"ok_frac", "ratio", true},
      {"peak_rss_mb", "MiB", true},
      {"cost_based_overhead_pct", "%", true},
      // Per-layer (traced run).
      {"ops", "count", false},
      {"proc.cpu_util", "ratio", false},
      {"trace.overhead_pct", "%", false},
      {"unattributed_frac", "ratio", false},
      {"plan.parse_us", "us", false},
      {"optimizer.topk_us", "us", false},
      {"api.advise_hit_us", "us", false},
      {"api.advise_miss_us", "us", false},
      {"api.record_observation_us", "us", false},
      {"api.hit_rate", "ratio", false},
      {"api.evictions", "count", false},
      {"api.memo_warm_starts", "count", false},
      {"api.drift_invalidations", "count", false},
      {"api.bypassed", "count", false},
      {"api.coalesced", "count", false},
      {"ft.find_best_us", "us", false},
      {"ft.configs_enumerated", "count", false},
      {"ft.paths_evaluated", "count", false},
      {"ft.rule1_ops", "count", false},
      {"ft.rule2_ops", "count", false},
      {"ft.rule3_rejections", "count", false},
      {"ft.memo_hit_ratio", "ratio", false},
      {"ft.prune_ratio", "ratio", false},
      {"ft.apply_scheme_us", "us", false},
      {"datagen.generate_s", "s", false},
      {"datagen.rows_per_s", "rows/s", false},
      {"engine.distribute_s", "s", false},
      {"engine.query_us.q1", "us", false},
      {"engine.query_us.q3", "us", false},
      {"engine.query_us.q5", "us", false},
      {"engine.query_us.q1c", "us", false},
      {"engine.query_us.q2c", "us", false},
      {"engine.ft_execute_us.q5_clean", "us", false},
      {"engine.ft_execute_us.q5_inject", "us", false},
      {"engine.ft_execute_us.q5_costbased", "us", false},
      {"engine.ft_execute_us.custrev", "us", false},
      {"engine.ft_execute_us.chain", "us", false},
      {"engine.ft_execute_us.chain_wal", "us", false},
      {"engine.failures_injected", "count", false},
      {"engine.recovery_executions", "count", false},
      {"engine.task_executions", "count", false},
      {"engine.useful_task_ratio", "ratio", false},
      {"engine.rows_lost", "count", false},
      {"engine.rows_recomputed", "count", false},
      {"engine.rows_materialized", "count", false},
      {"engine.rows_logged", "count", false},
      {"engine.rows_replayed", "count", false},
      {"exec.op_us.Scan", "us", false},
      {"exec.op_us.Filter", "us", false},
      {"exec.op_us.Project", "us", false},
      {"exec.op_us.HashJoin", "us", false},
      {"exec.op_us.HashAggregate", "us", false},
      {"exec.op_us.Sort", "us", false},
      {"exec.op_us.other", "us", false},
      {"cluster.trace_gen_us", "us", false},
      {"cluster.run_many_us.fine_grained", "us", false},
      {"cluster.run_many_us.full_restart", "us", false},
      {"cluster.run_many_us.wal_replay", "us", false},
      {"cluster.baseline_us", "us", false},
      {"cluster.sim_runs_per_s", "1/s", false},
      {"cluster.restarts", "count", false},
      {"cluster.failures_hit", "count", false},
      {"cluster.aborted", "count", false},
  };
  return kMetrics;
}

double MetricSink::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

namespace {

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSink& metrics, bool per_layer) {
  std::string body;
  for (const MetricDef& m : MetricRegistry()) {
    if (m.end_to_end == per_layer) continue;
    double v = metrics.Get(m.name);
    if (!std::isfinite(v)) {
      v = 0.0;
      correct = false;
    }
    if (!body.empty()) body += ", ";
    body += JsonString(m.name) + ": {\"value\": " + JsonNumber(v) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         body + "}}";
}

TailPercentile SelectTail(std::vector<double> samples, size_t min_beyond) {
  TailPercentile t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  // The ladder stops at p99.9: deeper percentiles need 100k+ samples and
  // then measure scheduler jitter rather than the program.
  // Percentiles in per-mille, so ranks are exact integers.
  for (const size_t per_mille : {999, 990, 950, 900, 750, 500}) {
    // Nearest rank: the smallest value with at least p% of samples at or
    // below it.
    const size_t rank = std::max<size_t>(1, (per_mille * n + 999) / 1000);
    const size_t beyond = n - rank;
    if (beyond >= min_beyond) {
      t.percentile = static_cast<double>(per_mille) / 10.0;
      t.value = samples[rank - 1];
      t.beyond = beyond;
      return t;
    }
  }
  t.percentile = 100.0;
  t.value = samples.back();
  t.beyond = 0;
  return t;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  std::nth_element(samples.begin(), samples.begin() + n / 2, samples.end());
  const double hi = samples[n / 2];
  if (n % 2 == 1) return hi;
  const double lo =
      *std::max_element(samples.begin(), samples.begin() + n / 2);
  return 0.5 * (lo + hi);
}

int Tracer::Begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op_;
  s.start_ns = NowNs();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<Span>& spans, bool timed) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_s[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if ((s.op >= 0) != timed) continue;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    SpanTotals& t = out[s.name];
    ++t.calls;
    t.total_s += dur;
    t.self_s += dur - child_s[i];
  }
  return out;
}

Status WriteChromeTrace(const std::string& path,
                        const std::vector<Span>& spans,
                        const std::string& stamp_json) {
  xdbft::obs::TraceRecorder rec;
  rec.SetProcessName(0, "perfbench");
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  rec.AddInstant("run_stamp", "meta", 0.0, 0, 0,
                 {xdbft::obs::TraceArg{"stamp", stamp_json}});
  for (const Span& s : spans) {
    rec.AddComplete(s.name, "layer",
                    static_cast<double>(s.start_ns - origin) * 1e-3,
                    static_cast<double>(s.end_ns - s.start_ns) * 1e-3, 0, 0,
                    {xdbft::obs::IntArg("op", s.op),
                     xdbft::obs::IntArg("parent", s.parent)});
  }
  return rec.WriteFile(path);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

namespace {

/// The CPUs the process may use, as first read (before any pinning).
const cpu_set_t& ProcessCpuSet() {
  static const cpu_set_t kSet = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) {
      CPU_ZERO(&set);
      CPU_SET(0, &set);
    }
    return set;
  }();
  return kSet;
}

void PinCallingThread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

int AvailableCpus() { return std::max(1, CPU_COUNT(&ProcessCpuSet())); }

void StartWorkersOnOwnCpu(const std::function<void()>& start) {
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE && cpus.size() < 2; ++c) {
    if (CPU_ISSET(c, &ProcessCpuSet())) cpus.push_back(c);
  }
  if (cpus.size() < 2) {
    start();
    return;
  }
  PinCallingThread(cpus[1]);
  start();
  PinCallingThread(cpus[0]);
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string RunStamp::ToJson() const {
  return std::string("{\"workload\": ") + JsonString(workload) +
         ", \"seed\": " + std::to_string(seed) +
         ", \"seconds\": " + std::to_string(seconds) +
         ", \"trace\": " + (trace ? "true" : "false") +
         ", \"threads\": " + std::to_string(threads) +
         ", \"ops\": " + std::to_string(ops) +
         ", \"nproc\": " + std::to_string(AvailableCpus()) +
         ", \"cpu_model\": " + JsonString(CpuModel()) +
         ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"git_commit\": " + JsonString(PERFBENCH_GIT_COMMIT) + "}";
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "advise_mix") return MakeAdviseMix(seed);
  if (name == "validate_tpch") return MakeValidateTpch(seed);
  if (name == "replay_grid") return MakeReplayGrid(seed);
  return nullptr;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
