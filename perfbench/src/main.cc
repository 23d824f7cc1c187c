// perfbench_driver: runs one workload of the end-to-end benchmark.
//
//   perfbench_driver --workload <advise_mix|validate_tpch|replay_grid>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file.json>] [--corrupt-check]
//   perfbench_driver --workload <name> --seed <n> --setup-only
//   perfbench_driver --list-metrics
//
// --trace 0 sets up, runs the op sequence in a closed loop for --seconds
// and prints the end-to-end metrics. ops_per_s is the median throughput of
// windows of whole op cycles. setup_s is the median of several cold
// set-ups, each in a fresh child process (the driver re-executed with
// --setup-only): one before the loop, the rest spread through it with the
// loop's clock stopped.
// --trace 1 sets up once with spans on, times a fixed number of ops
// untraced, replays the same ops traced from the same start state, and
// prints the per-layer metrics. Either way every recorded
// output is verified after the timed phase; the last stdout line is the
// JSON result, and a failed check makes the exit code non-zero.
// --corrupt-check flips one recorded output before verification (the
// benchmark's own tests use it to prove the checks can fail).
// --setup-only sets up once and prints the monotonic clock at its end (the
// cold set-up child). --list-metrics prints the metric registry as JSON
// lines.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness.h"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool corrupt_check = false;
  bool setup_only = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--corrupt-check") {
      a->corrupt_check = true;
    } else if (flag == "--setup-only") {
      a->setup_only = true;
    } else if (flag == "--workload" && has_value) {
      a->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      a->seconds = std::atoi(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      a->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--trace-out" && has_value) {
      a->trace_out = argv[++i];
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

int Fail(const char* what, const Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, st.ToString().c_str());
  return 1;
}

void PrintMetrics(const MetricSink& metrics, bool per_layer) {
  for (const MetricDef& m : MetricRegistry()) {
    if (m.end_to_end == per_layer) continue;
    std::printf("  %-36s %18.6f %s\n", m.name, metrics.Get(m.name), m.unit);
  }
}

// The verification step shared by both modes: fills ok_frac and returns
// whether every check passed.
bool VerifyInto(Workload* w, const Args& args, uint64_t attempted,
                uint64_t* failed, MetricSink* metrics) {
  const Verification v = w->Verify(args.corrupt_check);
  for (const std::string& e : v.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  *failed = attempted - std::min(attempted, v.ok_ops);
  metrics->Set("ok_frac", attempted == 0
                              ? 0.0
                              : static_cast<double>(v.ok_ops) /
                                    static_cast<double>(attempted));
  return v.ok_ops == attempted && v.errors.empty();
}

extern "C" char** environ;

/// Cold set-ups (each in a fresh process) the untraced run times; setup_s
/// is their median.
constexpr int kColdSetups = 10;

/// Loop time of one throughput window. A window closes at the first cycle
/// boundary past this, so every window has whole cycles of the op mix.
constexpr int64_t kWindowNs = 250000000;

/// Latency samples the untraced run keeps (32 MiB of floats).
constexpr uint64_t kLatencySamples = uint64_t{1} << 23;

/// MiB of the whole pages that [p, p + bytes) touches.
double SpannedPagesMiB(const void* p, size_t bytes) {
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const uintptr_t first = reinterpret_cast<uintptr_t>(p) / page;
  const uintptr_t last = (reinterpret_cast<uintptr_t>(p) + bytes - 1) / page;
  return static_cast<double>((last - first + 1) * page) / (1024.0 * 1024.0);
}

// --setup-only: sets the workload up once and prints the monotonic clock
// (NowNs) at the end of set-up.
int RunSetupOnly(const Args& args) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  const Status st = w->Setup(nullptr);
  if (!st.ok()) return Fail("setup", st);
  std::printf("%lld\n", static_cast<long long>(NowNs()));
  std::fflush(stdout);
  return 0;
}

// One cold set-up: re-executes this driver with --setup-only and returns
// the seconds from the spawn to the end of the child's set-up. That spans
// loading, static initialisation and the first set-up of a fresh process,
// as a benchmark run sees it from its start to its first timed op.
Status ColdSetupSeconds(const Args& args, double* seconds) {
  int out[2];
  if (pipe(out) != 0) return Status::Internal("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  const std::string seed = std::to_string(args.seed);
  const char* argv[] = {"perfbench_driver", "--workload",
                        args.workload.c_str(), "--seed", seed.c_str(),
                        "--setup-only", nullptr};
  pid_t pid = 0;
  const int64_t t0 = NowNs();
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             const_cast<char**>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out[1]);
  std::string text;
  if (rc == 0) {
    char buf[256];
    for (ssize_t n; (n = read(out[0], buf, sizeof(buf))) > 0;) {
      text.append(buf, static_cast<size_t>(n));
    }
  }
  close(out[0]);
  if (rc != 0) return Status::Internal("cannot spawn the set-up child");
  int wstatus = 0;
  while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0 || text.empty()) {
    return Status::Internal("set-up child failed");
  }
  *seconds = static_cast<double>(std::strtoll(text.c_str(), nullptr, 10) -
                                 t0) *
             1e-9;
  return Status::OK();
}

int RunUntraced(const Args& args, RunStamp* stamp) {
  // One cold set-up before the loop and the rest at equal intervals of
  // loop time inside it, with the loop's clock stopped while each runs.
  // The machine's speed drifts over seconds; spread like this, the set-ups
  // sample the whole run, as ops_per_s's windows do.
  std::vector<double> setup_s;
  const auto cold_setup = [&]() {
    double s = 0.0;
    const Status st = ColdSetupSeconds(args, &s);
    setup_s.push_back(s);
    return st;
  };
  // Latency samples go to a buffer written in full before set-up. Its
  // pages are resident from the start, so peak_rss_mb leaves them out
  // exactly and does not grow with the op count. A run with more ops than
  // the buffer holds keeps a uniform reservoir sample.
  std::vector<float> latency_us(kLatencySamples, 0.0f);
  const double buffer_mib =
      SpannedPagesMiB(latency_us.data(), kLatencySamples * sizeof(float));
  xdbft::Rng reservoir(Mix(args.seed, 99));

  if (const Status st = cold_setup(); !st.ok()) return Fail("cold setup", st);
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (const Status st = w->Setup(nullptr); !st.ok()) return Fail("setup", st);

  uint64_t errors = 0;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  const int64_t run_ns = static_cast<int64_t>(args.seconds) * 1000000000;
  const int64_t setup_interval_ns = run_ns / kColdSetups;
  int64_t paused_ns = 0;  // spent in cold set-ups inside the loop
  const auto loop_ns = [&](int64_t now) { return now - t0 - paused_ns; };
  const uint64_t cycle = w->OpsPerCycle();
  // ops_per_s is the median throughput of the windows, so a stretch of a
  // few seconds in which the shared machine runs slow moves it little.
  std::vector<double> window_ops_per_s;
  uint64_t window_i = 0;
  int64_t window_ns = 0;  // loop time at the window's start
  uint64_t i = 0;
  for (int64_t now = t0; i % cycle != 0 || loop_ns(now) < run_ns || i == 0;
       ++i) {
    const Status st = w->RunOp(i, nullptr);
    const int64_t end = NowNs();
    const float us = static_cast<float>(static_cast<double>(end - now) * 1e-3);
    if (i < kLatencySamples) {
      latency_us[i] = us;
    } else if (const uint64_t j = reservoir.NextBounded(i + 1);
               j < kLatencySamples) {
      latency_us[j] = us;
    }
    if (!st.ok()) ++errors;
    w->RecordOp(i, st);
    now = NowNs();
    if ((i + 1) % cycle == 0 && loop_ns(now) - window_ns >= kWindowNs) {
      window_ops_per_s.push_back(static_cast<double>(i + 1 - window_i) /
                                 (static_cast<double>(loop_ns(now) -
                                                      window_ns) *
                                  1e-9));
      window_i = i + 1;
      window_ns = loop_ns(now);
    }
    if (static_cast<int>(setup_s.size()) < kColdSetups &&
        loop_ns(now) >= static_cast<int64_t>(setup_s.size()) *
                            setup_interval_ns) {
      if (const Status cs = cold_setup(); !cs.ok()) {
        return Fail("cold setup", cs);
      }
      const int64_t resumed = NowNs();
      paused_ns += resumed - now;
      now = resumed;
    }
  }
  const double wall = static_cast<double>(loop_ns(NowNs())) * 1e-9;
  const double cpu_util = (ProcessCpuSeconds() - cpu0) / wall;
  // Read before verification, whose references are not the program's.
  const double peak_rss_mb = PeakRssMiB() - buffer_mib;
  stamp->ops = i;

  const std::vector<double> samples(
      latency_us.begin(),
      latency_us.begin() + static_cast<std::ptrdiff_t>(
                               std::min<uint64_t>(i, kLatencySamples)));
  MetricSink metrics;
  const TailPercentile tail = SelectTail(samples);
  metrics.Set("setup_s", Median(setup_s));
  const double mean_ops_per_s = static_cast<double>(i) / wall;
  metrics.Set("ops_per_s", window_ops_per_s.empty()
                               ? mean_ops_per_s
                               : Median(window_ops_per_s));
  metrics.Set("op_p50_us", Median(samples));
  metrics.Set("op_tail_us", tail.value);
  uint64_t failed = 0;
  bool correct = VerifyInto(w.get(), args, i, &failed, &metrics);
  const Status st = w->EndToEnd(&metrics);
  if (!st.ok()) return Fail("end-to-end metrics", st);
  metrics.Set("peak_rss_mb", peak_rss_mb);
  correct = correct && errors == 0;

  std::printf("{\"stamp\": %s}\n", stamp->ToJson().c_str());
  std::printf("workload %s: %llu ops in %.3f s, proc.cpu_util %.3f\n",
              args.workload.c_str(), static_cast<unsigned long long>(i),
              wall, cpu_util);
  std::printf("  ops_per_s is the median of %zu windows (whole-run mean "
              "%.6f)\n",
              window_ops_per_s.size(), mean_ops_per_s);
  std::printf("  op_tail_us is p%g over %zu samples (%zu beyond)\n",
              tail.percentile, tail.samples, tail.beyond);
  std::printf("  setup_s is the median of the cold set-ups");
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  PrintMetrics(metrics, /*per_layer=*/false);
  std::printf("%s\n",
              ResultJson(correct, i, failed, metrics, false).c_str());
  return correct ? 0 : 3;
}

int RunTraced(const Args& args, RunStamp* stamp) {
  Tracer tracer;
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  Status st = w->Setup(&tracer);
  if (!st.ok()) return Fail("setup", st);
  const uint64_t cycle = w->OpsPerCycle();
  const uint64_t n = (w->TracedOps(args.seconds) + cycle - 1) / cycle * cycle;
  stamp->ops = n;

  // Pass A: the op sequence untraced, for the tracing overhead.
  int64_t t0 = NowNs();
  for (uint64_t i = 0; i < n; ++i) {
    const Status op = w->RunOp(i, nullptr);
    w->RecordOp(i, op);
  }
  const double untraced_s = SecondsSince(t0);

  // Pass B: the same ops from the same start state, traced.
  st = w->Reset(/*traced=*/true);
  if (!st.ok()) return Fail("reset", st);
  uint64_t errors = 0;
  const double cpu0 = ProcessCpuSeconds();
  t0 = NowNs();
  for (uint64_t i = 0; i < n; ++i) {
    tracer.set_op(static_cast<int64_t>(i));
    Status op;
    {
      ScopedSpan span(&tracer, "op");
      op = w->RunOp(i, &tracer);
    }
    if (!op.ok()) ++errors;
    w->RecordOp(i, op);
  }
  const double traced_s = SecondsSince(t0);
  const double cpu_s = ProcessCpuSeconds() - cpu0;

  MetricSink metrics;
  metrics.Set("ops", static_cast<double>(n));
  metrics.Set("proc.cpu_util", cpu_s / traced_s);
  metrics.Set("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
  const auto totals = SummarizeSpans(tracer.spans(), /*timed=*/true);
  if (const auto it = totals.find("op"); it != totals.end()) {
    metrics.Set("unattributed_frac", it->second.self_s / it->second.total_s);
  }
  MetricSink e2e;
  uint64_t failed = 0;
  bool correct = VerifyInto(w.get(), args, n, &failed, &e2e);
  st = w->PerLayer(tracer.spans(), &metrics);
  if (!st.ok()) return Fail("per-layer metrics", st);
  correct = correct && errors == 0;

  const std::string stamp_json = stamp->ToJson();
  if (!args.trace_out.empty()) {
    st = WriteChromeTrace(args.trace_out, tracer.spans(), stamp_json);
    if (!st.ok()) return Fail("trace output", st);
  }
  std::printf("{\"stamp\": %s}\n", stamp_json.c_str());
  std::printf("workload %s traced: %llu ops, untraced %.3f s, traced %.3f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(n),
              untraced_s, traced_s);
  PrintMetrics(metrics, /*per_layer=*/true);
  std::printf("%s\n", ResultJson(correct, n, failed, metrics, true).c_str());
  return correct ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  AvailableCpus();  // reads the CPU set before any thread is pinned
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    for (const MetricDef& m : MetricRegistry()) {
      std::printf("{\"name\": \"%s\", \"unit\": \"%s\", \"end_to_end\": %s}\n",
                  m.name, m.unit, m.end_to_end ? "true" : "false");
    }
    return 0;
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] "
                 "[--corrupt-check]\n");
    return 2;
  }
  std::unique_ptr<Workload> probe = MakeWorkload(args.workload, args.seed);
  if (probe == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.setup_only) {
    probe.reset();
    return RunSetupOnly(args);
  }
  RunStamp stamp;
  stamp.workload = args.workload;
  stamp.seed = args.seed;
  stamp.seconds = args.seconds;
  stamp.trace = args.trace;
  stamp.threads = probe->threads();
  probe.reset();
  // Thread guard: more threads than CPUs would measure the scheduler.
  if (stamp.threads > AvailableCpus()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run %d threads on %d CPUs\n",
                 stamp.threads, AvailableCpus());
    return 2;
  }
  return args.trace ? RunTraced(args, &stamp)
                    : RunUntraced(args, &stamp);
}
