// Shared machinery of the end-to-end benchmark driver: the metric
// registry, tail-percentile selection, the in-memory span tracer and its
// self-time arithmetic, the run stamp, process statistics, and the
// Workload interface every workload implements.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

using xdbft::Status;

// ---------------------------------------------------------------------------
// Metrics

/// \brief One metric the driver can print. End-to-end metrics come from
/// the untraced run (--trace 0), per-layer metrics from the traced run
/// (--trace 1).
struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};

/// \brief Every metric, end-to-end first, in print order.
const std::vector<MetricDef>& MetricRegistry();

/// \brief Metric values of one run, by registry name.
class MetricSink {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const;

 private:
  std::map<std::string, double> values_;
};

/// \brief The result line: `{"correct", "attempted", "failed",
/// "metrics"}` with every registry metric of the run's kind (end-to-end
/// or per-layer). A per-layer metric the workload does not exercise is
/// printed as 0. Non-finite values are printed as 0 and make the run
/// incorrect.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSink& metrics, bool per_layer);

/// \brief The highest percentile of a latency sample that has at least
/// `min_beyond` samples above its rank (nearest-rank definition).
struct TailPercentile {
  double percentile = 0.0;  ///< e.g. 99.9
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;  ///< samples ranked above the reported one
};

/// \brief Picks from the ladder 99.9, 99, 95, 90, 75, 50 the
/// highest percentile with >= min_beyond samples beyond it. With fewer
/// than min_beyond + 1 samples the maximum is reported (percentile 100,
/// beyond 0).
TailPercentile SelectTail(std::vector<double> samples,
                          size_t min_beyond = 10);

/// \brief Median (mean of the middle pair for even sizes); 0 for empty.
double Median(std::vector<double> samples);

// ---------------------------------------------------------------------------
// Tracing

/// \brief One span: a call from the benchmark into a layer.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;   ///< index of the enclosing span, -1 at top level
  int64_t op = -1;   ///< timed-op id; -1 for set-up
};

/// \brief Single-threaded in-memory span recorder. Spans nest by scope.
class Tracer {
 public:
  void set_op(int64_t op) { op_ = op; }
  int Begin(const char* name);
  void End(int index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int64_t op_ = -1;
};

/// \brief RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// \brief Per-name totals over a set of spans. Self time is a span's
/// duration minus the durations of its direct children.
struct SpanTotals {
  uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;

  double mean_us() const {
    return calls == 0 ? 0.0 : total_s * 1e6 / static_cast<double>(calls);
  }
};

/// \brief Totals per span name, restricted to spans whose op id satisfies
/// `timed` (op >= 0) or set-up (op == -1).
std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<Span>& spans, bool timed);

/// \brief Writes the spans as Chrome-trace JSON (one complete event per
/// span, args: op and parent), with the run stamp as metadata.
Status WriteChromeTrace(const std::string& path,
                        const std::vector<Span>& spans,
                        const std::string& stamp_json);

// ---------------------------------------------------------------------------
// Process and machine

int64_t NowNs();
double SecondsSince(int64_t start_ns);
/// \brief CPUs this process may run on (sched_getaffinity, as first read
/// before any pinning).
int AvailableCpus();
/// \brief Runs `start`, which starts worker threads, with the calling
/// thread pinned to the process's second CPU, so the workers inherit it;
/// then pins the calling thread to the first CPU. Left alone, the
/// scheduler can keep a woken worker on its waker's CPU for seconds, and
/// two threads then share one CPU. Runs `start` unpinned with fewer than
/// two CPUs.
void StartWorkersOnOwnCpu(const std::function<void()>& start);
/// \brief User + system CPU seconds of this process.
double ProcessCpuSeconds();
/// \brief Peak resident set size (VmHWM) in MiB.
double PeakRssMiB();

/// \brief The run fingerprint printed with every result.
struct RunStamp {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  int threads = 0;
  uint64_t ops = 0;

  std::string ToJson() const;
};

// ---------------------------------------------------------------------------
// Workloads

/// \brief Outcome of the post-run verification.
struct Verification {
  uint64_t ok_ops = 0;  ///< ops that returned OK and passed every check
  std::vector<std::string> errors;  ///< first few failures, for the log
};

/// \brief A closed-loop workload over a fixed, seed-determined op
/// sequence.
class Workload {
 public:
  virtual ~Workload() = default;

  /// \brief Threads the workload runs (the thread guard's input).
  virtual int threads() const = 0;
  /// \brief Ops of one traced pass at the given run length.
  virtual uint64_t TracedOps(int seconds) const = 0;
  /// \brief Length of the op sequence's period (valid after Setup). Runs
  /// end on a period boundary, so every run has the same op mix.
  virtual uint64_t OpsPerCycle() const { return 1; }

  /// \brief Builds the inputs and the serving state, then warms up with a
  /// fixed amount of single-threaded work. Spans go to `tracer`.
  virtual Status Setup(Tracer* tracer) = 0;
  /// \brief Rebuilds the mutable state (and its warm-up) so the op
  /// sequence can be replayed from the same start; drops recorded outputs.
  /// `traced` selects instrumentation that only the traced pass uses.
  virtual Status Reset(bool traced) = 0;
  /// \brief Runs op `i` (the timed part).
  virtual Status RunOp(uint64_t i, Tracer* tracer) = 0;
  /// \brief Stores op `i`'s output for verification (untimed).
  virtual void RecordOp(uint64_t i, const Status& status) = 0;
  /// \brief Checks every recorded output. `corrupt` flips one recorded
  /// output first, to prove the checks can fail.
  virtual Verification Verify(bool corrupt) = 0;

  /// \brief Workload-specific end-to-end metrics (cost_based_overhead_pct).
  virtual Status EndToEnd(MetricSink* out) = 0;
  /// \brief Per-layer metrics from the traced pass.
  virtual Status PerLayer(const std::vector<Span>& spans,
                          MetricSink* out) = 0;
};

/// \brief Workload factory; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);
std::unique_ptr<Workload> MakeAdviseMix(uint64_t seed);
std::unique_ptr<Workload> MakeValidateTpch(uint64_t seed);
std::unique_ptr<Workload> MakeReplayGrid(uint64_t seed);

/// \brief splitmix64 finalizer: derives independent sub-seeds.
uint64_t Mix(uint64_t a, uint64_t b);

}  // namespace perfbench
