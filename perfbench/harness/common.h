// Shared pieces of the benchmark harness: run options, the result record
// printed as the benchmark's last line, sample statistics, the in-memory
// span tracer of the traced run, and process probes.

#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/aligner.h"
#include "obs/metrics.h"

namespace perfbench {

/// Command-line options of one harness run. Sizes come from run.py's
/// workload table so the tiny self-test mode and the full benchmark share
/// every code path.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   // scratch inputs (shards, models, spills)
  std::string out_dir;    // kept outputs (span dumps)
  std::string briq_tool;  // server binary for serve_open
  std::string commit = "unknown";
  size_t docs = 0;        // corpus (align, train) or distinct bodies (serve)
  size_t train_docs = 0;  // model-training corpus (align, serve)
  size_t eval_docs = 0;   // held-out F1 corpus (train)
  double rate = 0.0;      // serve_open fixed arrival rate (requests/s)
  int setups = 3;         // set-up repetitions; setup_s is their median
  int cpus = 1;           // nproc
  int workers = 1;        // system threads: cpus - 1, the load gets one
  bool tamper_reference = false;
};

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Everything one run reports. `end_to_end` and `per_layer` are
/// pre-populated with the canonical metric lists (BENCHMARK.json) at 0 so
/// every run prints every name; workloads overwrite what they measure.
struct Result {
  Result();

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, std::string>> meta;

  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;
  /// Records one failed check with its reason (printed to stderr).
  void Fail(const std::string& reason, uint64_t count = 1);

  /// Prints the human-readable metric table, the metadata line, and the
  /// final one-line JSON result (end-to-end or per-layer metrics).
  void Print(bool trace) const;
};

/// Monotonic clock in seconds since an arbitrary epoch.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty set.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// The tail percentile a sample supports: the highest quantile, at most
/// 0.99, with at least ten samples beyond it, and never below the median.
double TailQuantile(std::vector<double> values);

/// VmHWM of a process in MiB (pid 0 = this process); 0 when unreadable.
double PeakRssMiB(pid_t pid = 0);
/// Restarts this process's VmHWM from its current RSS, so the peak covers
/// the measured phase and not the set-up before it (Linux >= 4.0).
void ResetPeakRss();

/// Order-sensitive digest of one document's alignment decisions (indices
/// and the exact score bits).
uint64_t AlignmentDigest(const briq::core::DocumentAlignment& alignment);

/// Counter / histogram-sum deltas between two registry snapshots.
uint64_t CounterDelta(const briq::obs::MetricsSnapshot& before,
                      const briq::obs::MetricsSnapshot& after,
                      const std::string& name);
double HistogramSumDelta(const briq::obs::MetricsSnapshot& before,
                         const briq::obs::MetricsSnapshot& after,
                         const std::string& name);
int64_t GaugeValue(const briq::obs::MetricsSnapshot& snapshot,
                   const std::string& name);

/// Span store of the traced run. Spans live in memory (name, start, end,
/// parent, item id) and are written out once at the end. A layer's self
/// time is its duration minus the durations of its child spans.
class Tracer {
 public:
  /// Opens a span; returns its id for End() and as a parent.
  int Begin(const char* name, uint32_t item, int parent = -1);
  void End(int id);
  /// Adds a finished child span of known duration (a replayed sub-step
  /// timed separately from its parent's interval).
  void AddLeaf(const char* name, uint32_t item, int parent, double seconds);

  /// Sum of self seconds per span name.
  std::map<std::string, double> SelfSeconds() const;
  /// Writes every span as one JSON array to `path`; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    uint32_t item;
  };
  std::vector<Span> spans_;
};

/// RAII span around one layer call; a null tracer records nothing, so the
/// same walk serves as the untraced reference.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint32_t item, int parent = -1)
      : tracer_(tracer),
        id_(tracer == nullptr ? -1 : tracer->Begin(name, item, parent)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Moves the traced run's self times into the per-layer metrics
/// (`<span name>_s`), and derives `unaccounted_share` against `traced_wall`
/// and `tracing_overhead_share` against the untraced sequential wall.
/// Returns the sum of the layers' self seconds.
double ReportLayers(const Tracer& tracer, double traced_wall,
                  double untraced_sequential_wall, Result* result);

/// Seeds derived from the run seed, one stream per input role.
uint64_t DeriveSeed(uint64_t seed, uint64_t role);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
